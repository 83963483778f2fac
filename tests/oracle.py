"""Independent brute-force oracles used to cross-check the library.

Everything here recounts from the raw token list (or re-integrates the
t density numerically) on every query, deliberately sharing no code with
the implementation under test.
"""

import math
import unicodedata

from runemetrics import Rune


def o_rs(rune, tokens):
    same_rune = sum(1 for t in tokens if t == rune)
    same_base = sum(1 for t in tokens if t.base == rune.base)
    return -math.log(same_rune / same_base)


def o_dts(rune, tokens):
    same_base = sum(1 for t in tokens if t.base == rune.base)
    total = 0.0
    for d in rune.marks:
        with_mark = sum(1 for t in tokens if t.base == rune.base and d in t.marks)
        total += -math.log(with_mark / same_base)
    return total


def o_dss(rune, tokens):
    types = {t for t in tokens if t.base == rune.base}
    total = 0.0
    for d in rune.marks:
        with_mark = {t for t in types if d in t.marks}
        total += -math.log(len(with_mark) / len(types))
    return total


def o_density(tokens):
    marks = sum(len(t.marks) for t in tokens)
    return marks / len(tokens)


def o_report(tokens):
    """(density, mean_rs, mean_dts, mean_dss) over all tokens."""
    n = len(tokens)
    return (
        o_density(tokens),
        math.fsum(o_rs(t, tokens) for t in tokens) / n,
        math.fsum(o_dts(t, tokens) for t in tokens) / n,
        math.fsum(o_dss(t, tokens) for t in tokens) / n,
    )


def t_density(u, dof):
    c = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) / math.sqrt(dof * math.pi)
    return c * (1 + u * u / dof) ** (-(dof + 1) / 2)


def o_t_two_tailed(t, dof, steps=200_000):
    """Two-tailed p by trapezoid integration of the central region."""
    t = abs(t)
    if t == 0:
        return 1.0
    h = t / steps
    area = 0.5 * (t_density(0.0, dof) + t_density(t, dof))
    area += math.fsum(t_density(i * h, dof) for i in range(1, steps))
    central = 2.0 * area * h
    return max(0.0, 1.0 - central)


def o_segment(text, profile):
    """(runes, orphan count): the reference segmenter, one character at a
    time, classifying each codepoint afresh from its Unicode category."""

    def is_mark(ch):
        if ch in profile.mark_denylist:
            return False
        if ch in profile.extra_mark_allowlist:
            return True
        return unicodedata.category(ch) in ("Mn", "Mc")

    def canonical(marks):
        uniq = dict.fromkeys(marks)
        return tuple(sorted(uniq, key=lambda m: (unicodedata.combining(m), ord(m))))

    runes = []
    orphans = 0
    base = None
    upper = False
    marks = []
    for ch in unicodedata.normalize("NFD", text):
        if is_mark(ch):
            if base is None:
                orphans += 1
            else:
                marks.append(ch)
            continue
        if base is not None:
            runes.append(Rune(base, canonical(marks), upper))
        base = None
        marks = []
        if unicodedata.category(ch).startswith("L"):
            low = ch.lower()
            base = low if profile.casefold and len(low) == 1 else ch
            upper = base != ch
    if base is not None:
        runes.append(Rune(base, canonical(marks), upper))
    return runes, orphans
