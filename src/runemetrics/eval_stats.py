"""Restoration accuracy and Pearson correlation with significance.

Accuracy is case-folded and compares canonical mark sets, so encoding
variants of the same diacritized letter count as equal.  The p-value for
Pearson's r comes from the Student-t tail via the regularized incomplete
beta function, evaluated by continued fraction (relative tolerance 1e-12,
at most 300 iterations) so independent ports agree digit for digit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from operator import eq, itemgetter

from .script_core import decode_utf8, normalize_decompose, segment_runes_counted, split_lines

__all__ = [
    "EvalReport",
    "CorrelationReport",
    "evaluate",
    "pearson",
    "correlate_table",
    "read_table",
    "regularized_incomplete_beta",
    "student_t_two_tailed",
]


class EvalReport(namedtuple("EvalReport", "word_accuracy rune_accuracy n_words n_runes")):
    """Word and rune accuracy in percent, and how many of each were scored."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "word_acc": self.word_accuracy,
            "rune_acc": self.rune_accuracy,
            "n_words": self.n_words,
            "n_runes": self.n_runes,
        }


def evaluate(gold: Corpus, hyp: Corpus) -> EvalReport:
    """Score a hypothesis corpus against gold, line-aligned.

    The hypothesis must not alter base text: after stripping and case
    folding the two sides have to be letter-identical per line, and they
    must hold a word, and both read under one profile.  Each distinct
    whitespace token is segmented once.
    """
    if hyp.profile != gold.profile:
        raise ValueError(f"gold reads under profile {gold.profile.name}, the hypothesis under another")
    if len(gold.texts) != len(hyp.texts):
        raise ValueError(f"line count mismatch: gold has {len(gold.texts)}, hypothesis {len(hyp.texts)}")
    memo: dict = {}
    base = itemgetter(0)
    n_runes = rune_hits = 0
    n_words = word_hits = 0
    for (gi, g_text), (hi, h_text) in zip(gold.texts, hyp.texts):
        g_words = _words(g_text, gold.profile, memo)
        h_words = _words(h_text, gold.profile, memo)
        g_runes = list(chain.from_iterable(g_words))
        h_runes = list(chain.from_iterable(h_words))
        if len(g_runes) != len(h_runes):
            raise ValueError(f"{_where(gi, hi)}: rune count differs ({len(g_runes)} vs {len(h_runes)})")
        g_bases, h_bases = list(map(base, g_runes)), list(map(base, h_runes))
        if g_bases != h_bases:
            pos = next(i for i, (gb, hb) in enumerate(zip(g_bases, h_bases)) if gb != hb)
            raise ValueError(
                f"{_where(gi, hi)}, rune {pos + 1}: base letter differs "
                f"({g_bases[pos]!r} vs {h_bases[pos]!r}); hypothesis altered base text"
            )
        if len(g_words) != len(h_words):
            raise ValueError(f"{_where(gi, hi)}: word tokenization differs")
        n_runes += len(g_runes)
        rune_hits += sum(map(eq, g_runes, h_runes))
        n_words += len(g_words)
        word_hits += sum(map(eq, g_words, h_words))
    if not n_words:  # every word holds a rune, so there are no runes either
        raise ValueError("no words to score")
    return EvalReport(
        word_accuracy=100.0 * word_hits / n_words,
        rune_accuracy=100.0 * rune_hits / n_runes,
        n_words=n_words,
        n_runes=n_runes,
    )


def _words(text: str, profile, memo: dict) -> list[tuple]:
    """The runes of each word of a line; ``memo`` maps each whitespace
    token already seen to its runes."""
    words = []
    for token in normalize_decompose(text).split():
        runes = memo.get(token)
        if runes is None:
            runes = memo[token] = tuple(segment_runes_counted(token, profile)[0])
        if runes:
            words.append(runes)
    return words


def _where(g_index: int, h_index: int) -> str:
    """The file line of a gold/hypothesis line pair, 1-based."""
    if g_index == h_index:
        return f"line {g_index + 1}"
    return f"gold line {g_index + 1}, hypothesis line {h_index + 1}"


# -- significance machinery -----------------------------------------------

_BETA_EPS = 1e-12
_BETA_ITMAX = 300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_ITMAX + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # the two half-steps of step m take one rule
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            h *= d * c
        if abs(d * c - 1.0) < _BETA_EPS:  # the odd half-step's factor
            return h
    raise ValueError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x out of range: {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed(t: float, dof: float) -> float:
    """P(|T| >= |t|) for Student's t with the given degrees of freedom."""
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


class CorrelationReport(namedtuple("CorrelationReport", "r n t_stat p_two_tailed stars dropped", defaults=(0,))):
    """Pearson's r over n points, its t statistic, two-tailed p and stars;
    ``dropped`` counts the rows discarded for missing values."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "t": self.t_stat,
            "p": self.p_two_tailed,
            "stars": self.stars,
            "dropped": self.dropped,
        }


def _stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def _scaled(values: list[float]) -> list[float]:
    """The values over the power of two that brings the largest magnitude
    into [0.5, 1).  Short of subnormals that is exact, so r is unchanged,
    and sums of squared deviations stay far from overflow."""
    k = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -k) for v in values]


def pearson(xs, ys) -> CorrelationReport:
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    n = len(xs)
    if len(ys) != n:
        raise ValueError("series length mismatch")
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("series holds a non-finite value")
    xs, ys = _scaled(xs), _scaled(ys)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return CorrelationReport(r=r, n=n, t_stat=math.copysign(math.inf, r), p_two_tailed=0.0, stars="***")
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = student_t_two_tailed(t, n - 2)
    return CorrelationReport(r=r, n=n, t_stat=t, p_two_tailed=p, stars=_stars(p))


_MISSING = (None, "", "--")


class _Row(dict):
    """A table row that remembers where it was read."""

    __slots__ = ("where",)


def read_table(path) -> list[dict]:
    """Read a header-first TSV; "--" and empty cells become None.

    Header names are stripped as cells are and must be distinct, and
    every data row must have as many cells as the header.  Lines end as
    a corpus's do, and invalid UTF-8 fails with its line and byte offset.
    """
    rows = []
    header = None
    for n, line in enumerate(split_lines(decode_utf8(path)), 1):
        if not line.strip():
            continue
        cells = line.split("\t")
        if header is None:
            header = [name.strip() for name in cells]
            repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
            if repeated is not None:
                raise ValueError(f"{path}: line {n}: repeated column name {repeated!r}")
            continue
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {n}: expected {len(header)} tab-separated cells, got {len(cells)}")
        row = _Row()
        row.where = f"line {n}"
        for name, cell in zip(header, cells):
            cell = cell.strip()
            row[name] = None if cell in _MISSING else cell
        rows.append(row)
    return rows


def _number(cell, where: str, column: str) -> float:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}, column {column!r}: not a finite number: {cell!r}")
    return value


def correlate_table(rows, x: str, y: str) -> CorrelationReport:
    """Pearson over two named columns, dropping rows with missing values.

    Any other cell of the two columns must be a finite number.  A cell
    that is not, or a row without the column, fails naming its line (as
    read by :func:`read_table`, else its row number); the caller names
    the file, as it does for a corpus.
    """
    xs, ys = [], []
    dropped = 0
    for i, row in enumerate(rows, 1):
        where = getattr(row, "where", f"row {i}")
        for column in (x, y):
            if column not in row:
                raise ValueError(f"{where}: no column {column!r} (columns: {', '.join(row)})")
        xv, yv = row[x], row[y]
        if xv in _MISSING or yv in _MISSING:
            dropped += 1
            continue
        xs.append(_number(xv, where, x))
        ys.append(_number(yv, where, y))
    if len(xs) < 3:
        raise ValueError(f"fewer than 3 usable rows for {x!r} vs {y!r} ({len(xs)} after dropping {dropped})")
    return pearson(xs, ys)._replace(dropped=dropped)
