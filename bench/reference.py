"""Independent reference for the benchmark's correctness checks.

Everything here is recomputed from the files with ``unicodedata``,
``statistics`` and ``math`` alone, never with ``runemetrics``, following the
definitions the README publishes: a rune is a letter (category L*) plus the
Mn/Mc marks after it in NFD, lower-cased, marks de-duplicated and ordered
by (combining class, codepoint); a mark with no letter before it on its
token is an orphan and is dropped.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
import math
import statistics
import unicodedata
from collections import Counter

_MASK64 = (1 << 64) - 1
_TOL = 1e-9


def _fold(ch: str) -> str:
    low = ch.lower()
    return low if len(low) == 1 else ch


def _rune(base: str, marks: list) -> tuple:
    uniq = dict.fromkeys(marks)
    return (base, tuple(sorted(uniq, key=lambda m: (unicodedata.combining(m), ord(m)))))


def segment(token: str) -> tuple[list[tuple], int]:
    """(runes, orphan marks) of one whitespace-free token."""
    runes, orphans = [], 0
    base, marks = None, []
    for ch in unicodedata.normalize("NFD", token):
        cat = unicodedata.category(ch)
        if cat in ("Mn", "Mc"):
            if base is None:
                orphans += 1
            else:
                marks.append(ch)
            continue
        if base is not None:
            runes.append(_rune(base, marks))
        base, marks = (_fold(ch), []) if cat[0] == "L" else (None, [])
    if base is not None:
        runes.append(_rune(base, marks))
    return runes, orphans


def strip(text: str) -> str:
    """NFD text with every Mn/Mc mark removed."""
    return "".join(ch for ch in unicodedata.normalize("NFD", text)
                   if unicodedata.category(ch) not in ("Mn", "Mc"))


def rune_key(rune: tuple) -> str:
    base, marks = rune
    return "+".join(f"U+{ord(c):04X}" for c in (base, *marks))


class Tokens:
    """Memoised segmentation of whitespace tokens (corpora repeat words)."""

    def __init__(self):
        self._cache: dict[str, tuple] = {}

    def __call__(self, token: str) -> tuple:
        hit = self._cache.get(token)
        if hit is None:
            runes, orphans = segment(token)
            hit = self._cache[token] = (runes, orphans, sum(len(m) for _, m in runes))
        return hit


class Recount:
    """Counts of one corpus file as the README defines them."""

    def __init__(self, text: str, tokens: Tokens):
        self.lines = self.blank_lines = self.lines_marked = 0
        self.words = self.words_marked = self.marks_in_marked_words = 0
        self.orphan_marks = 0
        self.line_runes: list[int] = []   # per non-blank line
        counts: Counter = Counter()
        for line in text.splitlines():
            if not line.strip():
                self.blank_lines += 1
                continue
            self.lines += 1
            n_runes = line_marks = 0
            for tok in line.split():
                runes, orphans, marks = tokens(tok)
                self.orphan_marks += orphans
                if not runes:
                    continue
                counts[tok] += 1
                n_runes += len(runes)
                line_marks += marks
                self.words += 1
                if marks:
                    self.words_marked += 1
                    self.marks_in_marked_words += marks
            self.line_runes.append(n_runes)
            self.lines_marked += line_marks > 0
        self.rune_count: Counter = Counter()
        for tok, n in counts.items():
            for r in tokens(tok)[0]:
                self.rune_count[r] += n
        self.runes = sum(self.line_runes)
        self.marks = sum(n * len(r[1]) for r, n in self.rune_count.items())

    def metrics(self) -> tuple[dict, dict]:
        """Corpus row and per-rune rows {key: (count, rs, dts, dss)}."""
        base_n: Counter = Counter()
        pair_n: Counter = Counter()
        types: Counter = Counter()
        pair_types: Counter = Counter()
        for (base, marks), n in self.rune_count.items():
            base_n[base] += n
            types[base] += 1
            for d in marks:
                pair_n[(d, base)] += n
                pair_types[(d, base)] += 1
        rows = {}
        rs_t, dts_t, dss_t = [], [], []
        for r, n in self.rune_count.items():
            base, marks = r
            rs = -math.log(n / base_n[base])
            dts = sum(-math.log(pair_n[(d, base)] / base_n[base]) for d in marks)
            dss = sum(-math.log(pair_types[(d, base)] / types[base]) for d in marks)
            rows[rune_key(r)] = (n, rs, dts, dss)
            rs_t.append(n * rs)
            dts_t.append(n * dts)
            dss_t.append(n * dss)
        n_tok = self.runes
        corpus = {"density": self.marks / n_tok, "density_pct": 100.0 * self.marks / n_tok,
                  "rs": math.fsum(rs_t) / n_tok, "dts": math.fsum(dts_t) / n_tok,
                  "dss": math.fsum(dss_t) / n_tok, "tokens": n_tok}
        return corpus, rows

    def profile(self) -> dict:
        multi = sum(n for r, n in self.rune_count.items() if len(r[1]) >= 2)
        return {
            "density_pct": 100.0 * self.marks / self.runes,
            "multi_pct": 100.0 * multi / self.runes,
            "words_diac_pct": 100.0 * self.words_marked / self.words,
            "lines_diac_pct": 100.0 * self.lines_marked / self.lines,
            "mean_diacs_per_word": (self.marks_in_marked_words / self.words_marked
                                    if self.words_marked else 0.0),
            "n_runes": sum(1 for r in self.rune_count if r[1]),
            "system": "Multi" if multi else "Single",
        }


# -- checks -----------------------------------------------------------------

def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _compare(what: str, got: dict, want: dict) -> list[str]:
    bad = []
    for k, v in want.items():
        g = got.get(k)
        if isinstance(v, float):
            ok = isinstance(g, (int, float)) and math.isclose(g, v, rel_tol=_TOL, abs_tol=_TOL)
        else:
            ok = g == v
        if not ok:
            bad.append(f"{what}: {k} is {g!r}, reference {v!r}")
    return bad


def check_metrics(stdout: str, ref: Recount) -> list[str]:
    """``metrics --per-rune --format json`` on one corpus."""
    try:
        rows = _json_lines(stdout)
    except json.JSONDecodeError as e:
        return [f"metrics: unparsable output: {e}"]
    if not rows or "density" not in rows[0]:
        return ["metrics: no corpus row"]
    want, want_runes = ref.metrics()
    bad = _compare("metrics", rows[0], want)
    got_runes = {row.get("rune"): row for row in rows[1:]}
    if set(got_runes) != set(want_runes):
        bad.append(f"metrics: {len(got_runes)} per-rune rows, reference {len(want_runes)} rune types")
    for key in sorted(set(got_runes) & set(want_runes)):
        n, rs, dts, dss = want_runes[key]
        bad += _compare(f"metrics rune {key}", got_runes[key], {"count": n, "rs": rs, "dts": dts, "dss": dss})
    return bad


def check_profile(stdout: str, ref: Recount) -> list[str]:
    """``profile --format json`` on one corpus."""
    try:
        rows = _json_lines(stdout)
    except json.JSONDecodeError as e:
        return [f"profile: unparsable output: {e}"]
    if len(rows) != 1:
        return [f"profile: {len(rows)} rows, expected 1"]
    return _compare("profile", rows[0], ref.profile())


def _xorshift64star_order(n: int, seed: int, rounds: int) -> list[int]:
    """The README's sampling shuffle: xorshift64* seeded through one
    splitmix64 step, Fisher-Yates with rejection-sampled bounded draws,
    reshuffling the full list on the same stream for each round."""
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    state = z or 0x9E3779B97F4A7C15
    out = []
    for _ in range(rounds):
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            bound = i + 1
            limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
            while True:
                x = state
                x ^= x >> 12
                x = (x ^ (x << 25)) & _MASK64
                x ^= x >> 27
                state = x
                v = (x * 0x2545F4914F6CDD1D) & _MASK64
                if v < limit:
                    break
            j = v % bound
            items[i], items[j] = items[j], items[i]
        out += items
    return out


def check_sample(output: str, source: str, target: int, seed: int, tokens: Tokens) -> list[str]:
    """``sample --target-chars target --seed seed`` of ``source``."""
    src = [line for line in source.splitlines() if line.strip()]
    src_runes = [sum(len(tokens(t)[0]) for t in line.split()) for line in src]
    src_nfd = [unicodedata.normalize("NFD", line) for line in src]
    got = output.splitlines()
    bad = []
    known = set(src_nfd)
    stray = [i for i, line in enumerate(got) if line not in known]
    if stray:
        bad.append(f"sample: line {stray[0] + 1} is not the NFD form of a source line ({len(stray)} such)")
    runes = [sum(len(tokens(t)[0]) for t in line.split()) for line in got]
    total = sum(runes)
    if total < target:
        bad.append(f"sample: {total} runes, below the target {target}")
    elif runes and total - runes[-1] >= target:
        bad.append(f"sample: {total} runes overshoot the target {target} by a whole line or more")
    rounds = -(-target // sum(src_runes))
    want, acc = [], 0
    for i in _xorshift64star_order(len(src), seed, rounds):
        want.append(src_nfd[i])
        acc += src_runes[i]
        if acc >= target:
            break
    if got != want:
        first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        bad.append(f"sample: differs from the documented seeded shuffle at line {first + 1} "
                   f"({len(got)} lines, reference {len(want)})")
    return bad


def check_strip(output: str, gold: str) -> list[str]:
    """``strip``: every non-blank gold line without its marks."""
    want = "".join(strip(line) + "\n" for line in gold.splitlines() if line.strip())
    return [] if output == want else ["strip: output is not the gold text with every mark removed"]


def check_model(text: str) -> list[str]:
    """``train``: a JSON model with a word map and a letter map."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"train: model is not JSON: {e}"]
    if not (isinstance(doc.get("word_map"), dict) and doc["word_map"] and isinstance(doc.get("char_map"), dict)):
        return ["train: model lacks a non-empty word_map or a char_map"]
    return []


def check_diacritize(restored: str, stripped: str) -> list[str]:
    """``diacritize`` may add marks only: stripped again, it equals its input."""
    if strip(restored) == stripped:
        return []
    return ["diacritize: output stripped of marks differs from its stripped input"]


def evaluation(gold: str, hyp: str, tokens: Tokens) -> dict:
    """Word and rune accuracy of ``hyp`` against ``gold``, non-blank lines
    paired in order."""
    g_lines = [line for line in gold.splitlines() if line.strip()]
    h_lines = [line for line in hyp.splitlines() if line.strip()]
    n_runes = rune_hits = n_words = word_hits = 0
    for g, h in zip(g_lines, h_lines, strict=True):
        g_words = [w for w in (tokens(t)[0] for t in g.split()) if w]
        h_words = [w for w in (tokens(t)[0] for t in h.split()) if w]
        for gw, hw in zip(g_words, h_words, strict=True):
            n_words += 1
            word_hits += gw == hw
            n_runes += len(gw)
            rune_hits += sum(a == b for a, b in zip(gw, hw, strict=True))
    return {"word_acc": 100.0 * word_hits / n_words, "rune_acc": 100.0 * rune_hits / n_runes,
            "n_words": n_words, "n_runes": n_runes}


def check_evaluate(stdout: str, gold: str, hyp: str, tokens: Tokens) -> list[str]:
    """``evaluate --format json`` of ``hyp`` against ``gold``."""
    try:
        rows = _json_lines(stdout)
    except json.JSONDecodeError as e:
        return [f"evaluate: unparsable output: {e}"]
    if len(rows) != 1:
        return [f"evaluate: {len(rows)} rows, expected 1"]
    try:
        want = evaluation(gold, hyp, tokens)
    except ValueError as e:  # zip(strict=True): the two sides do not align
        return [f"evaluate: gold and hypothesis do not align: {e}"]
    return _compare("evaluate", rows[0], want)


def check_correlate(stdout: str, table: str, x: str, y: str) -> list[str]:
    """``correlate --format json``: Pearson r matches ``statistics``."""
    try:
        rows = _json_lines(stdout)
    except json.JSONDecodeError as e:
        return [f"correlate: unparsable output: {e}"]
    if len(rows) != 1:
        return [f"correlate: {len(rows)} rows, expected 1"]
    lines = [line.split("\t") for line in table.splitlines() if line.strip()]
    header, body = lines[0], [dict(zip(lines[0], cells)) for cells in lines[1:]]
    pairs = [(row[x], row[y]) for row in body if row[x].strip() not in ("", "--") and row[y].strip() not in ("", "--")]
    xs = [float(a) for a, _ in pairs]
    ys = [float(b) for _, b in pairs]
    got = rows[0]
    bad = _compare("correlate", got, {"n": len(xs), "dropped": len(body) - len(xs)})
    r = statistics.correlation(xs, ys)
    if not (isinstance(got.get("r"), float) and abs(got["r"] - r) <= 1e-12):
        bad.append(f"correlate: r is {got.get('r')!r}, statistics.correlation gives {r!r}")
    return bad
