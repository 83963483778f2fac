"""Frequency tables and the four corpus complexity measures.

Per-rune measures (all in nats, natural log):

* rune surprisal        -ln( #(r) / #(c) )            with c = base of r
* diacritic token surp.  sum over marks d of r of -ln( #(d,c) / #(c) )
* diacritic struct. surp. sum over marks d of -ln( |T_d(c)| / |T(c)| )
* density               total marks / total base letters

Note on the token-surprisal denominator: normalizing each mark's count by
#(c), the total occurrences of the base letter (marked or not), is what
reproduces the published worked-example values; normalizing by the marks
on c alone does not.  Corpus means are token-weighted over ALL rune
tokens, unmarked ones included.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import cached_property

from .corpus_io import Corpus
from .script_core import Rune, count_token_runes, format_cps

__all__ = [
    "FrequencyTables",
    "MetricReport",
    "build_tables",
    "merge_tables",
    "rune_surprisal",
    "diacritic_token_surprisal",
    "diacritic_structural_surprisal",
    "density",
    "metric_report",
]


class FrequencyTables:
    """Rune-token counts over a corpus; every other table derives from them.

    Absent keys mean zero.  Tables are built whole (:func:`build_tables`,
    :func:`merge_tables`) and never changed, so each derived table is a
    count, computed once, by one loop over rune types, when first read;
    no table but ``rune_count`` holds the rune types themselves.
    :func:`merge_tables` is associative, so tables can be built over
    partitions in any order.
    """

    def __init__(self, rune_count: Counter | None = None):
        self.rune_count = Counter() if rune_count is None else rune_count  # rune -> #(r)

    def __eq__(self, other):
        return isinstance(other, FrequencyTables) and self.rune_count == other.rune_count

    @cached_property
    def base_count(self) -> Counter:
        """base -> #(c)"""
        out = Counter()
        for r, n in self.rune_count.items():
            out[r.base] += n
        return out

    @cached_property
    def mark_char_count(self) -> Counter:
        """(mark, base) -> #(d,c)"""
        out = Counter()
        for r, n in self.rune_count.items():
            for d in r.marks:
                out[(d, r.base)] += n
        return out

    @cached_property
    def type_count(self) -> Counter:
        """base -> |T(c)|, the number of rune types on c"""
        return Counter(r.base for r in self.rune_count)

    @cached_property
    def mark_type_count(self) -> Counter:
        """(mark, base) -> |T_d(c)|, the number of rune types on c that carry d"""
        return Counter((d, r.base) for r in self.rune_count for d in r.marks)

    @cached_property
    def total_bases(self) -> int:
        return self.rune_count.total()

    @cached_property
    def total_marks(self) -> int:
        return sum(n * len(r.marks) for r, n in self.rune_count.items())


def build_tables(corpus: Corpus) -> FrequencyTables:
    """Rune counts from one fold over the corpus's distinct tokens: each
    token's runes count as often as the token occurs."""
    return FrequencyTables(count_token_runes(corpus.tokens(), corpus.profile)[0])


def merge_tables(tables) -> FrequencyTables:
    counts = Counter()
    for t in tables:
        counts.update(t.rune_count)
    return FrequencyTables(counts)


def rune_surprisal(r: Rune, t: FrequencyTables) -> float:
    n = t.rune_count.get(r, 0)
    if n < 1:
        raise ValueError(f"unseen rune: {r.key()}")
    return 0.0 - math.log(n / t.base_count[r.base])  # so a base's only form is 0.0, not -0.0


def diacritic_token_surprisal(r: Rune, t: FrequencyTables) -> float:
    total = 0.0
    for d in r.marks:
        n = t.mark_char_count.get((d, r.base), 0)
        if n < 1:
            raise ValueError(f"unseen mark/base pair: {format_cps(d)} on {format_cps(r.base)}")
        total += -math.log(n / t.base_count[r.base])
    return total


def diacritic_structural_surprisal(r: Rune, t: FrequencyTables) -> float:
    n_types = t.type_count.get(r.base)
    if not n_types:
        raise ValueError(f"unseen base: {format_cps(r.base)}")
    total = 0.0
    for d in r.marks:
        n = t.mark_type_count.get((d, r.base), 0)
        if n < 1:
            raise ValueError(f"unseen mark/base pair: {format_cps(d)} on {format_cps(r.base)}")
        total += -math.log(n / n_types)
    return total


def density(t: FrequencyTables) -> float:
    if t.total_bases == 0:
        raise ValueError("empty corpus")
    return t.total_marks / t.total_bases


class MetricReport(namedtuple("MetricReport", "density mean_rs mean_dts mean_dss rune_token_count per_rune",
                              defaults=(None,))):
    """Corpus means; ``per_rune``, when asked for, holds one row per rune
    type as the CLI prints it: ``rune`` (its ``U+XXXX`` key), ``text``,
    ``count``, ``rs``, ``dts`` and ``dss``, the most frequent first."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "density": self.density,
            "density_pct": 100.0 * self.density,
            "rs": self.mean_rs,
            "dts": self.mean_dts,
            "dss": self.mean_dss,
            "tokens": self.rune_token_count,
        }


def metric_report(corpus: Corpus, per_rune: bool = False) -> MetricReport:
    """Density plus token-weighted mean RS/DTS/DSS over all rune tokens."""
    t = build_tables(corpus)
    dens = density(t)
    rows = []
    rs_terms, dts_terms, dss_terms = [], [], []
    for r, n in t.rune_count.items():
        rs = rune_surprisal(r, t)
        dts = diacritic_token_surprisal(r, t)
        dss = diacritic_structural_surprisal(r, t)
        rs_terms.append(n * rs)
        dts_terms.append(n * dts)
        dss_terms.append(n * dss)
        if per_rune:
            rows.append({"rune": r.key(), "text": r.text(), "count": n, "rs": rs, "dts": dts, "dss": dss})
    n_tok = t.total_bases
    if per_rune:
        rows.sort(key=lambda row: (-row["count"], row["rune"]))
    return MetricReport(
        density=dens,
        mean_rs=math.fsum(rs_terms) / n_tok,
        mean_dts=math.fsum(dts_terms) / n_tok,
        mean_dss=math.fsum(dss_terms) / n_tok,
        rune_token_count=n_tok,
        per_rune=rows if per_rune else None,
    )
