import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LATIN
from oracle import o_canonical, o_report, o_runes, o_tables
from runemetrics import (
    Corpus,
    FrequencyTables,
    Rune,
    build_tables,
    density,
    diacritic_structural_surprisal,
    diacritic_token_surprisal,
    merge_tables,
    metric_report,
    rune_surprisal,
)

ACUTE = "́"
TILDE = "̃"


def test_build_tables_plain():
    t = build_tables(Corpus.from_lines(["aaa"], LATIN))
    assert t.base_count["a"] == 3
    assert t.total_marks == 0


def test_rune_surprisal_spanish(spanish_corpus):
    t = build_tables(spanish_corpus)
    assert rune_surprisal(Rune("n"), t) == pytest.approx(-math.log(0.6), abs=1e-12)
    assert rune_surprisal(Rune("n", (TILDE,)), t) == pytest.approx(-math.log(0.4), abs=1e-12)
    assert rune_surprisal(Rune("l"), t) == 0.0
    assert math.copysign(1.0, rune_surprisal(Rune("l"), t)) == 1.0  # l is its base's only form: 0.0, not -0.0


def test_rune_surprisal_unseen(spanish_corpus):
    t = build_tables(spanish_corpus)
    with pytest.raises(ValueError, match="unseen rune"):
        rune_surprisal(Rune("z"), t)


def test_dts_spanish(spanish_corpus):
    t = build_tables(spanish_corpus)
    assert diacritic_token_surprisal(Rune("n"), t) == 0.0
    assert diacritic_token_surprisal(Rune("n", (TILDE,)), t) == pytest.approx(-math.log(2 / 5), abs=1e-12)
    assert diacritic_token_surprisal(Rune("e", (ACUTE,)), t) == pytest.approx(-math.log(1 / 4), abs=1e-12)


def test_dts_unseen_pair(spanish_corpus):
    t = build_tables(spanish_corpus)
    with pytest.raises(ValueError, match="unseen mark"):
        diacritic_token_surprisal(Rune("l", (ACUTE,)), t)


def test_dss_spanish(spanish_corpus):
    t = build_tables(spanish_corpus)
    assert diacritic_structural_surprisal(Rune("n", (TILDE,)), t) == pytest.approx(math.log(2), abs=1e-12)
    assert diacritic_structural_surprisal(Rune("m"), t) == 0.0


def test_dss_every_type_marked():
    # every rune type of base 'x' carries the acute, so P = 1 and DSS = 0
    t = build_tables(Corpus.from_lines(["x́ x́"], LATIN))
    assert diacritic_structural_surprisal(Rune("x", (ACUTE,)), t) == 0.0


def test_dss_unseen_base(spanish_corpus):
    t = build_tables(spanish_corpus)
    with pytest.raises(ValueError, match="unseen base"):
        diacritic_structural_surprisal(Rune("z"), t)
    # a seen base whose mark never occurs on it fails as DTS does
    t = build_tables(Corpus.from_lines(["nn ñ"], LATIN))
    for measure in (diacritic_token_surprisal, diacritic_structural_surprisal):
        with pytest.raises(ValueError, match="^unseen mark/base pair: U\\+0301 on U\\+006E$"):
            measure(Rune("n", (ACUTE,)), t)


def test_density_values(spanish_corpus, hebrew_corpus):
    assert density(build_tables(spanish_corpus)) == pytest.approx(0.16)
    assert density(build_tables(hebrew_corpus)) == pytest.approx(1.0)
    assert density(build_tables(Corpus.from_lines(["plain text"], LATIN))) == 0.0


def test_density_empty():
    with pytest.raises(ValueError, match="empty corpus"):
        density(FrequencyTables())


def test_metric_report_spanish(spanish_corpus):
    rep = metric_report(spanish_corpus)
    assert rep.rune_token_count == 25
    assert rep.density == pytest.approx(0.16)
    assert rep.mean_rs == pytest.approx(0.2800, abs=5e-4)
    assert rep.mean_dts == pytest.approx(0.1565, abs=5e-4)
    assert rep.mean_dss == pytest.approx(0.1109, abs=5e-4)


def test_metric_report_hebrew_against_oracle(hebrew_corpus):
    rep = metric_report(hebrew_corpus)
    d, rs, dts, dss = o_report(o_runes(hebrew_corpus))
    assert rep.density == pytest.approx(d, abs=1e-12)
    assert rep.mean_rs == pytest.approx(rs, abs=1e-12)
    assert rep.mean_dts == pytest.approx(dts, abs=1e-12)
    assert rep.mean_dss == pytest.approx(dss, abs=1e-12)
    assert rep.mean_rs == pytest.approx(0.33, abs=0.01)


def test_metric_report_unmarked_corpus():
    rep = metric_report(Corpus.from_lines(["no marks here"], LATIN))
    assert (rep.density, rep.mean_rs, rep.mean_dts, rep.mean_dss) == (0.0, 0.0, 0.0, 0.0)


def test_metric_report_empty():
    with pytest.raises(ValueError):
        metric_report(Corpus([], LATIN))


def test_per_rune_breakdown(spanish_corpus):
    rep = metric_report(spanish_corpus, per_rune=True)
    assert len(rep.per_rune) == len(build_tables(spanish_corpus).rune_count)
    assert sum(row["count"] for row in rep.per_rune) == 25


def test_rs_zero_iff_unique_form():
    t = build_tables(Corpus.from_lines(["aa bb́"], LATIN))
    assert rune_surprisal(Rune("a"), t) == 0.0
    assert rune_surprisal(Rune("b"), t) > 0.0


# Random rune lists: Latin and Hebrew bases, each with 0-3 Mn marks held
# in canonical order, as segmentation holds them.
_RUNE = st.builds(
    lambda base, marks: Rune(base, o_canonical(marks)),
    st.sampled_from("abnz\u05d0\u05d1\u05e9"),
    st.sets(st.sampled_from("\u0301\u0303\u0308\u05b0\u05b8\u05bc\u05c1"), max_size=3),
)
_RUNES = st.lists(_RUNE, max_size=40)
_DERIVED = ("base_count", "mark_char_count", "type_count", "mark_type_count", "total_bases", "total_marks")


def counted(tokens):
    return FrequencyTables(Counter(tokens))


@settings(max_examples=200)
@given(tokens=_RUNES)
def test_derived_tables_match_recount(tokens):
    t = counted(tokens)
    assert {name: getattr(t, name) for name in _DERIVED} == o_tables(tokens)


@settings(max_examples=200)
@given(a=_RUNES, b=_RUNES, c=_RUNES)
def test_merge_commutes_associates_and_counts_concatenation(a, b, c):
    ta, tb, tc = counted(a), counted(b), counted(c)
    assert merge_tables([ta, tb]) == merge_tables([tb, ta]) == counted(a + b)
    ab_c = merge_tables([merge_tables([ta, tb]), tc])
    assert ab_c == merge_tables([ta, merge_tables([tb, tc])]) == counted(a + b + c)
    assert merge_tables([ta, tb, tc]) == counted(c + a + b)
    merged = merge_tables([ta, tb])
    assert {name: getattr(merged, name) for name in _DERIVED} == o_tables(a + b)


def test_tables_hold_one_count():
    t = build_tables(Corpus.from_lines(["áb á"], LATIN))
    assert list(vars(t)) == ["rune_count"]
    assert t == FrequencyTables(Counter({Rune("a", (ACUTE,)): 2, Rune("b"): 1}))
    for r in t.rune_count:  # reading every measure fills the derived tables
        for measure in (rune_surprisal, diacritic_token_surprisal, diacritic_structural_surprisal):
            measure(r, t)
    tables = [table for table in vars(t).values() if isinstance(table, dict)]
    assert not any(isinstance(v, set) for table in tables for v in table.values())

