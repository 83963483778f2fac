import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL_PROFILES, ADVERSARIAL_TEXT, LATIN, random_corpus, single_mark_corpus
from oracle import o_canonical, o_dss, o_dts, o_report, o_rs, o_runes, o_segment, o_tables
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


def spanish_tables(spanish_corpus):
    return build_tables(spanish_corpus)


def test_build_tables_spanish(spanish_corpus):
    t = build_tables(spanish_corpus)
    assert t.total_bases == 25
    assert t.total_marks == 4
    assert len({d for (d, _) in t.mark_char_count}) == 2


def test_build_tables_hebrew(hebrew_corpus):
    t = build_tables(hebrew_corpus)
    assert t.total_bases == 14
    assert t.total_marks == 14
    assert len({d for (d, _) in t.mark_char_count}) == 6


def test_build_tables_plain():
    t = build_tables(Corpus.from_lines(["aaa"], LATIN))
    assert t.base_count["a"] == 3
    assert t.total_marks == 0


def test_tables_internal_invariants(spanish_corpus):
    t = build_tables(spanish_corpus)
    assert sum(t.rune_count.values()) == t.total_bases
    for c, types in t.rune_types.items():
        assert sum(t.rune_count[r] for r in types) == t.base_count[c]
    for (d, c), types in t.mark_types.items():
        assert types <= t.rune_types[c]


def test_rune_surprisal_spanish(spanish_corpus):
    t = build_tables(spanish_corpus)
    assert rune_surprisal(Rune("n"), t) == pytest.approx(-math.log(0.6), abs=1e-12)
    assert rune_surprisal(Rune("n", (TILDE,)), t) == pytest.approx(-math.log(0.4), abs=1e-12)
    assert rune_surprisal(Rune("l"), t) == 0.0


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
    assert sum(row[1] for row in rep.per_rune) == 25


def test_duplication_invariance(spanish_corpus):
    doubled = Corpus.from_lines([text for _, text in spanish_corpus.texts] * 2, LATIN)
    a = metric_report(spanish_corpus)
    b = metric_report(doubled)
    assert (a.density, a.mean_rs, a.mean_dts, a.mean_dss) == (b.density, b.mean_rs, b.mean_dts, b.mean_dss)


def test_merge_associativity():
    rng = random.Random(5)
    corpora = [random_corpus(rng) for _ in range(4)]
    parts = [build_tables(c) for c in corpora]
    whole = FrequencyTables(Counter(r for c in corpora for r in o_runes(c)))
    assert merge_tables(parts) == whole
    assert merge_tables(reversed(parts)) == whole
    assert merge_tables([merge_tables(parts[:2]), merge_tables(parts[2:])]) == whole


def test_single_diacritic_dts_equals_rs():
    rng = random.Random(11)
    for _ in range(50):
        corpus = single_mark_corpus(rng)
        t = build_tables(corpus)
        for r in t.rune_count:
            if r.marks:
                assert diacritic_token_surprisal(r, t) == pytest.approx(rune_surprisal(r, t), abs=1e-12)
        rep = metric_report(corpus)
        assert rep.mean_dts <= rep.mean_rs + 1e-12


def test_non_negativity_and_oracle_small():
    rng = random.Random(99)
    for _ in range(100):
        corpus = random_corpus(rng)
        tokens = o_runes(corpus)
        t = build_tables(corpus)
        for r in t.rune_count:
            rs = rune_surprisal(r, t)
            dts = diacritic_token_surprisal(r, t)
            dss = diacritic_structural_surprisal(r, t)
            assert rs >= 0 and dts >= 0 and dss >= 0
            assert rs == pytest.approx(o_rs(r, tokens), abs=1e-12)
            assert dts == pytest.approx(o_dts(r, tokens), abs=1e-12)
            assert dss == pytest.approx(o_dss(r, tokens), abs=1e-12)


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
_DERIVED = ("base_count", "mark_char_count", "rune_types", "mark_types", "total_bases", "total_marks")


def counted(tokens):
    return FrequencyTables(Counter(tokens))


@settings(max_examples=200, deadline=None)
@given(tokens=_RUNES)
def test_derived_tables_match_recount(tokens):
    t = counted(tokens)
    assert {name: getattr(t, name) for name in _DERIVED} == o_tables(tokens)


@settings(max_examples=200, deadline=None)
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


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(ADVERSARIAL_TEXT, max_size=5), which=st.sampled_from(range(len(ADVERSARIAL_PROFILES))))
def test_build_tables_counts_the_reference_segmentation(lines, which):
    profile = ADVERSARIAL_PROFILES[which]
    want = Counter((r.base, r.marks) for line in lines for r in o_segment(line, profile)[0])
    assert build_tables(Corpus.from_lines(lines, profile)).rune_count == want
