import math
import random

import pytest

from conftest import corpus_of
from oracle import o_evaluate
from runemetrics import (
    Corpus,
    ScriptProfile,
    correlate_table,
    evaluate,
    pearson,
    read_table,
    regularized_incomplete_beta,
    student_t_two_tailed,
)


def test_evaluate_single_word():
    rep = evaluate(corpus_of("niño"), corpus_of("nino"))
    assert rep.word_accuracy == 0.0
    assert rep.rune_accuracy == 75.0


def test_evaluate_case_and_encoding_insensitive():
    # precomposed vs decomposed vs case variants all compare equal
    rep = evaluate(corpus_of("Café"), corpus_of("café"))
    assert rep.word_accuracy == 100.0


@pytest.mark.parametrize("lines", [[], [""], ["...", "¿ !"]])
def test_evaluate_of_no_words_raises_like_the_reference(lines):
    for scorer in (evaluate, o_evaluate):
        with pytest.raises(ValueError, match="no words to score"):
            scorer(corpus_of(*lines), corpus_of(*lines))


def test_evaluate_reads_both_sides_under_one_profile():
    gold = corpus_of("niño")
    with pytest.raises(ValueError, match="^gold reads under profile latin-generic, the hypothesis under another$"):
        evaluate(gold, Corpus(gold.texts, ScriptProfile("latin-generic", casefold=False)))


def test_pearson_perfect_lines():
    assert pearson([1, 2, 3], [2, 4, 6]).r == 1.0
    assert pearson([1, 2, 3], [2, 4, 6]).p_two_tailed == 0.0
    assert pearson([1, 2, 3], [2, 4, 6]).t_stat == math.inf
    assert pearson([1, 2, 3, 4], [4, 3, 2, 1]).r == -1.0
    assert pearson([1, 2, 3, 4], [4, 3, 2, 1]).t_stat == -math.inf  # t has the sign of r


def test_pearson_known_values():
    rep = pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert rep.r == pytest.approx(0.8, abs=1e-12)
    assert rep.p_two_tailed == pytest.approx(0.1041, abs=1e-4)
    assert rep.stars == ""
    assert rep.t_stat == pytest.approx(0.8 * math.sqrt(3 / 0.36), abs=1e-12)


def test_pearson_errors():
    with pytest.raises(ValueError, match="at least 3"):
        pearson([1, 2], [1, 2])
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1, 1, 1], [1, 2, 3])


def test_pearson_scale_shift_invariance():
    rng = random.Random(8)
    xs = [rng.random() for _ in range(10)]
    ys = [rng.random() for _ in range(10)]
    base = pearson(xs, ys).r
    assert pearson([3.7 * x + 11 for x in xs], ys).r == pytest.approx(base, abs=1e-12)
    assert pearson([-2 * x for x in xs], ys).r == pytest.approx(-base, abs=1e-12)
    assert pearson(ys, xs).r == pytest.approx(base, abs=1e-12)


def test_p_monotone_in_t():
    for dof in (3, 10, 30):
        ps = [student_t_two_tailed(t, dof) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert ps == sorted(ps, reverse=True)


def test_betainc_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1,1) = x
    assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)
    # symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
    v = regularized_incomplete_beta(2.5, 0.5, 0.7)
    assert v == pytest.approx(1 - regularized_incomplete_beta(0.5, 2.5, 0.3), abs=1e-12)


def test_stars_thresholds():
    from runemetrics.eval_stats import _stars
    assert _stars(0.2) == ""
    assert _stars(0.04) == "*"
    assert _stars(0.009) == "**"
    assert _stars(0.0009) == "***"


def test_correlate_table_linear(tmp_path):
    p = tmp_path / "t.tsv"
    lines = ["label\tx\ty"] + [f"c{i}\t{i}\t{2 * i + 1}" for i in range(5)]
    p.write_text("\n".join(lines) + "\n")
    rep = correlate_table(read_table(p), "x", "y")
    assert rep.r == 1.0
    assert rep.dropped == 0


def test_correlate_table_drops_missing(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("label\tx\ty\na\t1\t2\nb\t2\t--\nc\t3\t5\nd\t4\t9\ne\t5\t\n")
    rep = correlate_table(read_table(p), "x", "y")
    assert rep.n == 3
    assert rep.dropped == 2


def test_read_table_strips_header_names_as_it_strips_cells(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("label\trs \t word_acc\na\t 1 \t2\n")
    assert read_table(p) == [{"label": "a", "rs": "1", "word_acc": "2"}]


def test_pearson_rejects_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            pearson([1, bad, 3, 4], [1, 2, 3, 5])
        with pytest.raises(ValueError, match="non-finite"):
            pearson([1, 2, 3, 4], [1, 2, bad, 5])


@pytest.mark.parametrize("k", [-1070, -600, 600, 1020])
def test_pearson_is_exact_under_power_of_two_scaling(k):
    xs, ys = [1.0, -3.5, 2.25, 7.0, 0.5], [2.0, 1.0, -4.0, 3.5, 3.0]
    base = pearson(xs, ys)
    scaled = pearson([math.ldexp(x, k) for x in xs], ys)
    assert (scaled.r, scaled.t_stat, scaled.p_two_tailed) == (base.r, base.t_stat, base.p_two_tailed)


def test_correlate_table_names_a_bad_cell():
    rows = [{"x": "1", "y": "2"}, {"x": "zz", "y": "3"}, {"x": "3", "y": "4"}]
    with pytest.raises(ValueError, match="row 2, column 'x': not a finite number: 'zz'"):
        correlate_table(rows, "x", "y")
