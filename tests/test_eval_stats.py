import math
import random

import pytest

from conftest import LATIN, SPANISH
from oracle import o_evaluate, o_t_two_tailed
from runemetrics import (
    Corpus,
    correlate_table,
    evaluate,
    pearson,
    read_table,
    regularized_incomplete_beta,
    strip_text,
    student_t_two_tailed,
)


def corpus_of(*lines):
    return Corpus.from_lines(list(lines), LATIN)


def test_evaluate_identity(spanish_corpus):
    rep = evaluate(spanish_corpus, spanish_corpus)
    assert rep.word_accuracy == 100.0
    assert rep.rune_accuracy == 100.0
    assert rep.n_runes == 25
    assert rep.n_words == 7


def test_evaluate_stripped_spanish(spanish_corpus):
    hyp = corpus_of(strip_text(SPANISH, LATIN))
    rep = evaluate(spanish_corpus, hyp)
    assert rep.rune_accuracy == pytest.approx(100 * 21 / 25)
    assert rep.word_accuracy == pytest.approx(100 * 3 / 7)


def test_evaluate_single_word():
    rep = evaluate(corpus_of("niño"), corpus_of("nino"))
    assert rep.word_accuracy == 0.0
    assert rep.rune_accuracy == 75.0


def test_evaluate_case_and_encoding_insensitive():
    # precomposed vs decomposed vs case variants all compare equal
    rep = evaluate(corpus_of("Café"), corpus_of("café"))
    assert rep.word_accuracy == 100.0


def test_evaluate_line_count_mismatch():
    with pytest.raises(ValueError, match="line count"):
        evaluate(corpus_of("a", "b"), corpus_of("a"))


def test_evaluate_base_mismatch_located():
    with pytest.raises(ValueError, match="line 2, rune 2"):
        evaluate(corpus_of("ok", "ab"), corpus_of("ok", "ax"))


def test_evaluate_errors_give_file_lines_past_blank_lines():
    gold = corpus_of("x", "", "á b", "é c")
    with pytest.raises(ValueError, match="line 4, rune 2"):
        evaluate(gold, corpus_of("x", "", "á b", "é d"))
    with pytest.raises(ValueError, match="line 4: rune count"):
        evaluate(gold, corpus_of("x", "", "á b", "é cd"))
    with pytest.raises(ValueError, match="line 4: word tokenization"):
        evaluate(gold, corpus_of("x", "", "á b", "éc"))
    # a blank line on one side only: each side's own line is named
    with pytest.raises(ValueError, match="gold line 3, hypothesis line 2, rune 1"):
        evaluate(corpus_of("x", "", "á"), corpus_of("x", "b"))


@pytest.mark.parametrize("lines", [[], [""], ["...", "¿ !"]])
def test_evaluate_of_no_words_raises_like_the_reference(lines):
    for scorer in (evaluate, o_evaluate):
        with pytest.raises(ValueError, match="no words to score"):
            scorer(corpus_of(*lines), corpus_of(*lines))


def test_rune_100_implies_word_100():
    rng = random.Random(21)
    for _ in range(30):
        words = [" ".join("abc"[: rng.randint(1, 3)] for _ in range(rng.randint(1, 6)))]
        gold = corpus_of(*words)
        rep = evaluate(gold, gold)
        if rep.rune_accuracy == 100.0:
            assert rep.word_accuracy == 100.0


def test_pearson_perfect_lines():
    assert pearson([1, 2, 3], [2, 4, 6]).r == 1.0
    assert pearson([1, 2, 3], [2, 4, 6]).p_two_tailed == 0.0
    assert pearson([1, 2, 3, 4], [4, 3, 2, 1]).r == -1.0


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


@pytest.mark.parametrize("dof", [1, 2, 5, 10, 30])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0])
def test_p_against_numerical_integration(dof, t):
    assert student_t_two_tailed(t, dof) == pytest.approx(o_t_two_tailed(t, dof), abs=1e-6)


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


def test_correlate_table_too_few_rows(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("label\tx\ty\na\t1\t2\nb\t2\t--\nc\t3\t--\nd\t4\t--\n")
    with pytest.raises(ValueError, match="fewer than 3"):
        correlate_table(read_table(p), "x", "y")


def test_correlate_table_missing_column(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("label\tx\ny\t1\n")
    with pytest.raises(ValueError):
        correlate_table(read_table(p), "x", "nope")


@pytest.mark.parametrize("row, got", [("c\t3", 2), ("c\t3\t5\t7", 4)])
def test_read_table_ragged_row_located(tmp_path, row, got):
    p = tmp_path / "t.tsv"
    p.write_text(f"label\tx\ty\na\t1\t2\n\n{row}\nd\t4\t9\n")
    with pytest.raises(ValueError, match=f"t.tsv: line 4: expected 3 tab-separated cells, got {got}"):
        read_table(p)


def test_read_table_rejects_a_repeated_column_name(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("x\tx\ty\n1\t2\t3\n2\t3\t5\n3\t1\t4\n")
    with pytest.raises(ValueError, match="t.tsv: line 1: repeated column name 'x'"):
        read_table(p)


def test_read_table_reads_past_a_byte_order_mark(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_bytes("\ufefflang\trs\tword_acc\nxx\t1.5\t90\n".encode("utf-8"))
    assert read_table(p) == [{"lang": "xx", "rs": "1.5", "word_acc": "90"}]


def test_read_table_strips_header_names_as_it_strips_cells(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("label\trs \t word_acc\na\t 1 \t2\n")
    assert read_table(p) == [{"label": "a", "rs": "1", "word_acc": "2"}]


def test_read_table_finds_a_name_repeated_after_stripping(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("x\tx \ty\n1\t2\t3\n")
    with pytest.raises(ValueError, match="t.tsv: line 1: repeated column name 'x'"):
        read_table(p)


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


def test_correlate_table_names_a_bad_cell(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("label\tx\ty\na\t1\t2\n\nb\t2\tnan\nc\t3\t5\n")
    with pytest.raises(ValueError, match="^line 4, column 'y': not a finite number: 'nan'$"):  # the CLI names the file
        correlate_table(read_table(p), "x", "y")
    rows = [{"x": "1", "y": "2"}, {"x": "zz", "y": "3"}, {"x": "3", "y": "4"}]
    with pytest.raises(ValueError, match="row 2, column 'x': not a finite number: 'zz'"):
        correlate_table(rows, "x", "y")
