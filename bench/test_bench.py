"""The benchmark's own tests: deterministic inputs, live reference checks,
and metric names that match BENCHMARK.json.

The checks are exercised on real CLI outputs for small generated corpora,
then on deliberately corrupted copies of those outputs.
"""

import json
import math
import unicodedata
from pathlib import Path

import pytest

import gen
import reference
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_generator_is_byte_identical_per_seed(tmp_path):
    a = gen.generate("restore", 5, tmp_path / "a")
    b = gen.generate("restore", 5, tmp_path / "b")
    gen.generate("restore", 6, tmp_path / "c")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["train.txt"] != _files(tmp_path / "c")["train.txt"]


@pytest.mark.parametrize("latin", [True, False])
def test_generator_record_matches_reference_recount(tmp_path, latin):
    rng = gen.substream(9, "test")
    vocab = gen.latin_vocabulary(rng, 400, 0.1) if latin else gen.hebrew_vocabulary(rng, 300)
    path = tmp_path / "text.txt"
    stats = gen.write_text(path, rng, vocab, gen.zipf_cumulative(len(vocab), 1.0), 100_000, latin)
    ref = reference.Recount(path.read_text(encoding="utf-8"), reference.Tokens())
    assert stats.as_dict() == {"lines": ref.lines + ref.blank_lines, "blank_lines": ref.blank_lines,
                               "words": ref.words, "runes": ref.runes, "marks": ref.marks,
                               "orphan_marks": ref.orphan_marks}
    if latin:
        assert stats.blank_lines and stats.orphan_marks
        assert 0.04 < stats.marks / stats.runes < 0.12


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Small corpora, and what the real CLI writes for each benchmark command."""
    d = tmp_path_factory.mktemp("cli")
    rng = gen.substream(3, "test")
    latin = gen.latin_vocabulary(rng, 500, 0.1)
    gen.write_text(d / "source.txt", rng, latin, gen.zipf_cumulative(len(latin), 1.0), 8_000, latin=True)
    heb = gen.hebrew_vocabulary(rng, 300)
    cum = gen.zipf_cumulative(len(heb), 1.0)
    gen.write_text(d / "train.txt", rng, heb, cum, 6_000, latin=False)
    gen.write_text(d / "gold.txt", rng, heb, cum, 2_000, latin=False)
    gen.write_language_table(d / "table.tsv", rng)

    def cli(*argv):
        res = run.run_cli(argv, d, 60.0)
        assert res.code == 0, res.stderr
        return res.stdout

    h = ("--profile", "hebrew")
    out = {
        "sample": cli("sample", "source.txt", "--target-chars", "3000", "--seed", "4", "-o", "sample.txt"),
        "profile": cli("profile", "sample.txt", "--format", "json"),
        "metrics": cli("metrics", "sample.txt", "--per-rune", "--format", "json"),
        "correlate": cli("correlate", "table.tsv", "--x", "rs", "--y", "word_acc", "--format", "json"),
        "strip": cli("strip", "gold.txt", *h, "-o", "stripped.txt"),
        "train": cli("train", "train.txt", *h, "-o", "model.json"),
        "diacritize": cli("diacritize", "model.json", "stripped.txt", *h, "-o", "restored.txt"),
    }
    out["evaluate"] = cli("evaluate", "gold.txt", "restored.txt", *h, "--format", "json")
    text = {p.name: p.read_text(encoding="utf-8") for p in d.iterdir() if p.suffix in (".txt", ".tsv", ".json")}
    return out, text


def _perturb(stdout: str, key: str, factor: float, row: int = 0) -> str:
    rows = [json.loads(line) for line in stdout.splitlines()]
    rows[row][key] *= factor
    return "\n".join(json.dumps(r) for r in rows) + "\n"


def test_sample_check_is_live(outputs):
    _, t = outputs
    tokens = reference.Tokens()
    assert reference.check_sample(t["sample.txt"], t["source.txt"], 3000, 4, tokens) == []
    lines = t["sample.txt"].splitlines()
    for dropped in (0, len(lines) // 2, len(lines) - 1):
        bad = "".join(line + "\n" for i, line in enumerate(lines) if i != dropped)
        assert reference.check_sample(bad, t["source.txt"], 3000, 4, tokens)


def test_metrics_check_is_live(outputs):
    out, t = outputs
    ref = reference.Recount(t["sample.txt"], reference.Tokens())
    assert reference.check_metrics(out["metrics"], ref) == []
    for key in ("density", "rs", "dts", "dss"):
        assert reference.check_metrics(_perturb(out["metrics"], key, 1 + 1e-6), ref)
    assert reference.check_metrics(_perturb(out["metrics"], "count", 2, row=1), ref)


def test_profile_check_is_live(outputs):
    out, t = outputs
    ref = reference.Recount(t["sample.txt"], reference.Tokens())
    assert reference.check_profile(out["profile"], ref) == []
    for key in ("words_diac_pct", "lines_diac_pct", "multi_pct"):
        assert reference.check_profile(_perturb(out["profile"], key, 1 + 1e-6), ref)


def test_correlate_check_is_live(outputs):
    out, t = outputs
    assert reference.check_correlate(out["correlate"], t["table.tsv"], "rs", "word_acc") == []
    assert reference.check_correlate(_perturb(out["correlate"], "r", 1 + 1e-11), t["table.tsv"], "rs", "word_acc")


def test_strip_and_model_checks_are_live(outputs):
    _, t = outputs
    assert reference.check_strip(t["stripped.txt"], t["gold.txt"]) == []
    assert reference.check_strip(t["stripped.txt"].replace(" ", "ַ ", 1), t["gold.txt"])
    assert reference.check_model(t["model.json"]) == []
    assert reference.check_model(t["model.json"][:-10])


def test_diacritize_check_is_live(outputs):
    _, t = outputs
    assert reference.check_diacritize(t["restored.txt"], t["stripped.txt"]) == []
    letter = next(ch for ch in t["restored.txt"] if unicodedata.category(ch) == "Lo")
    other = "א" if letter != "א" else "ב"
    assert reference.check_diacritize(t["restored.txt"].replace(letter, other, 1), t["stripped.txt"])


def test_evaluate_check_is_live(outputs):
    out, t = outputs
    tokens = reference.Tokens()
    assert reference.check_evaluate(out["evaluate"], t["gold.txt"], t["restored.txt"], tokens) == []
    # flip one mark on a rune the restorer got right
    gold, hyp = unicodedata.normalize("NFD", t["gold.txt"]), t["restored.txt"]
    i = next(i for i, (g, h) in enumerate(zip(gold, hyp)) if g == h and g == "ָ")
    flipped = hyp[:i] + "ַ" + hyp[i + 1:]
    assert reference.check_evaluate(out["evaluate"], t["gold.txt"], flipped, tokens)


def test_self_time_subtracts_children():
    tr = tracing.Tracer("w")
    tr.spans = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0, "counts": {}},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0, "counts": {}},
        {"name": "c", "parent": 0, "start": 5.0, "end": 6.0, "counts": {}},
        {"name": "d", "parent": 1, "start": 2.0, "end": 3.0, "counts": {}},
    ]
    assert [math.isclose(a, b) for a, b in zip(tr.self_times(), [6.0, 2.0, 1.0, 1.0])] == [True] * 4


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.LAYER_UNITS
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    # a failed traced pass still reports every per-layer metric
    assert set(tracing.layer_metrics([], 0.0, {}, {})) == set(tracing.LAYER_UNITS)
