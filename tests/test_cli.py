import errno
import json
import re
import tempfile
import unicodedata
from collections import Counter
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (ADVERSARIAL_PROFILES, ADVERSARIAL_TEXT, HEBREW_RUNE, LATIN, LATIN_RUNE, MARKED_LINE, SPANISH,
                      conllu_block, conllu_token, hypothesis_lines, perturbed, rune_lines, run, word_lines, write)
from oracle import o_diacritize, o_evaluate, o_lines, o_profile, o_report, o_runes, o_sample, o_strip, o_text, o_train
from runemetrics import (BaselineModel, Corpus, CorpusError, SamplingConfig, __version__, diacritize, load_profile,
                         pearson, read_corpus, read_table, strip_text, train)
from runemetrics.cli import main
from runemetrics.script_core import profile_to_doc

FIXTURES = Path(__file__).parent / "fixtures"


def tsv_rows(text):
    lines = [l for l in text.splitlines() if l.strip()]
    header = lines[0].split("\t")
    return [dict(zip(header, l.split("\t"))) for l in lines[1:]]


def test_profile_single_file(tmp_path, capsys):
    path = write(tmp_path, "es.txt", SPANISH + "\n")
    code, out, _ = run(capsys, "profile", path, "--language", "spanish")
    assert code == 0
    rows = tsv_rows(out)
    assert len(rows) == 1
    assert rows[0]["language"] == "spanish"
    assert rows[0]["system"] == "Single"
    assert float(rows[0]["n_runes"]) == 3


def test_profile_and_metrics_print_the_same_density_pct(tmp_path, capsys):
    # 1 mark on 3 letters, where 100.0 * 1 / 3 and 100.0 * (1 / 3) differ in the last digit
    path = write(tmp_path, "c.txt", "áb c\n")
    printed = {}
    for command in ("profile", "metrics"):
        for fmt in ("json", "tsv"):
            code, out, err = run(capsys, command, path, "--format", fmt)
            assert code == 0, err
            printed[command, fmt] = (re.search(r'"density_pct": ([^,]+),', out)[1] if fmt == "json"
                                     else tsv_rows(out)[0]["density_pct"])
    assert printed["profile", "json"] == printed["metrics", "json"] == repr(100.0 * (1 / 3))
    assert printed["profile", "tsv"] == printed["metrics", "tsv"] == "33.333333"


def test_profile_language_average_row(tmp_path, capsys):
    a = write(tmp_path, "fr1.txt", "été givré\n")
    b = write(tmp_path, "fr2.txt", "côté métro\n")
    code, out, _ = run(capsys, "profile", a, b, "--language", "french")
    assert code == 0
    rows = tsv_rows(out)
    assert len(rows) == 3
    assert rows[-1]["corpus"] == "AVG"


def test_metrics_spanish_row(tmp_path, capsys):
    path = write(tmp_path, "es.txt", SPANISH + "\n")
    code, out, _ = run(capsys, "metrics", path)
    assert code == 0
    row = tsv_rows(out)[0]
    assert float(row["density"]) == 0.16
    assert abs(float(row["rs"]) - 0.28) <= 0.01
    assert abs(float(row["dts"]) - 0.15) <= 0.01
    assert abs(float(row["dss"]) - 0.11) <= 0.01
    assert int(row["tokens"]) == 25


def test_metrics_undiacritized_zero_row(tmp_path, capsys):
    path = write(tmp_path, "plain.txt", "plain text only\n")
    _, out, _ = run(capsys, "metrics", path)
    row = tsv_rows(out)[0]
    assert float(row["rs"]) == float(row["dts"]) == float(row["dss"]) == 0.0


def test_metrics_per_rune_breakdown(tmp_path, capsys):
    path = write(tmp_path, "two.txt", "áb\n")
    _, out, _ = run(capsys, "metrics", path, "--per-rune")
    blocks = out.strip().split("\n")
    assert any(l.startswith("corpus\trune") for l in blocks)
    breakdown = [l for l in blocks if "U+" in l]
    assert len(breakdown) == 2
    assert "-0.000000" not in out  # á and b are each their base's only form


def test_metrics_per_rune_text_is_the_folded_rune_whatever_case_comes_first(tmp_path, capsys):
    outs = []
    for line in ("\u00c9cole \u00e9cole", "\u00e9cole \u00c9cole"):
        (tmp_path / line).mkdir()
        outs.append(run(capsys, "metrics", write(tmp_path / line, "c.txt", line + "\n"), "--per-rune")[1])
    assert outs[0] == outs[1]
    per_rune = outs[0][outs[0].index("corpus\trune"):]
    rows = {r["rune"]: r for r in tsv_rows(per_rune)}
    assert (rows["U+0065+U+0301"]["text"], rows["U+0065+U+0301"]["count"]) == ("e\u0301", "2")


def test_metrics_json_format(tmp_path, capsys):
    path = write(tmp_path, "es.txt", SPANISH + "\n")
    _, out, _ = run(capsys, "metrics", path, "--format", "json")
    row = json.loads(out.splitlines()[0])
    assert row["tokens"] == 25


def test_sample_deterministic_bytes(tmp_path, capsys):
    path = write(tmp_path, "c.txt", "".join(f"line{i} abc def\n" for i in range(50)))
    out1, out2 = str(tmp_path / "s1.txt"), str(tmp_path / "s2.txt")
    for out in (out1, out2):
        code = main(["sample", path, "--target-chars", "100", "--seed", "1", "-o", out])
        assert code == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_strip_train_diacritize_evaluate_round_trip(tmp_path, capsys):
    gold = write(tmp_path, "gold.txt", "el niño bebió café\nla mañana es clara\n")
    stripped = str(tmp_path / "stripped.txt")
    model = str(tmp_path / "model.json")
    restored = str(tmp_path / "restored.txt")
    assert main(["strip", gold, "-o", stripped]) == 0
    assert "ñ" not in Path(stripped).read_text()
    assert main(["train", gold, "-o", model]) == 0
    assert main(["diacritize", model, stripped, "-o", restored]) == 0
    code, out, _ = run(capsys, "evaluate", gold, restored)
    assert code == 0
    row = tsv_rows(out)[0]
    assert float(row["word_acc"]) == 100.0
    assert float(row["rune_acc"]) == 100.0


def test_evaluate_gold_vs_gold(tmp_path, capsys):
    gold = write(tmp_path, "gold.txt", SPANISH + "\n")
    code, out, _ = run(capsys, "evaluate", gold, gold)
    assert code == 0
    row = tsv_rows(out)[0]
    assert float(row["word_acc"]) == 100.0
    assert float(row["rune_acc"]) == 100.0
    assert (row["n_words"], row["n_runes"]) == ("7", "25")


def test_correlate_fixture(capsys):
    code, out, _ = run(
        capsys, "correlate", str(FIXTURES / "language_metrics.tsv"),
        "--x", "rs", "--y", "bert_word",
    )
    assert code == 0
    row = tsv_rows(out)[0]
    assert abs(float(row["r"]) + 0.94) <= 0.02
    assert row["stars"] == "***"


def test_correlate_json(capsys):
    code, out, _ = run(
        capsys, "correlate", str(FIXTURES / "language_metrics.tsv"),
        "--x", "dss", "--y", "bert_word", "--format", "json",
    )
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert abs(row["r"] + 0.98) <= 0.02


def _not_json(constant):
    raise ValueError(f"not JSON: {constant}")


@pytest.mark.parametrize("ys, r, t", [((2, 4, 6), 1.0, "inf"), ((6, 4, 2), -1.0, "-inf")],
                         ids=["rising", "falling"])
def test_correlate_of_a_perfect_line_writes_t_as_signed_inf_or_json_null(tmp_path, capsys, ys, r, t):
    table = write(tmp_path, "t.tsv", "x\ty\n" + "".join(f"{x}\t{y}\n" for x, y in zip((1, 2, 3), ys)))
    code, out, err = run(capsys, "correlate", table, "--x", "x", "--y", "y")
    assert (code, err) == (0, "")
    assert tsv_rows(out)[0]["t"] == t
    # JSON has no infinity: strict parsers reject Infinity, so t is null
    code, out, err = run(capsys, "correlate", table, "--x", "x", "--y", "y", "--format", "json")
    assert (code, err) == (0, "")
    row = json.loads(out, parse_constant=_not_json)
    assert (row["r"], row["t"], row["p"]) == (r, None, 0.0)


def test_correlate_tsv_round_trip(tmp_path, capsys):
    # metrics output feeds correlate directly
    paths = []
    for i, marks in enumerate(("á é í", "á b c", "x́ ý ź niño", "plain one á", "é ó ú")):
        paths.append(write(tmp_path, f"c{i}.txt", marks + "\n"))
    table = str(tmp_path / "metrics.tsv")
    assert main(["metrics", *paths, "-o", table]) == 0
    code, out, _ = run(capsys, "correlate", table, "--x", "density", "--y", "rs")
    assert code == 0


def test_conllu_input(tmp_path, capsys):
    conllu = write(tmp_path, "a.conllu", "# text = más allá\n1\tmás\tmás\tX\t_\t_\t0\troot\t_\t_\n2\tallá\tallá\tX\t_\t_\t1\tdep\t_\t_\n\n")
    code, out, _ = run(capsys, "metrics", conllu)
    assert code == 0
    assert int(tsv_rows(out)[0]["tokens"]) == 7


def test_custom_profile_model_loads_without_profile_file(tmp_path, capsys):
    # cantillation denylisted: it is not a mark, so it passes through
    prof = write(tmp_path, "heb.json", json.dumps(
        {"name": "heb-nocant", "mark_denylist": ["U+0591"], "casefold": False}))
    gold = write(tmp_path, "gold.txt", "שָׁלוֹם שָׁלוֹם\nבַּיִת\n")
    model = str(tmp_path / "model.json")
    assert main(["train", gold, "-o", model, "--profile", prof]) == 0
    trained = train(read_corpus(gold, load_profile(prof)))
    Path(prof).unlink()
    code, out, err = run(capsys, "diacritize", model, write(tmp_path, "in.txt", "שלום ביתי\n"))
    assert code == 0, err
    assert out == diacritize(trained, "שלום ביתי\n")
    assert BaselineModel.load(model).profile == trained.profile


def _paths(tmp_path, argv):
    return [str(tmp_path / a) if a.endswith((".txt", ".json", ".tsv")) else a for a in argv]


_REPLAYS = {  # between them, every option of every subcommand; stdout and -o
    "profile-twice-json": ["profile", "c.txt", "c.txt", "--format", "json"],
    "profile-o": ["profile", "c.txt", "-o", "out.tsv"],
    "metrics-per-rune-hebrew": ["metrics", "c.txt", "--per-rune", "--profile", "hebrew"],
    "metrics-profile-file-o": ["metrics", "c.txt", "--per-rune", "--language", "es", "--profile", "p.json",
                               "-o", "out.tsv"],
    "metrics-json-o": ["metrics", "c.txt", "-o", "out.tsv", "--format", "json"],
    "sample-seed": ["sample", "c.txt", "--target-chars", "4", "--seed", "3"],
    "sample-o": ["sample", "abc.txt", "--target-chars", "5", "--seed", "7", "-o", "out.txt"],
    "sample-default-seed-o": ["sample", "c.txt", "--target-chars", "5", "-o", "out.txt"],
    "strip": ["strip", "c.txt"],
    "strip-accent": ["strip", "ab.txt"],
    "strip-o": ["strip", "c.txt", "-o", "out.txt"],
    "train-o": ["train", "c.txt", "-o", "out.json"],
    "train-profile-file-o": ["train", "c.txt", "--profile", "p.json", "-o", "out.json"],
    "diacritize": ["diacritize", "m.json", "c.txt"],
    "diacritize-profile-o": ["diacritize", "m.json", "c.txt", "--profile", "latin-generic", "-o", "out.txt"],
    "diacritize-custom-model": ["diacritize", "custom.json", "c.txt"],
    "evaluate-json": ["evaluate", "c.txt", "c.txt", "--format", "json"],
    "evaluate-spanish": ["evaluate", "gold.txt", "hyp.txt"],
    "correlate-y": ["correlate", "t.tsv", "--x", "x", "--y", "y"],
    "correlate-z-json": ["correlate", "t.tsv", "--x", "x", "--y", "z", "--format", "json"],
}


def _replay(doc, output):
    """The command line a manifest records: its subcommand and inputs, then
    each key as its option (True a bare flag, None and False left out),
    with -o sent to output."""
    argv = [doc["subcommand"], *doc["inputs"]]
    for key, value in doc.items():
        if key in ("subcommand", "inputs", "version", "unicode") or value is None or value is False:
            continue
        flag = "-o" if key == "output" else "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, output if key == "output" else str(value)]
    return argv


def _recorded(capsys, argv, *manifest):
    """stdout, the -o file's bytes (None without -o) and, with --manifest, the manifest of argv."""
    code, out, err = run(capsys, *argv, *manifest)
    assert code == 0, err
    output = argv[argv.index("-o") + 1] if "-o" in argv else None
    if output and manifest:  # the manifest goes beside -o, and nothing to stderr
        assert err == ""
        err = Path(output + ".manifest.json").read_text(encoding="utf-8")
    assert bool(err) == bool(manifest)
    return out, output and Path(output).read_bytes(), manifest and json.loads(err)


@pytest.mark.parametrize("argv", _REPLAYS.values(), ids=_REPLAYS)
def test_a_manifest_replays_its_run(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "c.txt", "el niño bebió café\nla mañana\n")
    write(tmp_path, "abc.txt", "abc def\n")
    write(tmp_path, "ab.txt", "áb\n")
    write(tmp_path, "gold.txt", SPANISH + "\n")
    write(tmp_path, "hyp.txt", SPANISH + "\n")
    write(tmp_path, "t.tsv", "x\ty\tz\n1\t2\t1\n2\t3\t0\n3\t5\t4\n")
    write(tmp_path, "p.json", json.dumps({"name": "my-latin", "casefold": False}))
    assert main(["train", "c.txt", "-o", "m.json"]) == 0
    assert main(["train", "c.txt", "--profile", "p.json", "-o", "custom.json"]) == 0
    out, written, _ = _recorded(capsys, argv)
    *first, doc = _recorded(capsys, argv, "--manifest")
    assert first == [out, written]  # the manifest changes no output
    assert (doc["version"], doc["unicode"]) == (__version__, unicodedata.unidata_version)
    *again, replayed = _recorded(capsys, _replay(doc, f"again-{doc['output']}"), "--manifest")
    assert again == first
    assert replayed == {**doc, "output": replayed["output"]}


@pytest.mark.parametrize("argv, inputs, fields", [
    (["profile", "c.txt", "c.txt", "--format", "json"], ["c.txt", "c.txt"],
     {"profile": "latin-generic", "format": "json", "language": ""}),
    (["profile", "c.txt", "-o", "out.tsv"], ["c.txt"], {"profile": "latin-generic", "format": "tsv", "language": ""}),
    (["metrics", "c.txt", "--per-rune", "--profile", "hebrew"], ["c.txt"],
     {"per_rune": True, "profile": "hebrew", "format": "tsv", "language": ""}),
    (["metrics", "c.txt", "-o", "out.tsv", "--format", "json"], ["c.txt"],
     {"per_rune": False, "profile": "latin-generic", "format": "json", "language": ""}),
    (["sample", "c.txt", "--target-chars", "4", "--seed", "3"], ["c.txt"],
     {"target_chars": 4, "seed": 3, "profile": "latin-generic"}),
    (["sample", "c.txt", "--target-chars", "5", "-o", "out.txt"], ["c.txt"],
     {"target_chars": 5, "seed": 1, "profile": "latin-generic"}),
    (["sample", "c.txt", "--target-chars", "5", "--seed", "7", "-o", "out.txt"], ["c.txt"],
     {"target_chars": 5, "seed": 7, "profile": "latin-generic"}),
    (["strip", "c.txt"], ["c.txt"], {"profile": "latin-generic"}),
    (["strip", "c.txt", "-o", "out.txt"], ["c.txt"], {"profile": "latin-generic"}),
    (["train", "c.txt", "-o", "out.json"], ["c.txt"], {"profile": "latin-generic"}),
    (["diacritize", "m.json", "c.txt"], ["m.json", "c.txt"], {"profile": None}),
    (["diacritize", "m.json", "c.txt", "--profile", "latin-generic", "-o", "out.txt"], ["m.json", "c.txt"],
     {"profile": "latin-generic"}),
    (["evaluate", "c.txt", "c.txt", "--format", "json"], ["c.txt", "c.txt"],
     {"profile": "latin-generic", "format": "json"}),
    (["evaluate", "c.txt", "h.txt"], ["c.txt", "h.txt"], {"profile": "latin-generic", "format": "tsv"}),
    (["correlate", "t.tsv", "--x", "x", "--y", "y"], ["t.tsv"], {"x": "x", "y": "y", "format": "tsv"}),
])
def test_every_command_writes_its_manifest_once_it_succeeds(tmp_path, capsys, argv, inputs, fields):
    # the document is the parsed command line: each option its subcommand takes, and no other
    write(tmp_path, "c.txt", "el niño bebió café\nla mañana\n")
    write(tmp_path, "h.txt", "el niño bebió café\nla mañana\n")
    write(tmp_path, "t.tsv", "x\ty\n1\t2\n2\t3\n3\t5\n")
    assert main(["train", str(tmp_path / "c.txt"), "-o", str(tmp_path / "m.json")]) == 0
    argv = _paths(tmp_path, argv)
    output = argv[argv.index("-o") + 1] if "-o" in argv else None
    code, plain, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    written = output and Path(output).read_bytes()
    code, out, err = run(capsys, *argv, "--manifest")
    assert (code, out) == (0, plain)
    want = {"subcommand": argv[0], "inputs": _paths(tmp_path, inputs), "output": output, "version": __version__,
            "unicode": unicodedata.unidata_version, **fields}
    if output:
        assert err == ""
        assert Path(output).read_bytes() == written
        text = Path(output + ".manifest.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1) + "\n"
    else:
        text = err
        assert text == json.dumps(json.loads(text)) + "\n"
    assert json.loads(text) == want


def test_a_profile_file_is_read_once_per_command(tmp_path, capsys, monkeypatch):
    from runemetrics import script_core

    prof = write(tmp_path, "p.json", json.dumps({"name": "apostrophe", "extra_mark_allowlist": ["U+0027"]}))
    a, b = write(tmp_path, "a.txt", "l'eau\n"), write(tmp_path, "b.txt", "l'ami\n")
    reads = []
    load = script_core.load_profile
    monkeypatch.setattr(script_core, "load_profile", lambda path: reads.append(path) or load(path))
    for argv in (["profile", a, b], ["metrics", a, b, "--per-rune"], ["evaluate", a, a]):
        reads.clear()
        code, _, err = run(capsys, *argv, "--profile", prof)
        assert (code, err, reads) == (0, "", [prof])


def test_correlate_ends_table_lines_at_universal_newlines_alone(tmp_path, capsys):
    plain = write(tmp_path, "t.tsv", "x\ty\n1\t2\n2\t3\n3\t5\n4\t9\n")
    _, want, _ = run(capsys, "correlate", plain, "--x", "x", "--y", "y")
    mixed = tmp_path / "mixed.tsv"
    mixed.write_bytes("\ufeffx\ty\r\n1\t2\r2\t3\r\n3\t5\n4\t9".encode("utf-8"))
    code, out, err = run(capsys, "correlate", str(mixed), "--x", "x", "--y", "y")
    assert (code, out, err) == (0, want, "")


_BOM_CASES = {  # the command line, and the file of it saved with a byte-order mark
    "txt": (["profile", "c.txt"], "c.txt"),
    "conllu": (["profile", "c.conllu"], "c.conllu"),
    "profile": (["profile", "c.txt", "--profile", "p.json"], "p.json"),
    "model": (["diacritize", "m.json", "in.txt"], "m.json"),
    "table": (["correlate", "t.tsv", "--x", "rs", "--y", "word_acc"], "t.tsv"),
    "strip": (["strip", "c.txt"], "c.txt"),
    "sample": (["sample", "c.txt", "--target-chars", "5"], "c.txt"),
    "diacritize": (["diacritize", "m.json", "in.txt"], "in.txt"),
}


@pytest.mark.parametrize("argv, marked", _BOM_CASES.values(), ids=_BOM_CASES)
def test_a_leading_byte_order_mark_is_read_like_none(tmp_path, capsys, monkeypatch, argv, marked):
    printed = []
    for bom in ("", "\ufeff"):
        twin = tmp_path / ("bom" if bom else "plain")  # the same file names, so the same output
        twin.mkdir()
        monkeypatch.chdir(twin)
        write(twin, "c.txt", "el niño bebió café\n")
        write(twin, "c.conllu", "# text = el niño\n" + conllu_token("1", "el") + conllu_token("2", "niño") + "\n")
        write(twin, "p.json", json.dumps({"name": "cased", "casefold": False}))
        write(twin, "in.txt", "el nino bebio cafe\n")
        write(twin, "t.tsv", "rs\tword_acc \n1\t2\n2\t3\n3\t5\n4\t9\n")
        assert main(["train", "c.txt", "-o", "m.json"]) == 0
        (twin / marked).write_text(bom + (twin / marked).read_text(encoding="utf-8"), encoding="utf-8")
        printed.append(run(capsys, *argv))
    assert printed[0][0] == 0 and printed[0][1]
    assert printed[1] == printed[0]


@pytest.mark.parametrize("argv", [
    ["profile", "c.txt"],
    ["metrics", "c.txt", "--per-rune"],
    ["sample", "c.txt", "--target-chars", "30"],
    ["strip", "c.txt"],
    ["diacritize", "m.json", "c.txt"],
], ids=lambda argv: argv[0])
def test_output_to_the_input_file_is_written_after_the_input_is_read(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "c.txt", "el niño bebió café\nla mañana es clara\n")
    assert main(["train", "c.txt", "-o", "m.json"]) == 0
    assert main([*argv, "-o", "elsewhere.txt"]) == 0
    assert main([*argv, "-o", "c.txt"]) == 0
    assert (tmp_path / "c.txt").read_bytes() == (tmp_path / "elsewhere.txt").read_bytes()


def test_correlate_huge_finite_cells(tmp_path, capsys):
    table = write(tmp_path, "t.tsv", "x\ty\n1e308\t1\n-1e308\t-1\n1e308\t0.5\n-1.5e308\t-0.4\n")
    code, out, _ = run(capsys, "correlate", table, "--x", "x", "--y", "y", "--format", "json")
    assert code == 0
    assert json.loads(out)["r"] == pytest.approx(pearson([1, -1, 1, -1.5], [1, -1, 0.5, -0.4]).r, abs=1e-15)


def test_a_line_separator_stays_inside_its_line(tmp_path, capsys):
    path = write(tmp_path, "one.txt", "a\u2028b caf\u00e9\n")
    code, out, _ = run(capsys, "profile", path)
    assert code == 0
    assert tsv_rows(out)[0]["lines_diac_pct"] == "100.000000"
    code, out, _ = run(capsys, "sample", path, "--target-chars", "5")
    assert (code, out) == (0, "a\u2028b cafe\u0301\n")


def test_strip_keeps_a_form_feed_inside_its_line(tmp_path, capsys):
    path = write(tmp_path, "ff.txt", "caf\u00e9\fni\u00f1o\n")
    code, out, _ = run(capsys, "strip", path)
    assert (code, out) == (0, "cafe\fnino\n")


def test_strip_writes_the_per_line_reference_bytes(tmp_path, capsys):
    # CRLF endings, blank lines, and an allowlisted mark of class 0 between marks that NFD orders
    lines = ["a\u0302'\u0591 Ca\u0327fe\u0301", "", "   ", "'ni\u00f1o\u0327", "x\u0301\u2028y\u0302", ""]
    src = tmp_path / "crlf.txt"
    src.write_bytes("\r\n".join(lines).encode("utf-8"))
    prof = write(tmp_path, "p.json", json.dumps({"name": "apostrophe", "extra_mark_allowlist": ["U+0027"],
                                                  "mark_denylist": ["U+0302", "U+0591"]}))
    profile = load_profile(prof)
    want = "".join(o_strip(line, profile) + "\n" for line in lines if line.strip())
    out_path = tmp_path / "stripped.txt"
    assert main(["strip", str(src), "--profile", prof, "-o", str(out_path)]) == 0
    assert out_path.read_bytes() == want.encode("utf-8")
    # an empty corpus writes nothing
    assert main(["strip", write(tmp_path, "blank.txt", "\r\n \n"), "-o", str(out_path)]) == 0
    assert out_path.read_bytes() == b""


_PROFILE_COLUMNS = ["language", "corpus", "density_pct", "multi_pct", "words_diac_pct", "lines_diac_pct",
                    "mean_diacs_per_word", "n_runes", "system"]
_METRIC_COLUMNS = ["language", "corpus", "density", "density_pct", "rs", "dts", "dss", "tokens"]


@pytest.mark.parametrize("argv, tables", [
    (["profile", "a.txt"], [(_PROFILE_COLUMNS, 1)]),
    (["profile", "a.txt", "b.txt", "--language", "es"], [(_PROFILE_COLUMNS, 3)]),
    (["metrics", "a.txt"], [(_METRIC_COLUMNS, 1)]),
    # "el niño" holds the runes e, l, n, i, ñ and o
    (["metrics", "a.txt", "--per-rune"], [(_METRIC_COLUMNS, 1),
                                          (["corpus", "rune", "text", "count", "rs", "dts", "dss"], 6)]),
    (["evaluate", "a.txt", "a.txt"], [(["word_acc", "rune_acc", "n_words", "n_runes"], 1)]),
    (["correlate", "t.tsv", "--x", "x", "--y", "y"], [(["r", "n", "t", "p", "stars", "dropped"], 1)]),
], ids=["profile", "profile-average", "metrics", "metrics-per-rune", "evaluate", "correlate"])
def test_each_report_keeps_its_columns_in_order(tmp_path, capsys, monkeypatch, argv, tables):
    # the columns, and their order, are part of the interface: a TSV header, a JSON row's keys
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "a.txt", "el niño\n")
    write(tmp_path, "b.txt", "côté métro\n")
    write(tmp_path, "t.tsv", "x\ty\n1\t2\n2\t3\n3\t5\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert [list(json.loads(line)) for line in out.splitlines()] == [cols for cols, n in tables for _ in range(n)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    start = 0
    for cols, n in tables:
        assert lines[start].split("\t") == cols
        assert [line.count("\t") for line in lines[start + 1:start + 1 + n]] == [len(cols) - 1] * n
        start += 1 + n
    assert start == len(lines)


# -- refusals ----------------------------------------------------------------
# Each row is one input the contract refuses: its command line, the files it
# adds to the shared ones, its exit status and its stderr, matched whole (by
# re.fullmatch where part of the text is Python's or the OS's).

_SHARED = {  # a good corpus and a good table; the fixture adds a Latin and a Hebrew model of the corpus
    "c.txt": "el niño bebió café\nשָׁלוֹם בַּיִת\n",
    "t.tsv": "x\ty\n1\t2\n2\t3\n3\t5\n",
}
_NOT_UTF8 = b"x\ty\n1\t2\n2\t\xff\n3\t5\n"  # on line 3, at byte offset 10
_BOM_NOT_UTF8 = b'\xef\xbb\xbf{"name": "\xff"}'  # the offset counts the byte-order mark: it is the file's
_MODEL = {"char_map": {"i": "i", "n": "n", "o": "o"}, "format_version": 2,
          "meta": {"profile": {"name": "latin-generic"}}, "word_map": {"nino": "nin\u0303o"}}
_CONLLU_IDS = {  # a document, and the line and ID of its bad token
    "range-1-x": (conllu_token("1-x", "ab") + conllu_token("1", "a") + conllu_token("2", "b"), 1, "1-x"),
    "id-x": (conllu_token("1", "ab") + conllu_token("x", "cd"), 2, "x"),
    "empty-node-2.x": ("# text = ab cd\n" + conllu_token("1", "ab") + conllu_token("2.x", "cd"), 3, "2.x"),
    "range-1-": ("# text = ab\n" + conllu_token("1-", "ab"), 2, "1-"),
    "id-past-the-digit-limit": (conllu_token("1" * 5000, "ab"), 1, "1" * 5000),  # int() refuses it
}


def _model(**fields) -> str:
    """The document of a Latin model trained on "niño", with fields replaced."""
    return json.dumps({**_MODEL, **fields})


def _malformed(path, kind, error, prefix="") -> str:
    """The stderr of a profile or model document that does not load."""
    return f"runemetrics: {prefix}{path}: malformed {kind} document ({error})\n"


def _usage(error):
    """argparse's stderr: its usage lines, which Python versions wrap differently, then error."""
    return re.compile(r"usage: runemetrics .*\nrunemetrics: error: " + re.escape(error) + "\n", re.S)


def _unreadable(given, label):
    """The stderr of a row label that a TSV cell does not read back as itself."""
    return f"runemetrics: {given}: {label!r} does not read back from a TSV cell as itself, so it cannot label a row\n"


def _dashes(option):
    """The stderr of --option=--, refused as argparse refuses --option --; Python 3.13's argparse
    takes "--" as the value, so an int or a choice fails in its own words there."""
    return re.compile(r"(runemetrics|usage: .*\nrunemetrics \w+: error): "
                      rf"argument --{option}: (expected one argument|invalid .*)\n", re.S)


def _errno(code, path, prefix=""):
    """The stderr of an OSError of errno code on path, in the OS's own words."""
    return re.compile(re.escape(f"runemetrics: {prefix}[Errno {code}] ") + ".*" + re.escape(f": {path!r}\n"))


_NO_WORDS = "corpus contains no words\n"
_NOT_TRAINABLE = "cannot train on a corpus with no words\n"
_AT_BYTE_10 = "line 3: invalid UTF-8 at byte offset 10\n"
_ALTERED = "hypothesis altered base text\n"

_REFUSALS = {
    "profile-missing-file": (["profile", "nope.txt"], {}, 2, _errno(errno.ENOENT, "nope.txt")),
    "profile-missing-file-o": (["profile", "nope.txt", "-o", "out.tsv"], {}, 2, _errno(errno.ENOENT, "nope.txt")),
    "profile-input-under-a-file": (["profile", "c.txt/x"], {}, 2, _errno(errno.ENOTDIR, "c.txt/x")),
    "profile-name-too-long": (["profile", "n" * 300 + ".txt"], {}, 2, _errno(errno.ENAMETOOLONG, "n" * 300 + ".txt")),
    "profile-empty-file-after-a-good-one": (["profile", "c.txt", "nowords.txt"], {"nowords.txt": ""}, 1,
                                            "runemetrics: nowords.txt: " + _NO_WORDS),
    "profile-digits-and-punctuation": (["profile", "c.txt", "nowords.txt"], {"nowords.txt": "123 ...\n"}, 1,
                                       "runemetrics: nowords.txt: " + _NO_WORDS),
    "profile-punctuation-alone-o": (["profile", "p.txt", "-o", "out.tsv"], {"p.txt": "..."}, 1,
                                    "runemetrics: p.txt: " + _NO_WORDS),
    "profile-bad-utf8-mid-line": (["profile", "bad.txt"], {"bad.txt": b"abc\xff\xfedef"}, 2,
                                  "runemetrics: bad.txt: line 1: invalid UTF-8 at byte offset 3\n"),
    "profile-bad-utf8-in-the-2nd-input": (["profile", "c.txt", "bad.txt"], {"bad.txt": _NOT_UTF8}, 2,
                                          "runemetrics: bad.txt: " + _AT_BYTE_10),
    "profile-profile-bad-utf8": (["profile", "c.txt", "--profile", "p.json"], {"p.json": _BOM_NOT_UTF8}, 2,
                                 "runemetrics: bad profile: p.json: line 1: invalid UTF-8 at byte offset 13\n"),
    "profile-profile-without-a-name": (["profile", "c.txt", "--profile", "p.json"], {"p.json": "{}"}, 2,
                                       _malformed("p.json", "profile", "KeyError: 'name'", "bad profile: ")),
    "profile-profile-a-list": (["profile", "c.txt", "--profile", "p.json"], {"p.json": "[1]"}, 2,
                               _malformed("p.json", "profile", "ValueError: a profile document is a JSON object",
                                          "bad profile: ")),
    # read as the allowlist {U, +, 0, 1, 3}, as casefolding, or, misspelt, not at all, these once gave a wrong row
    "profile-profile-allowlist-a-string": (
        ["profile", "t.txt", "--profile", "p.json"],
        {"t.txt": "aU b\n", "p.json": '{"name": "p", "extra_mark_allowlist": "U+0301"}'}, 2,
        _malformed("p.json", "profile", "ValueError: extra_mark_allowlist is not a list of strings: 'U+0301'",
                   "bad profile: ")),
    "profile-profile-casefold-a-string": (
        ["profile", "t.txt", "--profile", "p.json"],
        {"t.txt": "aU b\n", "p.json": '{"name": "p", "casefold": "false"}'}, 2,
        _malformed("p.json", "profile", "ValueError: casefold is not true or false: 'false'", "bad profile: ")),
    "profile-profile-field-misspelt": (
        ["profile", "t.txt", "--profile", "p.json"],
        {"t.txt": "aU b\n", "p.json": '{"name": "p", "mark_denylst": ["U+0301"]}'}, 2,
        _malformed("p.json", "profile", "ValueError: unknown profile field 'mark_denylst'", "bad profile: ")),
    "profile-profile-nested-past-the-recursion-limit": (
        ["profile", "c.txt", "--profile", "p.json"], {"p.json": '{"name": ' + "[" * 100_000}, 2,
        re.compile(r"runemetrics: bad profile: p\.json: malformed profile document \(RecursionError: .*\)\n")),
    # a label is output text, so a lone surrogate (a byte of another encoding on the command line) is refused
    "profile-language-not-utf8": (["profile", "c.txt", "--language", "\udcff"], {}, 2,
                                  "runemetrics: --language: '\\udcff' is not UTF-8, so it cannot label a row\n"),
    "profile-language-not-utf8-o": (["profile", "c.txt", "--language", "\udcff", "-o", "out.tsv"], {}, 2,
                                    "runemetrics: --language: '\\udcff' is not UTF-8, so it cannot label a row\n"),
    "profile-file-name-not-utf8": (
        ["profile", "\udcff.txt"], {"\udcff.txt": "el niño\n"}, 2,
        "runemetrics: file name '\\udcff.txt': '\\udcff' is not UTF-8, so it cannot label a row\n"),
    # a tab or line end in a label would split its row; read_table strips padding and reads "--" as missing
    **{f"profile-language-{name}{o}": (["profile", "c.txt", "c.txt", "--language", label, *o.split()], {}, 2,
                                       _unreadable("--language", label))
       for name, label in (("tab", "a\tb"), ("lf", "a\nb"), ("cr", "a\rb")) for o in ("", " -o out.tsv")},
    **{f"metrics-file-name-{name}{o}": (["metrics", "c.txt", path, *o.split()], {path: "el niño\n"}, 2,
                                        _unreadable(f"file name {path!r}", Path(path).stem))
       for name, path, outputs in (("tab", "a\tb.txt", ("", " -o m.tsv")), ("dashes", "./--.txt", ("",)),
                                   ("padded", " a.txt", ("",)), ("padded-at-its-end", "a .txt", ("",)))
       for o in outputs},
    # argparse before 3.13 reads --opt=-- as an empty list, which once reached a command
    **{f"{argv[0]}-{option}-dashes": ([*argv, f"--{option}=--"], {}, 2,
                                      f"runemetrics: argument --{option}: expected one argument\n")
       for argv, option in ((["profile", "c.txt"], "language"), (["correlate", "t.tsv", "--y", "y"], "x"),
                            (["strip", "c.txt"], "profile"), (["strip", "c.txt"], "output"))},
    **{f"{argv[0]}-{option}-dashes": ([*argv, f"--{option}=--"], {}, 2, _dashes(option))
       for argv, option in ((["profile", "c.txt"], "format"), (["sample", "c.txt"], "seed"),
                            (["sample", "c.txt"], "target-chars"))},
    "profile-profile-allowlists-a-surrogate": (
        ["profile", "c.txt", "--profile", "p.json"], {"p.json": '{"name": "s", "extra_mark_allowlist": ["U+D800"]}'},
        2, _malformed("p.json", "profile", "ValueError: not a character but a surrogate: 'U+D800'", "bad profile: ")),

    "metrics-blank-file": (["metrics", "empty.txt"], {"empty.txt": "\n"}, 1, "runemetrics: empty.txt: empty corpus\n"),
    "metrics-empty-file-after-a-good-one": (["metrics", "c.txt", "nowords.txt"], {"nowords.txt": ""}, 1,
                                            "runemetrics: nowords.txt: empty corpus\n"),
    "metrics-digits-and-punctuation": (["metrics", "c.txt", "nowords.txt"], {"nowords.txt": "123 ...\n"}, 1,
                                       "runemetrics: nowords.txt: empty corpus\n"),
    "metrics-bad-utf8-in-the-2nd-input": (["metrics", "c.txt", "bad.txt"], {"bad.txt": _NOT_UTF8}, 2,
                                          "runemetrics: bad.txt: " + _AT_BYTE_10),
    "metrics-file-name-not-utf8": (
        ["metrics", "\udcff.txt"], {"\udcff.txt": "el niño\n"}, 2,
        "runemetrics: file name '\\udcff.txt': '\\udcff' is not UTF-8, so it cannot label a row\n"),
    "metrics-file-name-not-utf8-o": (
        ["metrics", "\udcff.txt", "-o", "m.tsv"], {"\udcff.txt": "el niño\n"}, 2,
        "runemetrics: file name '\\udcff.txt': '\\udcff' is not UTF-8, so it cannot label a row\n"),
    "metrics-language-not-utf8": (["metrics", "c.txt", "--language", "\udcff"], {}, 2,
                                  "runemetrics: --language: '\\udcff' is not UTF-8, so it cannot label a row\n"),
    "metrics-profile-not-named-o": (["metrics", "c.txt", "--profile", "bad.json", "-o", "out.tsv"],
                                    {"bad.json": '{"name": 3}'}, 2,
                                    _malformed("bad.json", "profile", "ValueError: profile name is not a string: 3",
                                               "bad profile: ")),
    # the second casefold would otherwise fold "É" into "é"
    "metrics-profile-repeats-a-key": (
        ["metrics", "e.txt", "--profile", "p.json"],
        {"e.txt": "Éa ea\n", "p.json": '{"name": "cased", "casefold": false, "casefold": true}'}, 2,
        _malformed("p.json", "profile", "ValueError: repeated key 'casefold'", "bad profile: ")),

    "sample-empty-file": (["sample", "e.txt", "--target-chars", "5"], {"e.txt": ""}, 2,
                          "runemetrics: e.txt: cannot sample an empty corpus\n"),
    "sample-digits-and-punctuation": (["sample", "e.txt", "--target-chars", "5"], {"e.txt": "123 ... 45!\n"}, 2,
                                      "runemetrics: e.txt: unsampleable corpus: zero runes\n"),
    "sample-lines-without-letters-o": (["sample", "e.txt", "--target-chars", "5", "-o", "out.txt"],
                                       {"e.txt": "..!\n123\n"}, 2,
                                       "runemetrics: e.txt: unsampleable corpus: zero runes\n"),
    "sample-target-chars-zero": (["sample", "c.txt", "--target-chars", "0"], {}, 2,
                                 "runemetrics: --target-chars must be positive, got 0\n"),
    "sample-target-chars-negative-o": (["sample", "c.txt", "--target-chars", "-5", "-o", "out.txt"], {}, 2,
                                       "runemetrics: --target-chars must be positive, got -5\n"),
    "sample-profile-not-named-o": (["sample", "c.txt", "--profile", "bad.json", "-o", "out.txt"],
                                   {"bad.json": '{"name": 3}'}, 2,
                                   _malformed("bad.json", "profile", "ValueError: profile name is not a string: 3",
                                              "bad profile: ")),
    "sample-bad-utf8": (["sample", "bad.txt"], {"bad.txt": _NOT_UTF8}, 2, "runemetrics: bad.txt: " + _AT_BYTE_10),
    "sample-format": (["sample", "c.txt", "--format", "json"], {}, 2, _usage("unrecognized arguments: --format json")),
    "sample-language": (["sample", "c.txt", "--language", "xx"], {}, 2,
                        _usage("unrecognized arguments: --language xx")),

    "strip-missing-file": (["strip", "nope.txt"], {}, 2, _errno(errno.ENOENT, "nope.txt")),
    "strip-output-under-a-file": (["strip", "c.txt", "-o", "c.txt/out"], {}, 2, _errno(errno.ENOTDIR, "c.txt/out")),
    "strip-bad-utf8": (["strip", "bad.txt"], {"bad.txt": _NOT_UTF8}, 2, "runemetrics: bad.txt: " + _AT_BYTE_10),
    "strip-bad-utf8-in-cr-lines": (["strip", "cr.txt"], {"cr.txt": _NOT_UTF8.replace(b"\n", b"\r")}, 2,
                                   "runemetrics: cr.txt: " + _AT_BYTE_10),
    "strip-conllu-line-of-three-columns-o": (
        ["strip", "a.conllu", "-o", "out.txt"], {"a.conllu": "1\tonly\tthree\n"}, 2,
        "runemetrics: a.conllu: line 1: expected 10 tab-separated columns, got 3\n"),
    "strip-format": (["strip", "c.txt", "--format", "json"], {}, 2, _usage("unrecognized arguments: --format json")),
    "strip-language": (["strip", "c.txt", "--language", "xx"], {}, 2, _usage("unrecognized arguments: --language xx")),

    "train-blank-file-o": (["train", "blank.txt", "-o", "out.json"], {"blank.txt": " \n"}, 1,
                           "runemetrics: blank.txt: " + _NOT_TRAINABLE),
    "train-empty-file-o": (["train", "nowords.txt", "-o", "out.json"], {"nowords.txt": ""}, 1,
                           "runemetrics: nowords.txt: " + _NOT_TRAINABLE),
    "train-digits-and-punctuation-o": (["train", "nowords.txt", "-o", "out.json"], {"nowords.txt": "123 ...\n"}, 1,
                                       "runemetrics: nowords.txt: " + _NOT_TRAINABLE),
    "train-bad-utf8-o": (["train", "bad.txt", "-o", "out.json"], {"bad.txt": _NOT_UTF8}, 2,
                         "runemetrics: bad.txt: " + _AT_BYTE_10),
    "train-format-o": (["train", "c.txt", "-o", "out.json", "--format", "json"], {}, 2,
                       _usage("unrecognized arguments: --format json")),
    "train-language-o": (["train", "c.txt", "-o", "out.json", "--language", "xx"], {}, 2,
                         _usage("unrecognized arguments: --language xx")),

    "diacritize-profile-mismatch": (["diacritize", "he.json", "c.txt", "--profile", "latin-generic"], {}, 2,
                                    "runemetrics: --profile latin-generic does not match the model's profile hebrew\n"),
    "diacritize-missing-profile-file": (["diacritize", "he.json", "c.txt", "--profile", "missing.json"], {}, 2,
                                        _errno(errno.ENOENT, "missing.json", prefix="bad profile: ")),
    "diacritize-input-bad-utf8": (["diacritize", "m.json", "bad.txt"], {"bad.txt": _NOT_UTF8}, 2,
                                  "runemetrics: bad.txt: " + _AT_BYTE_10),
    "diacritize-model-bad-utf8": (["diacritize", "bad.json", "c.txt"], {"bad.json": _BOM_NOT_UTF8}, 2,
                                  "runemetrics: bad.json: line 1: invalid UTF-8 at byte offset 13\n"),
    "diacritize-model-of-no-version-o": (["diacritize", "bad.json", "c.txt", "-o", "out.txt"],
                                         {"bad.json": '{"name": 3}'}, 1,
                                         _malformed("bad.json", "model",
                                                    "ValueError: unsupported model format_version: None")),
    "diacritize-model-of-version-99": (
        ["diacritize", "bad.json", "c.txt"],
        {"bad.json": '{"format_version": 99, "meta": {}, "word_map": {}, "char_map": {}}'}, 1,
        _malformed("bad.json", "model", "ValueError: unsupported model format_version: 99")),
    "diacritize-model-not-json": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": "nojson"}, 1,
        _malformed("bad.json", "model", "JSONDecodeError: Expecting value: line 1 column 1 (char 0)")),
    "diacritize-model-a-list": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": "[1]"}, 1,
        _malformed("bad.json", "model", "AttributeError: 'list' object has no attribute 'get'")),
    "diacritize-model-without-a-profile": (
        ["diacritize", "bad.json", "c.txt"],
        {"bad.json": '{"format_version": 2, "meta": {}, "word_map": {}, "char_map": {}}'}, 1,
        _malformed("bad.json", "model", "KeyError: 'profile'")),
    "diacritize-model-profile-a-name": (
        ["diacritize", "bad.json", "c.txt"],
        {"bad.json": '{"format_version": 2, "meta": {"profile": "hebrew"}, "word_map": {}, "char_map": {}}'}, 1,
        _malformed("bad.json", "model", "ValueError: a profile document is a JSON object")),
    "diacritize-model-v1-without-a-word-map": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": '{"format_version": 1, "meta": {}, "char_map": {}}'}, 1,
        _malformed("bad.json", "model", "KeyError: 'word_map'")),
    # the name is looked up among the builtin profiles, never opened as a path; a list is no name
    "diacritize-model-v1-names-a-file": (
        ["diacritize", "v1.json", "c.txt"],
        {"nosuch": '{"name": "latin-generic"}', "v1.json": _model(format_version=1, meta={"profile": "nosuch"})}, 1,
        _malformed("v1.json", "model", "ValueError: format 1 names no builtin profile: 'nosuch'")),
    "diacritize-model-v1-names-a-list": (
        ["diacritize", "v1.json", "c.txt"],
        {"nosuch": '{"name": "latin-generic"}', "v1.json": _model(format_version=1, meta={"profile": ["nosuch"]})}, 1,
        _malformed("v1.json", "model", "TypeError: unhashable type: 'list'")),
    "diacritize-model-profile-lists-overlap": (
        ["diacritize", "bad.json", "c.txt"],
        {"bad.json": _model(meta={"profile": {"name": "latin-generic", "extra_mark_allowlist": ["U+0301"],
                                              "mark_denylist": ["U+0301"]}})}, 1,
        _malformed("bad.json", "model", "ValueError: allowlist and denylist overlap: ['\u0301']")),
    "diacritize-model-profile-allowlists-a-space": (
        ["diacritize", "bad.json", "c.txt"],
        {"bad.json": _model(meta={"profile": {"name": "latin-generic", "extra_mark_allowlist": ["U+0020"]}})}, 1,
        _malformed("bad.json", "model", "ValueError: allowlist holds whitespace, which must end words")),
    "diacritize-model-repeats-a-word-map-key": (
        ["diacritize", "bad.json", "c.txt"],
        {"bad.json": '{"char_map": {}, "format_version": 2, "meta": {"profile": {"name": "latin-generic"}}, '
                     '"word_map": {"nino": "nin\\u0303o", "nino": "nino"}}'}, 1,
        _malformed("bad.json", "model", "ValueError: repeated key 'nino'")),
    "diacritize-model-word-map-a-list": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(word_map=[["nino", "nin\u0303o"]])}, 1,
        _malformed("bad.json", "model", "ValueError: word_map is not an object of string -> string")),
    "diacritize-model-word-map-value-a-number": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(word_map={"nino": 7})}, 1,
        _malformed("bad.json", "model", "ValueError: word_map is not an object of string -> string")),
    "diacritize-model-char-map-a-string": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(char_map="n")}, 1,
        _malformed("bad.json", "model", "ValueError: char_map is not an object of string -> string")),
    "diacritize-model-char-map-rune-of-another-letter": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(char_map={"n": "m\u0303"})}, 1,
        _malformed("bad.json", "model", "ValueError: char_map['n'] does not spell its key: 'm\u0303'")),
    "diacritize-model-word-map-form-of-another-word": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(word_map={"nino": "cafe\u0301"})}, 1,
        _malformed("bad.json", "model", "ValueError: word_map['nino'] does not spell its key: 'cafe\u0301'")),
    "diacritize-model-char-map-text-after-the-rune": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(char_map={"n": "nXYZ "})}, 1,
        _malformed("bad.json", "model", "ValueError: char_map['n'] does not spell its key: 'nXYZ '")),
    "diacritize-model-word-map-a-letter-too-many": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(word_map={"nino": "ninox"})}, 1,
        _malformed("bad.json", "model", "ValueError: word_map['nino'] does not spell its key: 'ninox'")),
    "diacritize-model-char-map-key-of-two-letters": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(char_map={"ab": "ab"})}, 1,
        _malformed("bad.json", "model", "ValueError: char_map['ab'] does not spell its key: 'ab'")),
    "diacritize-model-char-map-empty-key": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(char_map={"": ""})}, 1,
        _malformed("bad.json", "model", "ValueError: char_map[''] does not spell its key: ''")),
    "diacritize-model-word-map-value-without-a-letter": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(word_map={"": "123 ..."})}, 1,
        _malformed("bad.json", "model", "ValueError: word_map[''] does not spell its key: '123 ...'")),
    # a value is letters and their marks alone: an unassigned character, punctuation and an orphan mark are
    # refused though its letters spell its key; U+0378 is unassigned in every Unicode version up to 15.1
    **{f"diacritize-model-word-map-value-{name}": (
        ["diacritize", "bad.json", "c.txt"], {"bad.json": _model(word_map={"ab": value})}, 1,
        _malformed("bad.json", "model", f"ValueError: word_map['ab'] is not letters and their marks: {value!r}"))
       for name, value in (("unassigned", "a\u0378b"), ("punctuated", "a.b"), ("orphan-mark", "\u0301ab"))},
    "diacritize-model-nested-past-the-recursion-limit-o": (
        ["diacritize", "bad.json", "c.txt", "-o", "out.txt"], {"bad.json": "[" * 100_000}, 1,
        re.compile(r"runemetrics: bad\.json: malformed model document \(RecursionError: .*\)\n")),
    # its word_map form "nin\ud800o" would be written for "niño", which no UTF-8 file can hold
    "diacritize-model-allowlists-a-surrogate-o": (
        ["diacritize", "bad.json", "c.txt", "-o", "out.txt"],
        {"bad.json": _model(meta={"profile": {"name": "s", "extra_mark_allowlist": ["U+D800"]}},
                            word_map={"nino": "nin\ud800o"})}, 1,
        _malformed("bad.json", "model", "ValueError: not a character but a surrogate: 'U+D800'")),
    "diacritize-format": (["diacritize", "m.json", "c.txt", "--format", "json"], {}, 2,
                          _usage("unrecognized arguments: --format json")),
    "diacritize-language": (["diacritize", "m.json", "c.txt", "--language", "xx"], {}, 2,
                            _usage("unrecognized arguments: --language xx")),

    "evaluate-line-count-mismatch": (
        ["evaluate", "g.txt", "h.txt"], {"g.txt": "el niño\nla mañana\n", "h.txt": "el niño\n"}, 1,
        "runemetrics: g.txt: line count mismatch: gold has 2, hypothesis 1\n"),
    "evaluate-base-letter-differs": (
        ["evaluate", "g.txt", "h.txt"], {"g.txt": "el niño\n", "h.txt": "el nido\n"}, 1,
        "runemetrics: g.txt: line 1, rune 5: base letter differs ('n' vs 'd'); " + _ALTERED),
    "evaluate-base-letter-differs-on-line-2": (
        ["evaluate", "g.txt", "h.txt"], {"g.txt": "ok\nab\n", "h.txt": "ok\nax\n"}, 1,
        "runemetrics: g.txt: line 2, rune 2: base letter differs ('b' vs 'x'); " + _ALTERED),
    # a file's lines are counted past its blank lines, and end at universal newlines alone
    "evaluate-base-letter-differs-past-a-blank-line": (
        ["evaluate", "g.txt", "h.txt"], {"g.txt": "x\n\ná b\né c\n", "h.txt": "x\n\ná b\né d\n"}, 1,
        "runemetrics: g.txt: line 4, rune 2: base letter differs ('c' vs 'd'); " + _ALTERED),
    "evaluate-rune-count-differs-past-a-blank-line": (
        ["evaluate", "g.txt", "h.txt"], {"g.txt": "x\n\ná b\né c\n", "h.txt": "x\n\ná b\né cd\n"}, 1,
        "runemetrics: g.txt: line 4: rune count differs (2 vs 3)\n"),
    "evaluate-words-differ-past-a-blank-line": (
        ["evaluate", "g.txt", "h.txt"], {"g.txt": "x\n\ná b\né c\n", "h.txt": "x\n\ná b\néc\n"}, 1,
        "runemetrics: g.txt: line 4: word tokenization differs\n"),
    "evaluate-blank-line-on-one-side": (
        ["evaluate", "g.txt", "h.txt"], {"g.txt": "x\n\ná\n", "h.txt": "x\nb\n"}, 1,
        "runemetrics: g.txt: gold line 3, hypothesis line 2, rune 1: base letter differs ('a' vs 'b'); " + _ALTERED),
    "evaluate-form-feed-is-no-line-end": (
        ["evaluate", "g.txt", "h.txt"], {"g.txt": "ab\fcd\nef\n", "h.txt": "ab\fcd\neg\n"}, 1,
        "runemetrics: g.txt: line 2, rune 2: base letter differs ('f' vs 'g'); " + _ALTERED),
    # a line dropped, a rune added or dropped, tokens merged or split, and a base changed, alone or
    # before a split
    **{f"evaluate-{name}": (["evaluate", "g.txt", "h.txt"], {"g.txt": "el niño bebió café\nla mañana\nes clara\n",
                                                           "h.txt": hyp}, 1, f"runemetrics: g.txt: {error}\n")
       for name, hyp, error in (
           ("line-dropped", "el nino bebio cafe\nla manana\n", "line count mismatch: gold has 3, hypothesis 2"),
           ("rune-added", "el nino bebio cafe\nla manana\nes clara y\n", "line 3: rune count differs (7 vs 8)"),
           ("tokens-merged", "el nino bebiocafe\nla manana\nes clara\n", "line 1: word tokenization differs"),
           ("base-letter-differs-on-line-3", "el nino bebio cafe\nla manana\nes clarq\n",
            "line 3, rune 7: base letter differs ('a' vs 'q'); hypothesis altered base text"),
           ("rune-dropped", "el nino bebio caf\nla manana\nes clara\n", "line 1: rune count differs (15 vs 14)"),
           ("token-split", "el nino bebio cafe\nla man ana\nes clara\n", "line 2: word tokenization differs"),
           ("base-letter-differs-before-the-split", "el nino bebio cafe\nla man anq\nes clara\n",
            "line 2, rune 8: base letter differs ('a' vs 'q'); hypothesis altered base text"))},
    # blank lines and punctuation hold no word: there is nothing to score
    "evaluate-no-words-empty": (["evaluate", "g.txt", "h.txt"], {"g.txt": "", "h.txt": ""}, 1,
                                "runemetrics: g.txt: no words to score\n"),
    "evaluate-no-words-blank-lines": (["evaluate", "g.txt", "h.txt"], {"g.txt": "\n\n", "h.txt": "\n\n"}, 1,
                                      "runemetrics: g.txt: no words to score\n"),
    "evaluate-no-words-punctuation": (["evaluate", "g.txt", "h.txt"], {"g.txt": "... !\n", "h.txt": "... !\n"}, 1,
                                      "runemetrics: g.txt: no words to score\n"),
    "evaluate-gold-bad-utf8": (["evaluate", "bad.txt", "c.txt"], {"bad.txt": _NOT_UTF8}, 2,
                               "runemetrics: bad.txt: " + _AT_BYTE_10),
    "evaluate-hypothesis-bad-utf8": (["evaluate", "c.txt", "bad.txt"], {"bad.txt": _NOT_UTF8}, 2,
                                     "runemetrics: bad.txt: " + _AT_BYTE_10),
    "evaluate-language": (["evaluate", "c.txt", "c.txt", "--language", "xx"], {}, 2,
                          _usage("unrecognized arguments: --language xx")),

    "correlate-missing-column": (["correlate", "t.tsv", "--x", "x", "--y", "z"], {}, 1,
                                 "runemetrics: t.tsv: line 2: no column 'z' (columns: x, y)\n"),
    "correlate-missing-column-of-a-labelled-table": (
        ["correlate", "l.tsv", "--x", "x", "--y", "nope"], {"l.tsv": "label\tx\ny\t1\n"}, 1,
        "runemetrics: l.tsv: line 2: no column 'nope' (columns: label, x)\n"),
    **{f"correlate-cell-{cell}": (
        ["correlate", "c.tsv", "--x", "x", "--y", "y"],
        {"c.tsv": f"label\tx\ty\na\t1\t2\nb\t{cell}\t3\nc\t3\t5\nd\t4\t9\n"}, 1,
        f"runemetrics: c.tsv: line 3, column 'x': not a finite number: '{cell}'\n")
       for cell in ("nan", "inf", "-Infinity", "1e999", "zz")},
    "correlate-cell-nan-past-a-blank-line": (
        ["correlate", "c.tsv", "--x", "x", "--y", "y"], {"c.tsv": "label\tx\ty\na\t1\t2\n\nb\t2\tnan\nc\t3\t5\n"}, 1,
        "runemetrics: c.tsv: line 4, column 'y': not a finite number: 'nan'\n"),
    "correlate-2-usable-rows": (
        ["correlate", "f.tsv", "--x", "x", "--y", "y"], {"f.tsv": "x\ty\n1\t2\n--\t3\n3\t5\n"}, 1,
        "runemetrics: f.tsv: fewer than 3 usable rows for 'x' vs 'y' (2 after dropping 1)\n"),
    "correlate-1-usable-row": (
        ["correlate", "f.tsv", "--x", "x", "--y", "y"],
        {"f.tsv": "label\tx\ty\na\t1\t2\nb\t2\t--\nc\t3\t--\nd\t4\t--\n"}, 1,
        "runemetrics: f.tsv: fewer than 3 usable rows for 'x' vs 'y' (1 after dropping 3)\n"),
    "correlate-repeated-column-name": (
        ["correlate", "d.tsv", "--x", "x", "--y", "y"], {"d.tsv": "x\tx\ty\n1\t2\t3\n2\t3\t5\n3\t1\t4\n"}, 1,
        "runemetrics: d.tsv: line 1: repeated column name 'x'\n"),
    "correlate-column-name-repeated-after-stripping": (
        ["correlate", "d.tsv", "--x", "x", "--y", "y"], {"d.tsv": "x\tx \ty\n1\t2\t3\n"}, 1,
        "runemetrics: d.tsv: line 1: repeated column name 'x'\n"),
    "correlate-row-of-too-few-cells": (
        ["correlate", "r.tsv", "--x", "x", "--y", "y"], {"r.tsv": "label\tx\ty\na\t1\t2\n\nc\t3\nd\t4\t9\n"}, 1,
        "runemetrics: r.tsv: line 4: expected 3 tab-separated cells, got 2\n"),
    "correlate-row-of-too-many-cells": (
        ["correlate", "r.tsv", "--x", "x", "--y", "y"], {"r.tsv": "label\tx\ty\na\t1\t2\n\nc\t3\t5\t7\nd\t4\t9\n"}, 1,
        "runemetrics: r.tsv: line 4: expected 3 tab-separated cells, got 4\n"),
    # a form feed does not end a line: the row has one cell too many
    "correlate-form-feed-is-no-line-end": (
        ["correlate", "ff.tsv", "--x", "x", "--y", "y"], {"ff.tsv": "x\ty\n1\t2\f3\t5\n"}, 1,
        "runemetrics: ff.tsv: line 2: expected 2 tab-separated cells, got 3\n"),
    "correlate-bad-utf8": (["correlate", "bad.tsv", "--x", "x", "--y", "y"], {"bad.tsv": _NOT_UTF8}, 2,
                           "runemetrics: bad.tsv: " + _AT_BYTE_10),
    "correlate-language": (["correlate", "t.tsv", "--x", "a", "--y", "b", "--language", "xx"], {}, 2,
                           _usage("unrecognized arguments: --language xx")),
    "correlate-profile": (["correlate", "t.tsv", "--x", "a", "--y", "b", "--profile", "hebrew"], {}, 2,
                          _usage("unrecognized arguments: --profile hebrew")),

    # a read error keeps its own message and exit status, naming the file once, in every command that reads CoNLL-U
    **{f"{command}-conllu-{name}": (
        [command, "a.conllu", *(["-o", "out.json"] if command == "train" else [])], {"a.conllu": doc}, 2,
        f"runemetrics: a.conllu: line {line}: token ID {tid!r} is not N, N-M or N.M\n")
       for command in ("profile", "metrics", "strip", "train") for name, (doc, line, tid) in _CONLLU_IDS.items()},
}


@pytest.fixture(scope="module")
def shared_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("shared")
    for name, text in _SHARED.items():
        write(d, name, text)
    assert main(["train", str(d / "c.txt"), "-o", str(d / "m.json")]) == 0
    assert main(["train", str(d / "c.txt"), "--profile", "hebrew", "-o", str(d / "he.json")]) == 0
    return {p.name: p.read_bytes() for p in d.iterdir()}


@pytest.mark.parametrize("argv, files, status, stderr", _REFUSALS.values(), ids=_REFUSALS)
def test_a_refused_input_exits_naming_it_and_writes_nothing(tmp_path, capsys, monkeypatch, shared_files,
                                                           argv, files, status, stderr):
    monkeypatch.chdir(tmp_path)
    for name, content in {**shared_files, **files}.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    try:
        code = main([*argv, "--manifest"])
    except SystemExit as e:  # argparse's refusal
        code = e.code
    out, err = capsys.readouterr()
    assert (code, out) == (status, "")
    assert re.fullmatch(stderr, err) if isinstance(stderr, re.Pattern) else err == stderr
    # no -o file, manifest or other file left behind
    assert {p.name for p in tmp_path.iterdir()} == {Path(name).name for name in {**shared_files, **files}}


# -- the contract over generated file sets -------------------------------------
# All eight commands run through main on files written as bytes with drawn
# defects.  Each prints what the oracle computes from the same bytes, or
# refuses where the oracle does: exit 1 or 2, no stdout, no -o file or
# manifest left, and one stderr line naming a file or option of its command.

def _one_in(n):
    """True once in n draws, and False where hypothesis starts and shrinks."""
    return st.sampled_from([False] * (n - 1) + [True])


class _Refused(Exception):
    """The oracle's word that a command refuses its input."""


_REFUSED_MODELS = [files[argv[1]] for argv, files, _, _ in _REFUSALS.values()
                   if argv[0] == "diacritize" and argv[1] in files]


class _Case(NamedTuple):
    files: dict  # name -> bytes: c.txt or c.conllu, in.txt, h.txt, t.tsv, and d.json unless the model is trained
    which: int  # the ADVERSARIAL_PROFILES entry that p.json holds
    target: int = 5
    seed: int = 1
    language: str = ""
    to_file: bool = False  # -o, else stdout, for each command that takes either
    fmt: str = "tsv"  # profile's and metrics' --format


def _plain(lines, which=0, text="", end="\n", **options):
    """A case of clean files: the corpus lines, its own hypothesis, a trained model and text to restore."""
    corpus = "".join(line + end for line in lines).encode("utf-8")
    files = {"c.txt": corpus, "h.txt": corpus, "in.txt": text.encode("utf-8"), "t.tsv": _SHARED["t.tsv"].encode()}
    return _Case(files, which, **options)


@st.composite
def _file(draw, lines, inline=True):
    """lines as a file's bytes: LF, CRLF or CR line ends, the last one
    perhaps missing, perhaps a byte-order mark, and seldom an invalid byte;
    with inline, perhaps one of U+0085, U+2028, a form feed or NUL in a line."""
    lines = list(lines)
    if inline and lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.sampled_from(("\x85", "\u2028", "\f", "\x00"))) + lines[i][j:]
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = draw(st.sampled_from(("", "\ufeff"))) + end.join(lines) + draw(st.sampled_from((end, "")))
    data = text.encode("utf-8", "surrogatepass")  # a lone surrogate is 3 bytes of no UTF-8
    if draw(_one_in(10)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def _file_sets(draw):
    which = draw(st.integers(0, len(ADVERSARIAL_PROFILES) - 1))
    profile = ADVERSARIAL_PROFILES[which]
    lines = draw(st.one_of(word_lines(), rune_lines(LATIN_RUNE), rune_lines(HEBREW_RUNE),
                           st.lists(st.one_of(MARKED_LINE, ADVERSARIAL_TEXT), min_size=1, max_size=6)))
    files = {}
    if draw(_one_in(5)):  # blocks, each ended by a blank line
        files["c.conllu"] = draw(_file([line for block in draw(st.lists(conllu_block(), max_size=4))
                                        for line in (*block, "")], inline=False))
    else:
        files["c.txt"] = draw(_file(lines))
    files["h.txt"] = draw(_file(draw(st.one_of(hypothesis_lines(lines, profile), perturbed(lines, profile))),
                                inline=False))
    # stripped corpus words (word-map hits, in any case) and adversarial text
    words = [strip_text(word, profile) for line in lines for word in line.split()]
    piece = st.one_of(ADVERSARIAL_TEXT, *[st.sampled_from(words), st.sampled_from(words).map(str.upper)] * bool(words))
    files["in.txt"] = draw(_file(draw(st.lists(st.lists(piece, max_size=6).map(" ".join), max_size=3))))
    cell = st.sampled_from(("1", "2", "3", "-4", "5.5", "0", "1e3", "-0.25", "--", "", "nan", "zz"))
    table = ["x\ty", *draw(st.lists(st.tuples(cell, cell).map("\t".join), min_size=3, max_size=6))]
    if draw(_one_in(10)):
        table.append(draw(cell))  # a row of one cell
    files["t.tsv"] = draw(_file(table, inline=False))
    if draw(_one_in(3)):  # else the model is trained from the corpus
        model = draw(st.sampled_from([_model(), *_REFUSED_MODELS]))
        files["d.json"] = model if isinstance(model, bytes) else model.encode()
    target = draw(st.integers(-1, 0) if draw(_one_in(10)) else st.integers(1, 300))
    # a label no UTF-8 output holds, or that a TSV cell would not read back as itself
    refused = st.sampled_from(("\udcff", "a\tb", "a\nb", "a\rb", " es", "es ", "--"))
    language = draw(refused if draw(_one_in(3)) else st.sampled_from(("", "es", "")))
    return _Case(files, which, target, draw(st.integers(0, 2**64 - 1)), language, draw(st.booleans()),
                 draw(st.sampled_from(("tsv", "json"))))


def _tsv(*rows):
    """Rows of one report as TSV: their header, then their values, floats to 6 decimals."""
    lines = [rows[0], *((f"{v:.6f}" if isinstance(v, float) else str(v) for v in row.values()) for row in rows)]
    return "".join("\t".join(line) + "\n" for line in lines)


def _printed(out, fmt, tables=(0,)):
    """A report's output as TSV, once it reads back as printed: in TSV each
    of its tables, which start at the line indices in tables, through
    read_table; in JSON each line through json.loads."""
    lines = out.splitlines(keepends=True)
    if fmt == "json":
        rows = [json.loads(line) for line in lines]
        assert [json.dumps(row, ensure_ascii=False) + "\n" for row in rows] == lines
        return "".join(_tsv(*group) for _, group in groupby(rows, key=list))
    for start, end in zip(tables, (*tables[1:], None)):
        Path("back.tsv").write_bytes("".join(lines[start:end]).encode())
        head, *cells = (line.rstrip("\n").split("\t") for line in lines[start:end])
        assert read_table("back.tsv") == [dict(zip(head, row)) for row in cells]
    return out


def _metrics_rows(out):
    """metrics --per-rune output as its row's figures, and each rune key with its count."""
    head, row, _, *per_rune = (line.split("\t") for line in out.splitlines())
    return [{k: v if k in ("language", "corpus") else float(v) for k, v in zip(head, row)},
            [(rune, int(count)) for _, rune, _, count, *_ in per_rune]]


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_file_sets())
# train: a modal form; ties, which go to the smaller spelling: "ab" before "áb", and "a'b" before
# "ab'", though as rune tuples (a)(b') sorts first; marked words over three lines
@example(case=_plain(["ni\u00f1o ni\u00f1o nino ab \u00e1b"]))
@example(case=_plain(["a'b a'b ab' ab'"], which=2))
@example(case=_plain([SPANISH, "ni\u00f1o beb\u00e9 caf\u00e9", "ma\u00f1ana s\u00f3lo aqu\u00ed"]))
# diacritize: the per-letter fallback where each base always carries one mark; unmarked words; an unseen
# script; a word of other case; no text; punctuation around a word
@example(case=_plain(["\u00e1b\u00e1 c\u00e9c\u00e9"], text="aceb aba"))
@example(case=_plain([SPANISH], text="lbea amlilnacbo abba meomebf nmielncncalf fflaeaineaoc fmcfbflablf oamnclmeab"))
@example(case=_plain(["solo latino aqu\u00ed"], text="\u03a8\u03c5\u03c7\u03ae 123 \u2026"))
@example(case=_plain(["m\u00e9xico m\u00e9xico"], text="Mexico"))
@example(case=_plain(["abc"], text=""))
@example(case=_plain(["caf\u00e9"], text='"cafe," dijo.'))
# em and en quads, which decompose
@example(case=_plain(["ca\u0301fe"], text="cafe\u2000cafe\u2001x"))
# strip: an allowlisted mark of class 0 between denylisted marks and a blank line; blank CRLF lines alone
@example(case=_plain(["a\u0302'\u0591\u0301", "", "'b\u0327\u0301"], which=2))
@example(case=_plain(["", " "], end="\r\n"))
# sample, profile and metrics: a letter the profile reads as a mark, four times over one rune
@example(case=_plain(["a\u02bb\u02bb\u02bb\u02bb", "b c"], which=2, target=5))
@example(case=_plain([SPANISH]))
# a label that no UTF-8 output can hold, to -o and to stdout; one that would split its row, in JSON;
# --language=--, refused before a corpus without words is read; rows in JSON
@example(case=_plain([SPANISH], language="\udcff", to_file=True))
@example(case=_plain([SPANISH], language="\udcff"))
@example(case=_plain([SPANISH], language="a\tb", fmt="json"))
@example(case=_plain([""], language="--"))
@example(case=_plain([SPANISH], language="es", fmt="json", to_file=True))
def test_every_command_prints_the_oracles_output_or_refuses_naming_its_input(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    profile = ADVERSARIAL_PROFILES[case.which]
    for name, data in {**case.files, "p.json": json.dumps(profile_to_doc(profile)).encode()}.items():
        Path(name).write_bytes(data)
    c = next(name for name in case.files if name.startswith("c."))
    model, model_profile = ("d.json", LATIN) if "d.json" in case.files else ("m.json", profile)

    def corpus(name):
        return Corpus(o_lines(Path(name).read_bytes(), name), profile)

    def labelled(report):
        label = case.language
        if any("\ud800" <= ch <= "\udfff" for ch in label):
            raise _Refused  # a lone surrogate, which no UTF-8 output holds
        if label != label.strip() or {"\t", "\n", "\r"} & set(label):
            raise _Refused  # a TSV cell reads it back stripped or split; "--" is refused before any read
        return {"language": case.language or "c", "corpus": "c", **report}

    def metrics():
        tokens = o_runes(corpus(c))
        if not tokens:
            raise ValueError("empty corpus")
        density, rs, dts, dss = o_report(tokens)
        row = labelled({"density": density, "density_pct": 100.0 * density, "rs": rs, "dts": dts, "dss": dss,
                        "tokens": len(tokens)})
        counts = [("+".join(f"U+{ord(ch):04X}" for ch in (r.base, *r.marks)), n) for r, n in Counter(tokens).items()]
        return [pytest.approx(row, abs=1e-6), sorted(counts, key=lambda kv: (-kv[1], kv[0]))]

    def sampled():
        if case.target <= 0:
            raise _Refused
        picked = o_sample(corpus(c), SamplingConfig(case.target, case.seed))
        return "".join(unicodedata.normalize("NFD", text) + "\n" for _, text in picked)

    def restored():
        if not Path(model).exists() or model == "d.json" and case.files[model] != _model().encode():
            raise _Refused  # training failed, or a model of the refusal table
        if model_profile != profile:
            raise _Refused  # --profile p.json is not the model's profile
        out = o_diacritize(json.loads(Path(model).read_bytes()), profile, o_text(Path("in.txt").read_bytes()))
        return out + "\n" if out and not out.endswith(("\n", "\r")) else out

    row_options = [f"--language={case.language}"] * bool(case.language) + ["--format", case.fmt]
    runs = {  # each command's arguments, its oracle, and how to read what it prints
        "train": ([c, "-o", "m.json"], lambda: o_train(corpus(c)),
                  lambda out: (json.loads(out)["word_map"], json.loads(out)["char_map"])),
        "profile": ([c, *row_options], lambda: _tsv(labelled(o_profile(corpus(c)).as_dict())),
                    lambda out: _printed(out, case.fmt)),
        "metrics": ([c, "--per-rune", *row_options], metrics,
                    lambda out: _metrics_rows(_printed(out, case.fmt, tables=(0, 2)))),
        "strip": ([c], lambda: "".join(o_strip(text, profile) + "\n" for _, text in corpus(c).texts), str),
        "sample": ([c, "--target-chars", str(case.target), "--seed", str(case.seed)], sampled, str),
        "diacritize": ([model, "in.txt"], restored, str),
        "evaluate": ([c, "h.txt"], lambda: _tsv(o_evaluate(corpus(c), corpus("h.txt")).as_dict()), str),
        "correlate": (["t.tsv", "--x", "x", "--y", "y"], lambda: None, lambda out: None),  # the contract alone
    }
    for command, (args, oracle, parse) in runs.items():
        argv = [command, *args, *(["--profile", "p.json"] if command != "correlate" else []), "--manifest"]
        if case.to_file and command not in ("train", "evaluate", "correlate"):
            argv += ["-o", f"{command}.out"]
        try:
            if any(a.endswith("=--") for a in args):
                raise _Refused  # as argparse refuses --opt --, before any input is read
            want = oracle()
        except (ValueError, _Refused) as e:  # a UnicodeDecodeError is a ValueError
            want = e
        code, out, err = run(capsys, *argv)
        output = argv[argv.index("-o") + 1] if "-o" in argv else None
        if code == 0:
            assert parse(Path(output).read_bytes().decode() if output else out) == want, argv
            continue
        assert (code in (1, 2), out, want is None or isinstance(want, Exception)) == (True, "", True), (argv, err)
        assert not output or not (Path(output).exists() or Path(output + ".manifest.json").exists())
        named = [a.partition("=")[0] for a in argv[1:] if "." in a or a.startswith("--") and a != "--manifest"]
        assert err.startswith("runemetrics: ") and err.count("\n") == 1 and any(a in err for a in named), err
        if type(want) in (ValueError, CorpusError):  # a computation's refusal names the first input
            assert (code, err) == (2 if type(want) is CorpusError else 1, f"runemetrics: {argv[1]}: {want}\n")
