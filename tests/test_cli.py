import json
from pathlib import Path

import pytest

from conftest import SPANISH
from oracle import o_strip
from runemetrics import BaselineModel, __version__, diacritize, load_profile, pearson, read_corpus, train
from runemetrics.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def tsv_rows(text):
    lines = [l for l in text.splitlines() if l.strip()]
    header = lines[0].split("\t")
    return [dict(zip(header, l.split("\t"))) for l in lines[1:]]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_profile_single_file(tmp_path, capsys):
    path = write(tmp_path, "es.txt", SPANISH + "\n")
    code, out, _ = run(capsys, "profile", path, "--language", "spanish")
    assert code == 0
    rows = tsv_rows(out)
    assert len(rows) == 1
    assert rows[0]["language"] == "spanish"
    assert rows[0]["system"] == "Single"
    assert float(rows[0]["n_runes"]) == 3


def test_profile_language_average_row(tmp_path, capsys):
    a = write(tmp_path, "fr1.txt", "été givré\n")
    b = write(tmp_path, "fr2.txt", "côté métro\n")
    code, out, _ = run(capsys, "profile", a, b, "--language", "french")
    assert code == 0
    rows = tsv_rows(out)
    assert len(rows) == 3
    assert rows[-1]["corpus"] == "AVG"


def test_profile_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "profile", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "nope.txt" in err


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


def test_metrics_per_rune_text_is_the_folded_rune_whatever_case_comes_first(tmp_path, capsys):
    outs = []
    for line in ("\u00c9cole \u00e9cole", "\u00e9cole \u00c9cole"):
        (tmp_path / line).mkdir()
        outs.append(run(capsys, "metrics", write(tmp_path / line, "c.txt", line + "\n"), "--per-rune")[1])
    assert outs[0] == outs[1]
    per_rune = outs[0][outs[0].index("corpus\trune"):]
    rows = {r["rune"]: r for r in tsv_rows(per_rune)}
    assert (rows["U+0065+U+0301"]["text"], rows["U+0065+U+0301"]["count"]) == ("e\u0301", "2")


def test_metrics_empty_corpus_fails(tmp_path, capsys):
    path = write(tmp_path, "empty.txt", "\n")
    code, _, err = run(capsys, "metrics", path)
    assert code == 1
    assert "empty" in err


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


def test_sample_resamples_small_corpus(tmp_path):
    path = write(tmp_path, "c.txt", "abcdefghij\n")
    out = str(tmp_path / "s.txt")
    assert main(["sample", path, "--target-chars", "100", "--seed", "2", "-o", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 10  # resampled to reach the target


@pytest.mark.parametrize("text, message", [
    ("", "cannot sample an empty corpus"),
    ("123 ... 45!\n", "unsampleable corpus: zero runes"),
], ids=["empty", "digits-and-punctuation"])
def test_sample_of_a_file_without_letters_exits_2_naming_it(tmp_path, capsys, text, message):
    path = write(tmp_path, "c.txt", text)
    code, out, err = run(capsys, "sample", path, "--target-chars", "5")
    assert (code, out, err) == (2, "", f"runemetrics: {path}: {message}\n")


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


def test_evaluate_line_count_mismatch_names_the_gold_file(tmp_path, capsys):
    gold, hyp = write(tmp_path, "gold.txt", "el niño\nla mañana\n"), write(tmp_path, "hyp.txt", "el niño\n")
    code, out, err = run(capsys, "evaluate", gold, hyp)
    assert (code, out, err) == (1, "", f"runemetrics: {gold}: line count mismatch: gold has 2, hypothesis 1\n")


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


def test_correlate_tsv_round_trip(tmp_path, capsys):
    # metrics output feeds correlate directly
    paths = []
    for i, marks in enumerate(("á é í", "á b c", "x́ ý ź niño", "plain one á", "é ó ú")):
        paths.append(write(tmp_path, f"c{i}.txt", marks + "\n"))
    table = str(tmp_path / "metrics.tsv")
    assert main(["metrics", *paths, "-o", table]) == 0
    code, out, _ = run(capsys, "correlate", table, "--x", "density", "--y", "rs")
    assert code == 0


def test_manifest_written(tmp_path):
    path = write(tmp_path, "c.txt", "abc def\n")
    out = str(tmp_path / "s.txt")
    assert main(["sample", path, "--target-chars", "5", "--seed", "7", "-o", out, "--manifest"]) == 0
    doc = json.loads(Path(out + ".manifest.json").read_text())
    assert doc["subcommand"] == "sample"
    assert doc["seed"] == 7
    assert doc["profile"] == "latin-generic"


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


def test_manifest_lists_evaluate_inputs(tmp_path, capsys):
    gold = write(tmp_path, "gold.txt", SPANISH + "\n")
    hyp = write(tmp_path, "hyp.txt", SPANISH + "\n")
    _, plain, _ = run(capsys, "evaluate", gold, hyp)
    code, out, err = run(capsys, "evaluate", gold, hyp, "--manifest")
    assert code == 0
    assert out == plain
    assert json.loads(err)["inputs"] == [gold, hyp]


@pytest.mark.parametrize("argv", [
    ("sample", "c.txt", "--format", "json"),
    ("strip", "c.txt", "--format", "json"),
    ("train", "c.txt", "-o", "m.json", "--format", "json"),
    ("diacritize", "m.json", "c.txt", "--format", "json"),
    ("strip", "c.txt", "--language", "xx"),
    ("sample", "c.txt", "--language", "xx"),
    ("train", "c.txt", "-o", "m.json", "--language", "xx"),
    ("diacritize", "m.json", "c.txt", "--language", "xx"),
    ("evaluate", "c.txt", "c.txt", "--language", "xx"),
    ("correlate", "t.tsv", "--x", "a", "--y", "b", "--language", "xx"),
])
def test_options_only_where_read(tmp_path, capsys, argv):
    write(tmp_path, "c.txt", "áb\n")
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / a) if a.endswith((".txt", ".json", ".tsv")) else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_manifest_format_is_null_without_the_option(tmp_path, capsys):
    path = write(tmp_path, "c.txt", "áb\n")
    code, out, err = run(capsys, "strip", path, "--manifest")
    assert code == 0
    assert out == "ab\n"
    assert json.loads(err)["format"] is None


def _paths(tmp_path, argv):
    return [str(tmp_path / a) if a.endswith((".txt", ".json", ".tsv")) else a for a in argv]


@pytest.mark.parametrize("argv, inputs, fields", [
    (["profile", "c.txt", "c.txt", "--format", "json"], ["c.txt", "c.txt"], {"format": "json"}),
    (["profile", "c.txt", "-o", "out.tsv"], ["c.txt"], {"format": "tsv"}),
    (["metrics", "c.txt", "--per-rune", "--profile", "hebrew"], ["c.txt"], {"profile": "hebrew", "format": "tsv"}),
    (["metrics", "c.txt", "-o", "out.tsv", "--format", "json"], ["c.txt"], {"format": "json"}),
    (["sample", "c.txt", "--target-chars", "4", "--seed", "3"], ["c.txt"],
     {"format": None, "seed": 3, "target_chars": 4}),
    (["sample", "c.txt", "--target-chars", "5", "-o", "out.txt"], ["c.txt"],
     {"format": None, "seed": 1, "target_chars": 5}),
    (["strip", "c.txt"], ["c.txt"], {"format": None}),
    (["strip", "c.txt", "-o", "out.txt"], ["c.txt"], {"format": None}),
    (["train", "c.txt", "-o", "out.json"], ["c.txt"], {"format": None}),
    (["diacritize", "m.json", "c.txt"], ["m.json", "c.txt"], {"format": None}),
    (["diacritize", "m.json", "c.txt", "--profile", "latin-generic", "-o", "out.txt"], ["m.json", "c.txt"],
     {"format": None}),
    (["evaluate", "c.txt", "c.txt", "--format", "json"], ["c.txt", "c.txt"], {"format": "json"}),
    (["correlate", "t.tsv", "--x", "x", "--y", "y"], ["t.tsv"], {"profile": None, "format": "tsv"}),
])
def test_every_command_writes_its_manifest_once_it_succeeds(tmp_path, capsys, argv, inputs, fields):
    # the documents below are those the code wrote when each command wrote its own manifest
    write(tmp_path, "c.txt", "el niño bebió café\nla mañana\n")
    write(tmp_path, "t.tsv", "x\ty\n1\t2\n2\t3\n3\t5\n")
    assert main(["train", str(tmp_path / "c.txt"), "-o", str(tmp_path / "m.json")]) == 0
    argv = _paths(tmp_path, argv)
    output = argv[argv.index("-o") + 1] if "-o" in argv else None
    code, plain, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    written = output and Path(output).read_bytes()
    code, out, err = run(capsys, *argv, "--manifest")
    assert (code, out) == (0, plain)
    want = {"subcommand": argv[0], "inputs": _paths(tmp_path, inputs), "profile": "latin-generic",
            "format": None, "version": __version__, **fields}
    if output:
        assert err == ""
        assert Path(output).read_bytes() == written
        assert Path(output + ".manifest.json").read_text(encoding="utf-8") == json.dumps(want, indent=1) + "\n"
    else:
        assert err == json.dumps(want) + "\n"


@pytest.mark.parametrize("argv, status", [
    (["profile", "nope.txt", "-o", "out.tsv"], 2),
    (["metrics", "c.txt", "--profile", "bad.json", "-o", "out.tsv"], 2),
    (["sample", "c.txt", "--profile", "bad.json", "-o", "out.txt"], 2),
    (["strip", "nope.txt"], 2),
    (["train", "blank.txt", "-o", "out.json"], 1),
    (["diacritize", "bad.json", "c.txt", "-o", "out.txt"], 1),
    (["evaluate", "c.txt", "d.txt"], 1),
    (["correlate", "t.tsv", "--x", "x", "--y", "z"], 1),
])
def test_a_failed_command_writes_no_manifest(tmp_path, capsys, argv, status):
    write(tmp_path, "c.txt", "el niño\n")
    write(tmp_path, "d.txt", "el nido\n")
    write(tmp_path, "blank.txt", " \n")
    write(tmp_path, "bad.json", '{"name": 3}')
    write(tmp_path, "t.tsv", "x\ty\n1\t2\n2\t3\n3\t5\n")
    code, out, err = run(capsys, *_paths(tmp_path, argv), "--manifest")
    assert (code, out) == (status, "")
    assert err.startswith("runemetrics: ") and err.count("\n") == 1
    assert list(tmp_path.glob("*.manifest.json")) == []


def test_a_profile_that_repeats_a_key_fails_naming_the_file(tmp_path, capsys):
    # the second casefold would otherwise fold "É" into "é"
    prof = write(tmp_path, "p.json", '{"name": "cased", "casefold": false, "casefold": true}')
    code, out, err = run(capsys, "metrics", write(tmp_path, "e.txt", "Éa ea\n"), "--profile", prof)
    assert (code, out) == (2, "")
    assert err == f"runemetrics: bad profile: {prof}: malformed profile document (ValueError: repeated key 'casefold')\n"


def test_a_model_that_repeats_a_word_map_key_fails_naming_the_file(tmp_path, capsys):
    model = write(tmp_path, "m.json", '{"char_map": {}, "format_version": 2, "meta": {"profile": {"name": "latin-generic"}}, '
                                      '"word_map": {"nino": "nin\\u0303o", "nino": "nino"}}')
    code, out, err = run(capsys, "diacritize", model, write(tmp_path, "in.txt", "nino\n"))
    assert (code, out) == (1, "")
    assert err == f"runemetrics: {model}: malformed model document (ValueError: repeated key 'nino')\n"


def test_a_model_whose_word_map_form_spells_another_word_fails_naming_the_file(tmp_path, capsys):
    model = write(tmp_path, "m.json", '{"char_map": {}, "format_version": 2, "meta": {"profile": {"name": "latin-generic"}}, '
                                      '"word_map": {"nino": "cafe\\u0301"}}')
    code, out, err = run(capsys, "diacritize", model, write(tmp_path, "in.txt", "nino\n"))
    assert (code, out) == (1, "")
    assert err == (f"runemetrics: {model}: malformed model document "
                   "(ValueError: word_map['nino'] does not spell its key: 'cafe\u0301')\n")


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


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999", "zz"])
def test_correlate_rejects_a_cell_that_is_no_finite_number(tmp_path, capsys, cell):
    table = write(tmp_path, "t.tsv", f"label\tx\ty\na\t1\t2\nb\t{cell}\t3\nc\t3\t5\nd\t4\t9\n")
    code, out, err = run(capsys, "correlate", table, "--x", "x", "--y", "y")
    assert (code, out) == (1, "")
    assert f"{table}: line 3, column 'x': not a finite number: '{cell}'" in err


def test_correlate_names_a_missing_column(tmp_path, capsys):
    table = write(tmp_path, "t.tsv", "x\ty\n1\t2\n2\t3\n3\t5\n")
    code, out, err = run(capsys, "correlate", table, "--x", "x", "--y", "z")
    assert (code, out) == (1, "")
    assert f"{table}: line 2: no column 'z' (columns: x, y)" in err


def test_correlate_of_fewer_than_3_usable_rows_names_the_table(tmp_path, capsys):
    table = write(tmp_path, "t.tsv", "x\ty\n1\t2\n--\t3\n3\t5\n")
    code, out, err = run(capsys, "correlate", table, "--x", "x", "--y", "y")
    assert (code, out) == (1, "")
    assert err == f"runemetrics: {table}: fewer than 3 usable rows for 'x' vs 'y' (2 after dropping 1)\n"


def test_correlate_reads_the_first_column_of_a_table_saved_with_a_bom(tmp_path, capsys):
    table = tmp_path / "bom.tsv"
    table.write_bytes("\ufeffrs\tword_acc \n1\t2\n2\t3\n3\t5\n4\t9\n".encode("utf-8"))
    code, out, err = run(capsys, "correlate", str(table), "--x", "rs", "--y", "word_acc")
    assert (code, err) == (0, "")
    assert out.startswith("r\t")


def test_correlate_names_the_byte_offset_of_invalid_utf8(tmp_path, capsys):
    table = tmp_path / "bad.tsv"
    table.write_bytes(b"x\ty\n1\t2\n2\t\xff\n3\t5\n")
    code, out, err = run(capsys, "correlate", str(table), "--x", "x", "--y", "y")
    assert (code, out) == (2, "")
    assert f"{table}: invalid UTF-8 at byte offset 10" in err


def test_correlate_ends_table_lines_at_universal_newlines_alone(tmp_path, capsys):
    plain = write(tmp_path, "t.tsv", "x\ty\n1\t2\n2\t3\n3\t5\n4\t9\n")
    _, want, _ = run(capsys, "correlate", plain, "--x", "x", "--y", "y")
    mixed = tmp_path / "mixed.tsv"
    mixed.write_bytes("\ufeffx\ty\r\n1\t2\r2\t3\r\n3\t5\n4\t9".encode("utf-8"))
    code, out, err = run(capsys, "correlate", str(mixed), "--x", "x", "--y", "y")
    assert (code, out, err) == (0, want, "")
    # a form feed does not end a line: the row has one cell too many
    ff = write(tmp_path, "ff.tsv", "x\ty\n1\t2\f3\t5\n")
    code, _, err = run(capsys, "correlate", ff, "--x", "x", "--y", "y")
    assert code == 1 and f"{ff}: line 2: expected 2 tab-separated cells, got 3" in err


def test_correlate_rejects_a_repeated_column_name(tmp_path, capsys):
    table = write(tmp_path, "dup.tsv", "x\tx\ty\n1\t2\t3\n2\t3\t5\n3\t1\t4\n4\t0\t9\n")
    code, out, err = run(capsys, "correlate", table, "--x", "x", "--y", "y")
    assert (code, out) == (1, "")
    assert f"{table}: line 1: repeated column name 'x'" in err


def test_correlate_huge_finite_cells(tmp_path, capsys):
    table = write(tmp_path, "t.tsv", "x\ty\n1e308\t1\n-1e308\t-1\n1e308\t0.5\n-1.5e308\t-0.4\n")
    code, out, _ = run(capsys, "correlate", table, "--x", "x", "--y", "y", "--format", "json")
    assert code == 0
    assert json.loads(out)["r"] == pytest.approx(pearson([1, -1, 1, -1.5], [1, -1, 0.5, -0.4]).r, abs=1e-15)


def _token(tid, form):
    return f"{tid}\t{form}\t_\t_\t_\t_\t_\t_\t_\t_\n"


@pytest.mark.parametrize("command", ["profile", "strip", "metrics", "train"])
@pytest.mark.parametrize("doc, line", [
    (_token("1-x", "ab") + _token("1", "a") + _token("2", "b"), 1),
    (_token("1", "ab") + _token("x", "cd"), 2),
    ("# text = ab cd\n" + _token("1", "ab") + _token("2.x", "cd"), 3),
    ("# text = ab\n" + _token("1-", "ab"), 2),
], ids=["range-1-x", "id-x", "empty-node-2.x", "range-1-"])
def test_conllu_token_id_must_be_an_integer(tmp_path, capsys, command, doc, line):
    path = write(tmp_path, "a.conllu", doc)
    code, out, err = run(capsys, command, path, *(["-o", str(tmp_path / "model.json")] if command == "train" else []))
    # a read error keeps its own message, naming the file once, and exit 2
    assert (code, out) == (2, "")
    assert f"{path}: line {line}: " in err and err.count(path) == 1


@pytest.mark.parametrize("n", ["0", "-5"])
def test_sample_target_chars_must_be_positive(tmp_path, capsys, n):
    path = write(tmp_path, "es.txt", SPANISH + "\n")
    code, out, err = run(capsys, "sample", path, "--target-chars", n)
    assert (code, out) == (2, "")
    assert f"--target-chars must be positive, got {n}" in err


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


def test_evaluate_numbers_lines_by_universal_newlines(tmp_path, capsys):
    gold = write(tmp_path, "gold.txt", "ab\fcd\nef\n")
    hyp = write(tmp_path, "hyp.txt", "ab\fcd\neg\n")
    code, _, err = run(capsys, "evaluate", gold, hyp)
    assert code == 1
    assert "line 2, rune 2: base letter differs" in err


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
