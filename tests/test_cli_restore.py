import json
from pathlib import Path

import pytest

from runemetrics.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

HEBREW_GOLD = "שָׁלוֹם שָׁלוֹם\nבַּיִת\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def hebrew_model(tmp_path):
    model = str(tmp_path / "model.json")
    assert main(["train", write(tmp_path, "gold.txt", HEBREW_GOLD), "--profile", "hebrew", "-o", model]) == 0
    return model


def test_diacritize_profile_mismatch_exits_2(tmp_path, capsys):
    model = hebrew_model(tmp_path)
    code, out, err = run(capsys, "diacritize", model, write(tmp_path, "in.txt", "שלום\n"),
                         "--profile", "latin-generic")
    assert code == 2
    assert out == ""
    assert "latin-generic" in err and "hebrew" in err


def test_diacritize_matching_or_absent_profile_uses_the_model(tmp_path, capsys):
    model = hebrew_model(tmp_path)
    text = write(tmp_path, "in.txt", "שלום בית\n")
    code, given, err = run(capsys, "diacritize", model, text, "--profile", "hebrew", "--manifest")
    assert code == 0, err
    assert json.loads(err)["profile"] == "hebrew"
    code, absent, err = run(capsys, "diacritize", model, text, "--manifest")
    assert code == 0, err
    assert json.loads(err)["profile"] == "hebrew"
    assert given == absent == "שָׁלוֹם בַּיִת\n"


def test_diacritize_output_ends_with_a_newline(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert main(["train", write(tmp_path, "gold.txt", "niño café\n"), "-o", model]) == 0
    text = write(tmp_path, "in.txt", "nino cafe")
    restored = tmp_path / "restored.txt"
    assert main(["diacritize", model, text, "-o", str(restored)]) == 0
    assert restored.read_text(encoding="utf-8") == "nin\u0303o cafe\u0301\n"
    code, out, err = run(capsys, "diacritize", model, text)
    assert code == 0, err
    assert out == "nin\u0303o cafe\u0301\n"
    code, out, err = run(capsys, "diacritize", model, write(tmp_path, "empty.txt", ""))
    assert (code, out) == (0, "")


def test_diacritize_missing_profile_file_exits_2(tmp_path, capsys):
    model = hebrew_model(tmp_path)
    code, _, err = run(capsys, "diacritize", model, write(tmp_path, "in.txt", "שלום\n"),
                       "--profile", str(tmp_path / "missing.json"))
    assert code == 2
    assert "bad profile" in err and "missing.json" in err


def test_correlate_ignores_profile(tmp_path, capsys):
    table = str(FIXTURES / "language_metrics.tsv")
    _, plain, _ = run(capsys, "correlate", table, "--x", "rs", "--y", "bert_word")
    code, out, err = run(capsys, "correlate", table, "--x", "rs", "--y", "bert_word",
                         "--profile", str(tmp_path / "missing.json"))
    assert code == 0, err
    assert out == plain


def test_malformed_profile_document_exits_2(tmp_path, capsys):
    text = write(tmp_path, "t.txt", "abc\n")
    for doc in ("{}", "[1]"):
        prof = write(tmp_path, "p.json", doc)
        code, _, err = run(capsys, "profile", text, "--profile", prof)
        assert code == 2
        assert "bad profile" in err and err.count(prof) == 1


@pytest.mark.parametrize("field, value", [("extra_mark_allowlist", "U+0301"), ("casefold", "false")])
def test_profile_document_field_of_another_type_exits_2(tmp_path, capsys, field, value):
    # read as the allowlist {U, +, 0, 1, 3} or as casefolding, these gave a wrong row and exit 0
    text = write(tmp_path, "t.txt", "aU b\n")
    prof = write(tmp_path, "p.json", json.dumps({"name": "p", field: value}))
    code, out, err = run(capsys, "profile", text, "--profile", prof)
    assert (code, out) == (2, "")
    assert f"{prof}: malformed profile document" in err and field in err


def test_model_with_a_list_word_map_names_the_file(tmp_path, capsys):
    model = hebrew_model(tmp_path)
    doc = json.loads(Path(model).read_text(encoding="utf-8"))
    doc["word_map"] = list(doc["word_map"].items())
    Path(model).write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "diacritize", model, write(tmp_path, "in.txt", "שלום\n"))
    assert (code, out) == (1, "")
    assert f"{model}: malformed model document" in err and "word_map" in err


def test_version_1_model_naming_a_file_exits_1_naming_the_model(tmp_path, capsys, monkeypatch):
    # the name is looked up among the builtin profiles, never opened as a path
    write(tmp_path, "nosuch", json.dumps({"name": "latin-generic"}))
    monkeypatch.chdir(tmp_path)
    model = write(tmp_path, "m1.json", json.dumps(
        {"format_version": 1, "meta": {"profile": "nosuch"}, "word_map": {}, "char_map": {}}))
    code, out, err = run(capsys, "diacritize", model, write(tmp_path, "in.txt", "nino\n"))
    assert (code, out) == (1, "")
    assert f"{model}: malformed model document" in err and "'nosuch'" in err


def test_evaluate_of_no_words_exits_1(tmp_path, capsys):
    # blank lines and punctuation hold no word: there is nothing to score
    for text in ("", "\n\n", "... !\n"):
        gold, hyp = write(tmp_path, "gold.txt", text), write(tmp_path, "hyp.txt", text)
        code, out, err = run(capsys, "evaluate", gold, hyp)
        assert (code, out) == (1, "")
        assert err == f"runemetrics: {gold}: no words to score\n"


@pytest.mark.parametrize("command", ["train", "profile", "metrics"])
@pytest.mark.parametrize("text", ["", "123 ...\n"], ids=["empty", "digits-and-punctuation"])
def test_a_file_without_a_word_exits_1_naming_it(tmp_path, capsys, command, text):
    # a file with words comes first, so only the path tells which input held none
    ok, nowords = write(tmp_path, "ok.txt", "el niño\n"), write(tmp_path, "nowords.txt", text)
    model = tmp_path / "model.json"
    argv = ["train", nowords, "-o", str(model)] if command == "train" else [command, ok, nowords]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"runemetrics: {nowords}: ")
    assert not model.exists()


def test_readme_pipeline_pairs_non_blank_lines(tmp_path, capsys):
    # strip drops the blank line, so restored line 2 pairs with gold line 3
    gold = write(tmp_path, "gold.txt", "el niño bebió café\n\nla mañana es clara\n")
    stripped, model, restored = (str(tmp_path / n) for n in ("stripped.txt", "model.json", "restored.txt"))
    assert main(["strip", gold, "-o", stripped]) == 0
    assert Path(stripped).read_text(encoding="utf-8") == "el nino bebio cafe\nla manana es clara\n"
    assert main(["train", gold, "-o", model]) == 0
    assert main(["diacritize", model, stripped, "-o", restored]) == 0
    code, out, _ = run(capsys, "evaluate", gold, restored, "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert (row["word_acc"], row["rune_acc"], row["n_words"]) == (100.0, 100.0, 8)


def test_strip_conllu_matches_its_plain_text(tmp_path, capsys):
    # one sentence from its "# text" comment, one rebuilt from FORMs
    conllu = write(tmp_path, "g.conllu", (
        "# text = שָׁלוֹם, בַּיִת\n1\tשָׁלוֹם\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No\n2\t,\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tבַּיִת\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
        "1\tבַּיִת\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No\n2\t.\t_\t_\t_\t_\t_\t_\t_\t_\n\n"))
    plain = write(tmp_path, "g.txt", "שָׁלוֹם, בַּיִת\n\nבַּיִת.\n")
    _, want, _ = run(capsys, "strip", plain, "--profile", "hebrew")
    code, out, err = run(capsys, "strip", conllu, "--profile", "hebrew")
    assert code == 0, err
    assert out == want == "שלום, בית\nבית.\n"


def test_a_conllu_sentence_with_a_blank_text_is_skipped(tmp_path, capsys):
    # an empty "# text =" wins over its token, and a block of an empty node alone
    # rebuilds no text: only the middle sentence is read, as from a plain-text file
    gold = write(tmp_path, "g.conllu", (
        "# text = \n1\tcafé\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
        "# text = café niño\n1\tcafé\t_\t_\t_\t_\t_\t_\t_\t_\n2\tniño\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
        "1.1\tniño\t_\t_\t_\t_\t_\t_\t_\t_\n"))
    code, out, err = run(capsys, "profile", gold, "--format", "json")
    assert code == 0, err
    assert json.loads(out)["lines_diac_pct"] == 100.0
    stripped, model, restored = (str(tmp_path / n) for n in ("s.txt", "model.json", "r.txt"))
    assert main(["strip", gold, "-o", stripped]) == 0
    assert Path(stripped).read_text(encoding="utf-8") == "cafe nino\n"
    assert main(["train", gold, "-o", model]) == 0
    assert main(["diacritize", model, stripped, "-o", restored]) == 0
    code, out, err = run(capsys, "evaluate", gold, restored)
    assert code == 0, err
    assert out.splitlines()[1].split("\t") == ["100.000000", "100.000000", "2", "8"]


def test_model_with_bad_stored_profile_names_the_file(tmp_path, capsys):
    model = hebrew_model(tmp_path)
    doc = json.loads(Path(model).read_text(encoding="utf-8"))
    for bad in ({"extra_mark_allowlist": ["U+0301"], "mark_denylist": ["U+0301"]},
                {"extra_mark_allowlist": ["U+0020"], "mark_denylist": []}):
        doc["meta"]["profile"].update(bad)
        Path(model).write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "diacritize", model, write(tmp_path, "in.txt", "שלום\n"))
        assert code == 1
        assert out == ""
        assert f"{model}: malformed model document" in err
