import json
from pathlib import Path

from conftest import conllu_token, run, write
from runemetrics.cli import main


def test_diacritize_matching_or_absent_profile_uses_the_model(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert main(["train", write(tmp_path, "gold.txt", "שָׁלוֹם שָׁלוֹם\nבַּיִת\n"), "--profile", "hebrew", "-o", model]) == 0
    text = write(tmp_path, "in.txt", "שלום בית\n")
    code, given, err = run(capsys, "diacritize", model, text, "--profile", "hebrew", "--manifest")
    assert code == 0, err
    assert json.loads(err)["profile"] == "hebrew"
    code, absent, err = run(capsys, "diacritize", model, text, "--manifest")
    assert code == 0, err
    assert json.loads(err)["profile"] is None  # recorded as given: the model, an input, carries it
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
    # a final CR is a line end, kept as it is
    (tmp_path / "cr.txt").write_bytes(b"nino\rcafe\r")
    code, out, err = run(capsys, "diacritize", model, str(tmp_path / "cr.txt"))
    assert (code, out) == (0, "nin\u0303o\rcafe\u0301\r")


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
    # rebuilds no text: only the other sentence is read, as from a plain-text file.
    # In the second document it is rebuilt from FORMs through SpaceAfter=No and the
    # multiword range "del", whose words 4 and 5 are not read again
    t = conllu_token
    for doc, want, n_words, n_runes in (
        ("# text = \n" + t(1, "café") + "\n# text = café niño\n" + t(1, "café") + t(2, "niño") + "\n"
         + t("1.1", "niño"), "cafe nino\n", "2", "8"),
        ("# text = \n" + t(1, "niño") + "\n" + t(1, "el") + t(2, "niño", "SpaceAfter=No") + t(3, ",")
         + t("4-5", "del") + t(4, "de") + t(5, "el") + t(6, "café"), "el nino, del cafe\n", "4", "13"),
    ):
        gold = write(tmp_path, "g.conllu", doc)
        code, out, err = run(capsys, "profile", gold, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["lines_diac_pct"] == 100.0
        stripped, model, restored = (str(tmp_path / n) for n in ("s.txt", "model.json", "r.txt"))
        assert main(["strip", gold, "-o", stripped]) == 0
        assert Path(stripped).read_text(encoding="utf-8") == want
        assert main(["train", gold, "-o", model]) == 0
        assert main(["diacritize", model, stripped, "-o", restored]) == 0
        code, out, err = run(capsys, "evaluate", gold, restored)
        assert code == 0, err
        assert out.splitlines()[1].split("\t") == ["100.000000", "100.000000", n_words, n_runes]

