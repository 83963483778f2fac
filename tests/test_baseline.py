import copy
import json
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import LATIN, SPANISH, corpus_of, saved_doc, write
from runemetrics import (
    BaselineModel,
    Corpus,
    ScriptProfile,
    diacritize,
    evaluate,
    get_profile,
    load_profile,
    normalize_decompose,
    strip_text,
    train,
)
from runemetrics.cli import main
from runemetrics.script_core import profile_to_doc


def test_modal_word_restoration():
    model = train(corpus_of("niño niño nino"))
    assert saved_doc(model)["word_map"]["nino"] == normalize_decompose("niño")


def test_char_fallback_consistent_marks():
    # every base always carries the same mark, so the per-letter fallback
    # restores an unseen word exactly
    model = train(corpus_of("ábá cécé"))
    assert diacritize(model, "aceb") == normalize_decompose("ácéb")
    assert diacritize(model, "aba") == normalize_decompose("ábá")


def test_tie_breaks_to_smallest_codepoint_sequence():
    model = train(corpus_of("ab áb"))
    assert saved_doc(model)["word_map"]["ab"] == "ab"
    # as rune tuples (a)(b') sorts first, but as text "a'b" < "ab'"
    apostrophe = ScriptProfile("apostrophe", extra_mark_allowlist=frozenset("'"))
    model = train(Corpus.from_lines(["a'b a'b ab' ab'"], apostrophe))
    assert saved_doc(model)["word_map"]["ab"] == "a'b"


def test_train_deterministic():
    lines = ["niño bebé café", "mañana sólo aquí"]
    assert saved_doc(train(corpus_of(*lines))) == saved_doc(train(corpus_of(*lines)))


def test_round_trip_never_alters_bases():
    rng = random.Random(3)
    model = train(corpus_of(SPANISH))
    for _ in range(20):
        word = "".join(rng.choice("nieocafablm") for _ in range(rng.randint(1, 12)))
        out = diacritize(model, word)
        assert strip_text(out, LATIN).lower() == word


def test_perfect_restoration_on_unambiguous_corpus():
    gold_lines = ["el niño bebió café", "la mañana es clara"]
    gold = corpus_of(*gold_lines)
    model = train(gold)
    stripped = "\n".join(strip_text(l, LATIN) for l in gold_lines)
    restored = diacritize(model, stripped)
    hyp = Corpus.from_lines(restored.split("\n"), LATIN)
    rep = evaluate(gold, hyp)
    assert rep.word_accuracy == 100.0
    assert rep.rune_accuracy == 100.0


def test_unseen_script_passes_through():
    model = train(corpus_of("solo latino aquí"))
    line = "Ψυχή 123 …"
    assert diacritize(model, line) == normalize_decompose(line)


def test_case_preserved_on_restoration():
    model = train(corpus_of("méxico méxico"))
    out = diacritize(model, "Mexico")
    assert out == normalize_decompose("México")


def test_empty_input():
    model = train(corpus_of("abc"))
    assert diacritize(model, "") == ""


def test_punctuation_preserved():
    model = train(corpus_of("café"))
    out = diacritize(model, '"cafe," dijo.')
    assert out.startswith('"' + normalize_decompose("café") + ',"')
    assert out.endswith(".")


def test_model_save_load_round_trip(tmp_path):
    model = train(corpus_of("niño café", "mañana"))
    p = tmp_path / "model.json"
    model.save(p)
    loaded = BaselineModel.load(p)
    assert loaded.meta == model.meta
    assert "profile" not in loaded.meta  # the model holds its profile once, as .profile
    assert diacritize(loaded, "nino cafe manana") == diacritize(model, "nino cafe manana")
    # keys must be codepoint-escaped on disk
    raw = p.read_bytes()
    assert max(raw) < 128


def test_version_1_model_loads_profile_by_name(tmp_path):
    model = train(Corpus.from_lines(["שָׁלוֹם בַּיִת"], get_profile("hebrew")))
    p = tmp_path / "model.json"
    model.save(p)
    doc = json.loads(p.read_text())
    doc["format_version"] = 1
    doc["meta"]["profile"] = "hebrew"
    doc["meta"]["casefold"] = True
    p.write_text(json.dumps(doc))
    loaded = BaselineModel.load(p)
    assert loaded.profile == get_profile("hebrew")
    assert diacritize(loaded, "שלום בית") == diacritize(model, "שלום בית")


@pytest.mark.parametrize("name", ["nosuch", "profile.json", ["hebrew"]])
def test_version_1_model_names_only_a_builtin_profile(tmp_path, monkeypatch, name):
    # a file named like the profile must not be read as the model's profile
    (tmp_path / "profile.json").write_text(json.dumps(profile_to_doc(get_profile("hebrew"))))
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "model.json"
    p.write_text(json.dumps({"format_version": 1, "meta": {"profile": name}, "word_map": {}, "char_map": {}}))
    with pytest.raises(ValueError, match="model.json: malformed model document"):
        BaselineModel.load(p)


@pytest.mark.parametrize("doc", [
    '{"format_version": 2, "meta": {}, "word_map": {}, "char_map": {}}',
    '{"format_version": 2, "meta": {"profile": "hebrew"}, "word_map": {}, "char_map": {}}',
    '{"format_version": 1, "meta": {}, "char_map": {}}',
    "[1]",
    "nojson",
])
def test_malformed_model_rejected(tmp_path, doc):
    p = tmp_path / "model.json"
    p.write_text(doc)
    with pytest.raises(ValueError, match="model.json: malformed model document"):
        BaselineModel.load(p)


@pytest.mark.parametrize("field, value", [
    ("word_map", [["nino", "nin\u0303o"]]),
    ("word_map", {"nino": 7}),
    ("char_map", "n"),
    ("char_map", {"n": "m\u0303"}),  # a rune of another letter
    ("word_map", {"nino": "cafe\u0301"}),  # another word's form
    ("char_map", {"n": "nXYZ "}),  # text after the rune
    ("word_map", {"nino": "ninox"}),  # a letter too many
    ("char_map", {"ab": "ab"}),  # a key of two letters
    ("char_map", {"": ""}),
    ("word_map", {"": "123 ..."}),  # a value that holds no letter
])
def test_model_tables_are_type_checked(tmp_path, field, value):
    p = tmp_path / "model.json"
    train(corpus_of("niño")).save(p)
    doc = json.loads(p.read_text())
    doc[field] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"model.json: malformed model document .*{field}"):
        BaselineModel.load(p)


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "array", dict: "object"}[type(value)]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)
_PROFILE = ScriptProfile("custom", extra_mark_allowlist=frozenset("'"), mark_denylist=frozenset("\u0591"),
                         casefold=False)
_CORPUS = Corpus.from_lines(["Niño's café", "niño ca'fe"], _PROFILE)
_MODEL = train(_CORPUS)
_MODEL_DOC = saved_doc(_MODEL)
_FIELDS = ([("profile", (f,)) for f in profile_to_doc(_PROFILE)]
           + [("model", (f,)) for f in _MODEL_DOC] + [("model", ("meta", "profile"))]
           + [("model", ("meta", "profile", f)) for f in profile_to_doc(_PROFILE)])
_DOCS = {"profile": profile_to_doc(_PROFILE), "model": _MODEL_DOC}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(_FIELDS), value=_JSON)
def test_a_field_of_another_type_loads_equal_or_fails_naming_the_file(tmp_path, where, value):
    kind, path = where
    doc = copy.deepcopy(_DOCS[kind])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    assume(_json_type(value) != _json_type(parent[path[-1]]))
    parent[path[-1]] = value
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    try:
        if kind == "profile":
            assert load_profile(p) == _PROFILE
        else:
            assert saved_doc(BaselineModel.load(p)) == _MODEL_DOC
    except ValueError as e:
        assert str(e).startswith(f"{p}: malformed {kind} document")


def test_model_format_version_checked(tmp_path):
    p = tmp_path / "model.json"
    p.write_text('{"format_version": 99, "meta": {}, "word_map": {}, "char_map": {}}')
    with pytest.raises(ValueError, match="format_version"):
        BaselineModel.load(p)


def test_word_map_invariant():
    model = train(corpus_of(SPANISH))
    for key, value in saved_doc(model)["word_map"].items():
        assert strip_text(value, LATIN) == key


def test_char_map_invariant():
    model = train(corpus_of(SPANISH))
    for base, rune_text in saved_doc(model)["char_map"].items():
        assert rune_text[0] == base


def test_load_then_save_reproduces_the_file(tmp_path):
    # and `train -o` writes the bytes `save` writes, for the same corpus and profile
    lines = ["שָׁלוֹם בַּיִת שָׁלוֹם", "שְׁלוֹם בַּיִת"]
    first, second, trained = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "trained.json"
    train(Corpus.from_lines(lines, get_profile("hebrew"))).save(first)
    BaselineModel.load(first).save(second)
    gold = write(tmp_path, "gold.txt", "\n".join(lines) + "\n")
    assert main(["train", gold, "--profile", "hebrew", "-o", str(trained)]) == 0
    assert second.read_bytes() == trained.read_bytes() == first.read_bytes()


def test_a_hand_edited_model_restores_and_saves_canonical_marks(tmp_path):
    # acute, grave, acute again: one rune whose marks are grave then acute
    p = tmp_path / "model.json"
    train(corpus_of("nino")).save(p)
    doc = json.loads(p.read_text())
    doc["char_map"]["o"] = "o\u0301\u0300\u0301"
    p.write_text(json.dumps(doc))
    loaded = BaselineModel.load(p)
    assert diacritize(loaded, "on") == "o\u0300\u0301n"
    loaded.save(p)
    assert json.loads(p.read_text())["char_map"]["o"] == "o\u0300\u0301"
