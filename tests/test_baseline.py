import copy
import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import corpus_of, saved_doc, write
from runemetrics import (
    BaselineModel,
    Corpus,
    ScriptProfile,
    diacritize,
    get_profile,
    load_profile,
    train,
)
from runemetrics.cli import main
from runemetrics.script_core import profile_to_doc


def test_tie_breaks_to_smallest_codepoint_sequence():
    model = train(corpus_of("ab \u00e1b"))
    assert saved_doc(model)["word_map"]["ab"] == "ab"
    # as rune tuples (a)(b') sorts first, but as text "a'b" < "ab'"
    apostrophe = ScriptProfile("apostrophe", extra_mark_allowlist=frozenset("'"))
    model = train(Corpus.from_lines(["a'b a'b ab' ab'"], apostrophe))
    assert saved_doc(model)["word_map"]["ab"] == "a'b"


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


# each document, and what its message names
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


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
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


def test_load_then_save_reproduces_the_file(tmp_path):
    # and `train -o` writes the bytes `save` writes, for the same corpus and profile
    lines = ["שָׁלוֹם בַּיִת שָׁלוֹם", "שְׁלוֹם בַּיִת"]
    first, second, trained = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "trained.json"
    train(Corpus.from_lines(lines, get_profile("hebrew"))).save(first)
    loaded = BaselineModel.load(first)
    # the model holds its profile once, as .profile: a stale meta["profile"] is not saved
    assert "profile" not in loaded.meta and loaded.profile == get_profile("hebrew")
    loaded.meta["profile"] = {"name": "stale"}
    loaded.save(second)
    gold = write(tmp_path, "gold.txt", "\n".join(lines) + "\n")
    assert main(["train", gold, "--profile", "hebrew", "-o", str(trained)]) == 0
    assert second.read_bytes() == trained.read_bytes() == first.read_bytes()
    assert max(first.read_bytes()) < 128  # keys and forms are codepoint-escaped


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
