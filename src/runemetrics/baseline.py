"""Frequency baseline for diacritics restoration.

Word lookup first (stripped, case-folded word -> most frequent diacritized
form), falling back to a per-letter map (base -> most frequent rune).  No
context modeling: this is a deterministic floor for the evaluation
harness, not a competitive restorer.
"""

from __future__ import annotations

import json
import re

from .script_core import (
    BUILTIN_PROFILES,
    ScriptProfile,
    fold_token_spellings,
    get_profile,
    normalize_decompose,
    profile_from_doc,
    profile_to_doc,
    read_document,
    restore_marks,
    segment_runes_counted,
    spell_text,
)

# v2 stores the profile's document form in meta["profile"]; v1 stored
# only its name, so a v1 model loads by that name.
FORMAT_VERSION = 2


class BaselineModel:
    def __init__(self, word_map: dict, char_map: dict, profile: ScriptProfile, meta: dict | None = None):
        self.word_map = word_map  # stripped casefolded word -> canonical spelling of its modal form
        self.char_map = char_map  # base char -> canonical spelling of its modal rune
        self.meta = {} if meta is None else meta
        self.profile = profile

    def dumps(self) -> str:
        """The model file's text: what :meth:`save` and ``train -o`` write."""
        doc = {
            "format_version": FORMAT_VERSION,
            "meta": {**self.meta, "profile": profile_to_doc(self.profile)},
            "word_map": self.word_map,
            "char_map": self.char_map,
        }
        return json.dumps(doc, ensure_ascii=True, sort_keys=True, indent=1)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.dumps())

    @classmethod
    def load(cls, path) -> "BaselineModel":
        """Read a saved model; any document it cannot use fails naming the file."""
        return read_document(path, cls._from_doc, "model")

    @classmethod
    def _from_doc(cls, doc: dict) -> "BaselineModel":
        version = doc.get("format_version")
        if type(version) is not int or version not in (1, FORMAT_VERSION):
            raise ValueError(f"unsupported model format_version: {version!r}")
        if version == 1:  # a name, never a path: loading a model reads no other file
            name = doc["meta"].get("profile", "latin-generic")
            if name not in BUILTIN_PROFILES:
                raise ValueError(f"format 1 names no builtin profile: {name!r}")
            profile = get_profile(name)
        else:
            profile = profile_from_doc(doc["meta"]["profile"])
        word_map = _read_map(doc, "word_map", profile)
        char_map = _read_map(doc, "char_map", profile)
        meta = {k: v for k, v in doc["meta"].items() if k != "profile"}  # held once, as .profile
        return cls(word_map=word_map, char_map=char_map, meta=meta, profile=profile)


def _read_map(doc: dict, name: str, profile: ScriptProfile) -> dict:
    """The model document's map ``name`` as key -> the canonical spelling
    of its value, each value spelled and checked in one pass.  A value's
    bases must spell its key, a value holds a letter, and a ``char_map``
    key is one letter.  A value is letters and their marks under the
    profile alone: it holds no other character and no orphan mark."""
    table = doc[name]
    if not (isinstance(table, dict) and all(isinstance(v, str) for v in table.values())):
        raise ValueError(f"{name} is not an object of string -> string")
    held = {}
    for key, value in table.items():
        spelling, bases, orphans, others = spell_text(value, profile)
        if not bases or bases != key or (name == "char_map" and len(bases) != 1):
            raise ValueError(f"{name}[{key!r}] does not spell its key: {value!r}")
        if orphans or others:
            raise ValueError(f"{name}[{key!r}] is not letters and their marks: {value!r}")
        held[key] = spelling
    return held


def train(corpus: Corpus) -> BaselineModel:
    """Keep each word key's modal form and each base's modal rune.

    One fold over the corpus's distinct tokens spells each once: the
    spelling of one that holds a letter is its form, counted once for
    all the tokens that spell it, and its runes' spellings are counted
    with it.
    """
    forms, runes = fold_token_spellings(corpus.tokens(), corpus.profile)
    if not forms:
        raise ValueError("cannot train on a corpus with no words")
    word_map = _modal((key, form, n) for form, (key, n) in forms.items())
    char_map = _modal((rune[0], rune, n) for rune, n in runes.items())
    return BaselineModel(word_map=word_map, char_map=char_map, profile=corpus.profile)


def _modal(counted) -> dict:
    """key -> the spelling with the highest count over ``(key, spelling,
    count)`` triples; ties go to the smallest spelling (codepoint order)."""
    best = {}
    for key, spelling, n in counted:
        held = best.get(key)
        if held is None or n > held[1] or (n == held[1] and spelling < held[0]):
            best[key] = (spelling, n)
    return {key: spelling for key, (spelling, _) in best.items()}


def diacritize(model: BaselineModel, text: str) -> str:
    """Restore diacritics over running text; output is decomposed.

    Each distinct whitespace token is spelled and restored once;
    whitespace passes through.  A word takes the word map's form for its
    key (its stripped, case-folded bases); else each letter takes its
    base's modal rune from the per-letter map, or keeps its marks when its
    base was never seen in training.  A token that is its key (folded
    letters alone) is restored as the form's spelling itself.
    """
    profile, word_map, char_map = model.profile, model.word_map, model.char_map
    word_runes = {}  # key -> the runes of its word-map form, each derived once per call
    parts = re.split(r"(\s+)", normalize_decompose(text))  # tokens at the even indexes
    restored = {"": ""}  # token -> its restoration; "" where the text starts or ends with whitespace
    for i in range(0, len(parts), 2):
        token = parts[i]
        new = restored.get(token)
        if new is None:
            key = spell_text(token, profile)[1]
            form = word_map.get(key)
            if form is None:
                new = restore_marks(token, profile, [char_map.get(base) for base in key])
            elif token == key:  # restore_marks would spell the form again
                new = form
            else:
                runes = word_runes.get(key)
                if runes is None:
                    runes = word_runes[key] = segment_runes_counted(form, profile)[0]
                new = restore_marks(token, profile, runes)
            restored[token] = new
        parts[i] = new
    return "".join(parts)
