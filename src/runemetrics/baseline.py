"""Frequency baseline for diacritics restoration.

Word lookup first (stripped, case-folded word -> most frequent diacritized
form), falling back to a per-letter map (base -> most frequent rune).  No
context modeling: this is a deterministic floor for the evaluation
harness, not a competitive restorer.
"""

from __future__ import annotations

import json
from operator import itemgetter

from .corpus_io import Corpus
from .script_core import (
    BUILTIN_PROFILES,
    ScriptProfile,
    normalize_decompose,
    profile_from_doc,
    profile_to_doc,
    read_document,
    restore_marks,
    segment_runes,
    segment_runes_counted,
)

# v2 stores the profile's document form in meta["profile"]; v1 stored
# only its name, so a v1 model loads by that name.
FORMAT_VERSION = 2


class BaselineModel:
    def __init__(self, word_map: dict, char_map: dict, meta: dict | None = None,
                 profile: ScriptProfile = BUILTIN_PROFILES["latin-generic"]):
        self.word_map = word_map  # stripped casefolded word -> decomposed diacritized form
        self.char_map = char_map  # base char -> decomposed rune text (base + marks)
        self.meta = {} if meta is None else meta
        self.profile = profile

    def save(self, path) -> None:
        doc = {
            "format_version": FORMAT_VERSION,
            "meta": {**self.meta, "profile": profile_to_doc(self.profile)},
            "word_map": self.word_map,
            "char_map": self.char_map,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, ensure_ascii=True, sort_keys=True, indent=1)

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
            profile = BUILTIN_PROFILES[name]
        else:
            profile = profile_from_doc(doc["meta"]["profile"])
        word_map, char_map = doc["word_map"], doc["char_map"]
        for name, table in (("word_map", word_map), ("char_map", char_map)):
            if not (isinstance(table, dict) and all(isinstance(v, str) for v in table.values())):
                raise ValueError(f"{name} is not an object of string -> string")
        bad = next((k for k, v in char_map.items() if not v.startswith(k)), None)
        if bad is not None:
            raise ValueError(f"char_map[{bad!r}] does not begin with its letter: {char_map[bad]!r}")
        bad = next((k for k, v in word_map.items() if _word_key(v, profile) != k), None)
        if bad is not None:
            raise ValueError(f"word_map[{bad!r}] does not spell its key: {word_map[bad]!r}")
        meta = {k: v for k, v in doc["meta"].items() if k != "profile"}  # held once, as .profile
        return cls(word_map=word_map, char_map=char_map, meta=meta, profile=profile)


def train(corpus: Corpus) -> BaselineModel:
    """Count word forms and runes over the corpus and keep each one's modal form.

    A whitespace token holds at most one word, so each distinct token is
    segmented once and its runes count as often as the token occurs.
    """
    if not corpus.texts:
        raise ValueError("cannot train on an empty corpus")
    profile = corpus.profile
    words = []  # (runes, count) of each token that holds a letter
    rune_counts = {}
    get = rune_counts.get
    for _, n, word, _ in corpus.token_runes():
        if word:
            words.append((word, n))
            for r in word:
                rune_counts[r] = get(r, 0) + n
    # spellings are built once per rune type, word keys once per form
    spell = {r: r.text() for r in rune_counts}
    form_counts, form_keys = {}, {}
    for word, n in words:
        form = "".join(map(spell.__getitem__, word))
        if form in form_counts:
            form_counts[form] += n
        else:
            form_counts[form] = n
            form_keys[form] = "".join(map(itemgetter(0), word))
    char_counts = {spell[r]: n for r, n in rune_counts.items()}
    word_map = _modal(form_counts, form_keys.__getitem__)
    char_map = _modal(char_counts, itemgetter(0))  # a rune's spelling begins with its base
    return BaselineModel(word_map=word_map, char_map=char_map, profile=profile)


def _modal(counts: dict, key_of) -> dict:
    """key -> the form of that key with the highest count; ties go to the
    smallest decomposed codepoint sequence."""
    best = {}
    for form, n in counts.items():
        key = key_of(form)
        held = best.get(key)
        if held is None or n > counts[held] or (n == counts[held] and form < held):
            best[key] = form
    return best


def _word_key(text: str, profile: ScriptProfile) -> str:
    """The word key of a token: its runes' (folded) bases."""
    return "".join([r.base for r in segment_runes_counted(text, profile)[0]])


def _predict(model: BaselineModel, key: str) -> list:
    """Per-letter marks for a word key (its stripped, case-folded bases).

    The word map's form when it has one rune per letter; else each base's
    modal rune from the per-letter map, or None (pass through) for a base
    never seen in training.
    """
    stored = model.word_map.get(key)
    if stored is not None:
        stored_runes = segment_runes(stored, model.profile)
        if len(stored_runes) == len(key):
            return ["".join(r.marks) for r in stored_runes]
    modal = [model.char_map.get(base) for base in key]
    return [None if m is None else m[1:] for m in modal]


def diacritize(model: BaselineModel, text: str) -> str:
    """Restore diacritics over running text; output is decomposed.

    Each distinct whitespace token is segmented and restored once, and
    each distinct word key predicted once; whitespace passes through.
    """
    profile = model.profile
    text = normalize_decompose(text)
    predicted: dict[str, list] = {}  # word key -> per-letter marks
    restored: dict[str, str] = {}  # token -> its restoration
    out = []
    end = 0
    for token in text.split():
        # only whitespace lies between the previous token and this one
        start = text.find(token, end)
        out.append(text[end:start])
        end = start + len(token)
        new = restored.get(token)
        if new is None:
            key = _word_key(token, profile)
            if key not in predicted:
                predicted[key] = _predict(model, key)
            new = restored[token] = restore_marks(token, profile, predicted[key])
        out.append(new)
    out.append(text[end:])
    return "".join(out)
