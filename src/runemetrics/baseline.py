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
    segment_runes_counted,
)

# v2 stores the profile's document form in meta["profile"]; v1 stored
# only its name, so a v1 model loads by that name.
FORMAT_VERSION = 2


class BaselineModel:
    def __init__(self, word_runes: dict, char_runes: dict, meta: dict | None = None,
                 profile: ScriptProfile = BUILTIN_PROFILES["latin-generic"]):
        self.word_runes = word_runes  # stripped casefolded word -> runes of its modal form
        self.char_runes = char_runes  # base char -> its modal rune
        self.meta = {} if meta is None else meta
        self.profile = profile

    def save(self, path) -> None:
        doc = {
            "format_version": FORMAT_VERSION,
            "meta": {**self.meta, "profile": profile_to_doc(self.profile)},
            "word_map": {k: "".join([r.text() for r in runes]) for k, runes in self.word_runes.items()},
            "char_map": {k: r.text() for k, r in self.char_runes.items()},
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
        word_runes = _read_map(doc, "word_map", profile)
        char_runes = {base: runes[0] for base, runes in _read_map(doc, "char_map", profile).items()}
        meta = {k: v for k, v in doc["meta"].items() if k != "profile"}  # held once, as .profile
        return cls(word_runes=word_runes, char_runes=char_runes, meta=meta, profile=profile)


def _read_map(doc: dict, name: str, profile: ScriptProfile) -> dict:
    """The model document's map ``name`` as key -> the runes of its value,
    each value segmented once.  A value's bases must spell its key, and a
    ``char_map`` key is one letter."""
    table = doc[name]
    if not (isinstance(table, dict) and all(isinstance(v, str) for v in table.values())):
        raise ValueError(f"{name} is not an object of string -> string")
    held = {}
    for key, value in table.items():
        runes = segment_runes_counted(value, profile)[0]
        if "".join([r.base for r in runes]) != key or (name == "char_map" and len(runes) != 1):
            raise ValueError(f"{name}[{key!r}] does not spell its key: {value!r}")
        held[key] = runes
    return held


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
    form_counts, form_runes = {}, {}
    for word, n in words:
        form = "".join(map(spell.__getitem__, word))
        if form in form_counts:
            form_counts[form] += n
        else:
            form_counts[form] = n
            form_runes[form] = word
    word_forms = _modal(form_counts, lambda form: "".join(map(itemgetter(0), form_runes[form])))
    word_runes = {key: form_runes[form] for key, form in word_forms.items()}
    # marks are single characters, so runes of one base order as their spellings do
    char_runes = _modal(rune_counts, itemgetter(0))
    return BaselineModel(word_runes=word_runes, char_runes=char_runes, profile=profile)


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

    The word map's runes for the key; else each base's modal rune from the
    per-letter map, or None (pass through) for a base never seen in training.
    """
    runes = model.word_runes.get(key)
    if runes is None:
        runes = [model.char_runes.get(base) for base in key]
    return [None if r is None else "".join(r.marks) for r in runes]


def diacritize(model: BaselineModel, text: str) -> str:
    """Restore diacritics over running text; output is decomposed.

    Each distinct whitespace token is segmented and restored once;
    whitespace passes through.
    """
    profile = model.profile
    text = normalize_decompose(text)
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
            new = restored[token] = restore_marks(token, profile, _predict(model, _word_key(token, profile)))
        out.append(new)
    out.append(text[end:])
    return "".join(out)
