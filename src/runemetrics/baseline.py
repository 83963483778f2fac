"""Frequency baseline for diacritics restoration.

Word lookup first (stripped, case-folded word -> most frequent diacritized
form), falling back to a per-letter map (base -> most frequent rune).  No
context modeling: this is a deterministic floor for the evaluation
harness, not a competitive restorer.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from .corpus_io import Corpus, rune_counts
from .script_core import (
    BUILTIN_PROFILES,
    ScriptProfile,
    get_profile,
    normalize_decompose,
    profile_from_doc,
    profile_to_doc,
    read_document,
    render,
    restore_marks,
    segment_runes_counted,
    strip_text,
)

# v2 stores the profile's document form in meta["profile"]; v1 stored
# only its name, so a v1 model loads by that name.
FORMAT_VERSION = 2


class BaselineModel:
    def __init__(self, word_runes: dict, char_runes: dict, profile: ScriptProfile, meta: dict | None = None):
        self.word_runes = word_runes  # stripped casefolded word -> runes of its modal form
        self.char_runes = char_runes  # base char -> its modal rune
        self.meta = {} if meta is None else meta
        self.profile = profile

    def dumps(self) -> str:
        """The model file's text: what :meth:`save` and ``train -o`` write."""
        doc = {
            "format_version": FORMAT_VERSION,
            "meta": {**self.meta, "profile": profile_to_doc(self.profile)},
            "word_map": {k: render(runes) for k, runes in self.word_runes.items()},
            "char_map": {k: r.text() for k, r in self.char_runes.items()},
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
        word_runes = _read_map(doc, "word_map", profile)
        char_runes = {base: runes[0] for base, runes in _read_map(doc, "char_map", profile).items()}
        meta = {k: v for k, v in doc["meta"].items() if k != "profile"}  # held once, as .profile
        return cls(word_runes=word_runes, char_runes=char_runes, meta=meta, profile=profile)


def _read_map(doc: dict, name: str, profile: ScriptProfile) -> dict:
    """The model document's map ``name`` as key -> the runes of its value,
    each value segmented once.  A value's bases must spell its key, a
    value holds a letter, and a ``char_map`` key is one letter.  A value
    is letters and their marks under the profile alone: stripped of its
    marks, it is letters, and it has no orphan mark."""
    table = doc[name]
    if not (isinstance(table, dict) and all(isinstance(v, str) for v in table.values())):
        raise ValueError(f"{name} is not an object of string -> string")
    # one strip of all the values clears every table that dumps writes; a table it does not clear
    # is stripped value by value, to name the first value that is not letters
    suspect = not strip_text("".join(table.values()), profile).isalpha()
    held = {}
    for key, value in table.items():
        runes, orphans = segment_runes_counted(value, profile)
        if not runes or _key(runes) != key or (name == "char_map" and len(runes) != 1):
            raise ValueError(f"{name}[{key!r}] does not spell its key: {value!r}")
        if orphans or suspect and not strip_text(value, profile).isalpha():
            raise ValueError(f"{name}[{key!r}] is not letters and their marks: {value!r}")
        held[key] = tuple(runes)
    return held


def _key(runes) -> str:
    """The word key of runes: their (folded) bases, joined."""
    return "".join([r.base for r in runes])


def train(corpus: Corpus) -> BaselineModel:
    """Keep each word key's modal form and each base's modal rune.

    Each distinct token is segmented once, and the runes of one that holds
    a letter are its form.  Forms are counted once each, and rune counts
    are summed from the forms.
    """
    forms = Counter()  # runes of each token that holds a letter -> its count
    for _, n, word, _ in corpus.token_runes():
        if word:
            forms[tuple(word)] += n
    if not forms:
        raise ValueError("cannot train on a corpus with no words")
    # a rune as the one-rune form it spells
    modal_runes = _modal({(r,): n for r, n in rune_counts(forms.items()).items()})
    char_runes = {base: runes[0] for base, runes in modal_runes.items()}
    return BaselineModel(word_runes=_modal(forms), char_runes=char_runes, profile=corpus.profile)


def _modal(counts: dict) -> dict:
    """word key -> the form (runes) of that key with the highest count; ties
    go to the form whose spelling is the smallest codepoint sequence."""
    best = {}
    for form, n in counts.items():
        key = _key(form)
        held = best.get(key)
        if held is None or n > counts[held] or (n == counts[held] and render(form) < render(held)):
            best[key] = form
    return best


def diacritize(model: BaselineModel, text: str) -> str:
    """Restore diacritics over running text; output is decomposed.

    Each distinct whitespace token is segmented and restored once;
    whitespace passes through.  A word takes the word map's runes for its
    key (its stripped, case-folded bases); else each letter takes its
    base's modal rune from the per-letter map, or keeps its marks when its
    base was never seen in training.
    """
    profile = model.profile
    parts = re.split(r"(\s+)", normalize_decompose(text))  # tokens at the even indexes
    restored = {"": ""}  # token -> its restoration; "" where the text starts or ends with whitespace
    for i in range(0, len(parts), 2):
        token = parts[i]
        new = restored.get(token)
        if new is None:
            key = _key(segment_runes_counted(token, profile)[0])
            runes = model.word_runes.get(key) or [model.char_runes.get(base) for base in key]
            new = restored[token] = restore_marks(token, profile, runes)
        parts[i] = new
    return "".join(parts)
