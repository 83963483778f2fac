"""Rune data model (decomposition, segmentation, stripping, rendering) and input decoding.

A *rune* is one base letter plus the combining marks attached to it,
regardless of how many codepoints encode it in the source text.  All
analysis in this package happens at the rune level, so this module is the
foundation everything else builds on.  A rune holds its base as the
profile folds it, so :func:`render` spells runes, not the source text;
the text's case, spacing and punctuation are kept by :func:`strip_text`
and :func:`restore_marks`, which rewrite the text itself.
"""

from __future__ import annotations

import unicodedata
from collections import Counter, namedtuple

__all__ = [
    "CorpusError",
    "Rune",
    "ScriptProfile",
    "BUILTIN_PROFILES",
    "get_profile",
    "load_profile",
    "decode_utf8",
    "split_lines",
    "read_document",
    "profile_to_doc",
    "profile_from_doc",
    "format_cps",
    "parse_cps",
    "normalize_decompose",
    "segment_runes_counted",
    "strip_text",
    "restore_marks",
    "render",
]


class CorpusError(ValueError):
    """Malformed input (bad UTF-8, broken CoNLL-U framing, ...)."""


def normalize_decompose(text: str) -> str:
    """Canonical decomposition (NFD) with marks in canonical order. Idempotent."""
    return unicodedata.normalize("NFD", text)


def format_cps(text: str) -> str:
    """Spell out the codepoints of text: "a\u0301" -> "U+0061+U+0301"."""
    return "+".join(f"U+{ord(ch):04X}" for ch in text)


def parse_cps(spec: str) -> str:
    """Inverse of :func:`format_cps`; a bare single character stands for itself."""
    if len(spec) == 1:
        return spec
    parts = spec.split("+")
    if len(parts) % 2 == 0 and all(u in ("U", "u") for u in parts[::2]):
        try:
            return "".join(chr(int(h, 16)) for h in parts[1::2])
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"not a codepoint spec: {spec!r}")


def _parse_cp(spec: str) -> str:
    ch = parse_cps(spec)
    if len(ch) != 1:
        raise ValueError(f"not a single codepoint: {spec!r}")
    if "\ud800" <= ch <= "\udfff":  # no UTF-8 text holds one, so no output could spell it
        raise ValueError(f"not a character but a surrogate: {spec!r}")
    return ch


# What a character is to a profile: a mark or anything else.  A letter's
# kind is instead the state of its bare interned rune, so the segmentation
# loop gets the rune from the same lookup.
_MARK, _OTHER = "mark", "other"


class ScriptProfile(namedtuple("ScriptProfile", "name extra_mark_allowlist mark_denylist casefold")):
    """Per-script knobs for what counts as a diacritic mark.

    After decomposition a codepoint is treated as a mark iff its general
    category is Mn or Mc, plus anything in ``extra_mark_allowlist`` and
    minus anything in ``mark_denylist``.  A letter is any other codepoint
    of category L*.  Whitespace ends words, so it may not be allowlisted:
    a line then segments to the runes and orphan marks of its whitespace
    tokens.
    Each character's class is worked out once per profile and memoised, as
    is each distinct rune with the rune each mark turns it into; the memos
    sit outside the value, so equality and hashing are the four fields'.
    """

    def __new__(cls, name: str, extra_mark_allowlist: frozenset[str] = frozenset(),
                mark_denylist: frozenset[str] = frozenset(), casefold: bool = True):
        overlap = extra_mark_allowlist & mark_denylist
        if overlap:
            raise ValueError(f"allowlist and denylist overlap: {sorted(overlap)}")
        if any(ch.isspace() for ch in extra_mark_allowlist):
            raise ValueError("allowlist holds whitespace, which must end words")
        self = tuple.__new__(cls, (name, extra_mark_allowlist, mark_denylist, casefold))
        self._kinds, self._states = {}, {}
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def _kind(self, ch: str):
        """``_MARK``, ``_OTHER``, or the state of a letter's bare rune."""
        kind = self._kinds.get(ch)
        if kind is None:
            category = unicodedata.category(ch)
            if ch not in self.mark_denylist and (ch in self.extra_mark_allowlist or category in ("Mn", "Mc")):
                kind = _MARK
            elif category.startswith("L"):
                kind = self._state(_fold(ch) if self.casefold else ch, ())
            else:
                kind = _OTHER
            self._kinds[ch] = kind
        return kind

    def _state(self, base: str, marks: tuple[str, ...]):
        """The state ``(rune, steps)`` of the interned rune ``(base, marks)``,
        marks canonical; ``steps`` maps a mark to the state of the rune with
        that mark added, filled by :meth:`_step`."""
        key = (base, marks)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = (Rune(base, marks), {})
        return state

    def _step(self, state, mark: str):
        """The state after reading mark on state's rune.  Canonical marks
        are a function of the set read, so one mark at a time reaches the
        rune the whole sequence canonicalises to."""
        rune, steps = state
        steps[mark] = new = self._state(rune.base, _canonical_marks(rune.marks + (mark,)))
        return new


# All four shipped scripts encode their diacritics as Mn/Mc combining marks
# after NFD, so the builtin profiles need no allow/deny entries; they exist
# so corpora carry an explicit profile name and users have a place to hang
# overrides (e.g. denylisting Hebrew cantillation, U+0591..U+05AF).
BUILTIN_PROFILES = {
    "latin-generic": ScriptProfile(name="latin-generic"),
    "hebrew": ScriptProfile(name="hebrew"),
    "arabic": ScriptProfile(name="arabic"),
    "bengali": ScriptProfile(name="bengali"),
}


def profile_to_doc(profile: ScriptProfile) -> dict:
    """The JSON document form of a profile, codepoints spelled "U+XXXX"."""
    return {
        "name": profile.name,
        "extra_mark_allowlist": [format_cps(ch) for ch in sorted(profile.extra_mark_allowlist)],
        "mark_denylist": [format_cps(ch) for ch in sorted(profile.mark_denylist)],
        "casefold": profile.casefold,
    }


def profile_from_doc(doc: dict) -> ScriptProfile:
    """Build a profile from its JSON document form.

    Schema: {"name": str, "extra_mark_allowlist": ["U+05BC", ...],
    "mark_denylist": [...], "casefold": bool}; all fields but "name"
    optional.  A field of another type, or of another name, is rejected.
    """
    if not isinstance(doc, dict):
        raise ValueError("a profile document is a JSON object")
    unknown = doc.keys() - {"name", "extra_mark_allowlist", "mark_denylist", "casefold"}
    if unknown:
        raise ValueError(f"unknown profile field {min(unknown)!r}")
    name, casefold = doc["name"], doc.get("casefold", True)
    if not isinstance(name, str):
        raise ValueError(f"profile name is not a string: {name!r}")
    if not isinstance(casefold, bool):
        raise ValueError(f"casefold is not true or false: {casefold!r}")
    lists = []
    for field in ("extra_mark_allowlist", "mark_denylist"):
        specs = doc.get(field, [])
        if not (isinstance(specs, list) and all(isinstance(t, str) for t in specs)):
            raise ValueError(f"{field} is not a list of strings: {specs!r}")
        lists.append(frozenset(_parse_cp(t) for t in specs))
    return ScriptProfile(name, *lists, casefold)


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"repeated key {key!r}")
    return doc


def split_lines(text: str) -> list[str]:
    """The lines of text, ended by universal newlines (``\n``, ``\r\n``,
    ``\r``) alone, as a file opened in text mode reads them: form feeds,
    U+0085 and U+2028 stay inside their line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def decode_utf8(path) -> str:
    """The whole file as text, less one leading byte-order mark; invalid
    UTF-8 fails with its line, numbered as :func:`split_lines` ends lines,
    and its byte offset, counted from the file's first byte.  Every input
    file is read through it: corpora, tables, profile documents and models."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        line = len(split_lines(data[:e.start].decode("utf-8")))  # every byte before e.start decodes
        raise CorpusError(f"{path}: line {line}: invalid UTF-8 at byte offset {e.start}") from None


def read_document(path, build, kind: str):
    """Parse the JSON file at path and return ``build(document)``.  A
    document that repeats a key, nests deeper than the parser can recurse,
    or that ``build`` cannot use, fails as ``<path>: malformed <kind>
    document (...)``; it is decoded, and fails to read, as a corpus does."""
    import json

    text = decode_utf8(path)
    try:
        return build(json.loads(text, object_pairs_hook=_unique_keys))
    except (KeyError, TypeError, AttributeError, ValueError, RecursionError) as e:
        raise ValueError(f"{path}: malformed {kind} document ({type(e).__name__}: {e})") from None


def load_profile(path) -> ScriptProfile:
    """Load a profile from a JSON file holding its document form."""
    return read_document(path, profile_from_doc, "profile")


def get_profile(name_or_path: str) -> ScriptProfile:
    """Resolve a builtin profile name or a path to a profile JSON file.
    Each call returns a new profile, with its own memos."""
    if name_or_path in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[name_or_path]._replace()
    return load_profile(name_or_path)


class Rune(namedtuple("Rune", "base marks", defaults=((),))):
    """One base letter plus its attached marks: the value ``(base, marks)``.

    ``base`` is the (case-folded, when the profile folds) base character;
    ``marks`` is the canonically ordered, duplicate-free mark tuple.  A
    rune is an immutable tuple, so it equals, hashes and sorts like the
    plain tuple ``(base, marks)``.
    """

    __slots__ = ()

    def key(self) -> str:
        """The rune's identity spelled out: "U+0061+U+0301"."""
        return format_cps(self.text())

    def text(self) -> str:
        """Decomposed text for this rune alone: its base, then its marks."""
        return self.base + "".join(self.marks)


def _canonical_marks(marks) -> tuple[str, ...]:
    # dedup, then ascending (combining class, codepoint)
    uniq = dict.fromkeys(marks)
    return tuple(sorted(uniq, key=lambda m: (unicodedata.combining(m), ord(m))))


def _fold(ch: str) -> str:
    # simple one-to-one lowercase; multi-char expansions (rare after NFD)
    # are left alone rather than changing the letter count
    low = ch.lower()
    return low if len(low) == 1 else ch


def segment_runes_counted(text: str, profile: ScriptProfile) -> tuple[list[Rune], int]:
    """Segment text into runes in one pass; also return the orphan-mark count.

    A mark with no preceding base letter (at the start of the text, or
    after whitespace or punctuation) is degenerate input: it is dropped
    and tallied, never an error.
    """
    kinds = profile._kinds
    runes: list[Rune] = []
    orphans = 0
    state = None  # (rune, steps) of the letter whose marks are being read
    for ch in normalize_decompose(text):
        kind = kinds.get(ch) or profile._kind(ch)
        if kind is _MARK:
            if state is None:
                orphans += 1
            else:
                state = state[1].get(ch) or profile._step(state, ch)
            continue
        if state is not None:
            runes.append(state[0])
        state = None if kind is _OTHER else kind
    if state is not None:
        runes.append(state[0])
    return runes, orphans


def strip_text(text: str, profile: ScriptProfile) -> str:
    """Remove diacritic marks from running text, preserving everything else.

    Whitespace, punctuation and casing are kept, so the result is an
    undiacritized copy of a corpus file.  Each distinct mark character is
    removed from the whole decomposed text at once.  Output is decomposed:
    removing an allowlisted mark of combining class 0 can leave the marks
    around it out of canonical order.
    """
    text = normalize_decompose(text)
    kinds = profile._kinds
    for ch in set(text):
        if (kinds.get(ch) or profile._kind(ch)) is _MARK:
            text = text.replace(ch, "")
    return normalize_decompose(text)


def restore_marks(text: str, profile: ScriptProfile, runes) -> str:
    """Give the i-th letter of text the marks of the rune ``runes[i]``; output is decomposed.

    A letter given a rune loses the marks it carried.  A letter given None
    keeps its marks, as does a mark with no letter before it; everything
    else passes through.  ``runes`` holds one entry per rune of
    :func:`segment_runes_counted` on the same text.
    """
    kinds = profile._kinds
    letters = iter(runes)
    out = []
    keep = True  # marks after a letter given None, or after no letter, survive
    for ch in normalize_decompose(text):
        kind = kinds.get(ch) or profile._kind(ch)
        if kind is _MARK:
            if keep:
                out.append(ch)
            continue
        rune = next(letters) if kind is not _OTHER else None
        keep = rune is None
        out.append(ch if keep else ch + "".join(rune.marks))  # a letter keeps its case
    return "".join(out)


def render(runes: list[Rune], form: str = "decomposed") -> str:
    """Spell runes as text: each rune's (folded) base, then its marks.

    form="decomposed" emits base + canonically ordered marks per rune;
    form="composed" additionally applies canonical composition (NFC).
    Segmenting the result under the same profile gives the runes back;
    the source text's case, spacing and punctuation are not in them.
    """
    s = "".join([r.text() for r in runes])
    if form == "composed":
        return unicodedata.normalize("NFC", s)
    if form != "decomposed":
        raise ValueError(f"unknown render form: {form!r}")
    return s
