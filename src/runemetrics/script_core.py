"""Rune data model (decomposition, segmentation, stripping, rendering) and input decoding.

A *rune* is one base letter plus the combining marks attached to it,
regardless of how many codepoints encode it in the source text.  All
analysis in this package happens at the rune level, so this module is the
foundation everything else builds on.  A rune is its canonical spelling,
a ``str``: its base as the profile folds it (one codepoint, ``r[0]``),
then its marks (``r[1:]``), each once and in canonical order.  So
:func:`render` spells runes, not the source text; the text's case,
spacing and punctuation are kept by :func:`strip_text` and
:func:`restore_marks`, which rewrite the text itself.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter, namedtuple

__all__ = [
    "CorpusError",
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
    "count_runes",
    "count_token_runes",
    "fold_token_spellings",
    "spell_text",
    "marked_rune_pattern",
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
    for which ``str.isalpha`` holds (category L*).  Whitespace ends words,
    so it may not be allowlisted: a line then segments to the runes and
    orphan marks of its whitespace tokens.
    Each character's class is worked out once per profile and memoised, as
    is each distinct rune with the rune each mark turns it into, so equal
    runes are one interned string per profile; the memos sit outside the
    value, so equality and hashing are the four fields'.
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
            elif ch.isalpha():
                kind = self._state(_fold(ch) if self.casefold else ch)
            else:
                kind = _OTHER
            self._kinds[ch] = kind
        return kind

    def _state(self, rune: str):
        """The state ``(rune, steps)`` of the interned rune spelled
        ``rune``, marks canonical; ``steps`` maps a mark to the state of
        the rune with that mark added, filled by :meth:`_step`."""
        state = self._states.get(rune)
        if state is None:
            state = self._states[rune] = (rune, {})
        return state

    def _step(self, state, mark: str):
        """The state after reading mark on state's rune.  Canonical marks
        are a function of the set read, so one mark at a time reaches the
        rune the whole sequence canonicalises to."""
        rune, steps = state
        steps[mark] = new = self._state(rune[0] + _canonical_marks(rune[1:] + mark))
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


def _canonical_marks(marks: str) -> str:
    # dedup, then ascending (combining class, codepoint)
    return "".join(sorted(set(marks), key=lambda m: (unicodedata.combining(m), ord(m))))


def _fold(ch: str) -> str:
    # simple one-to-one lowercase; multi-char expansions (rare after NFD)
    # are left alone rather than changing the letter count
    low = ch.lower()
    return low if len(low) == 1 else ch


def segment_runes_counted(text: str, profile: ScriptProfile) -> tuple[list[str], int]:
    """Segment text into runes in one pass; also return the orphan-mark count.

    A mark with no preceding base letter (at the start of the text, or
    after whitespace or punctuation) is degenerate input: it is dropped
    and tallied, never an error.
    """
    kinds = profile._kinds
    runes = []
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


def count_runes(text: str, profile: ScriptProfile) -> int:
    """The number of runes :func:`segment_runes_counted` finds in text,
    counted without building them: each letter begins one rune, and a
    letter is a character for which ``str.isalpha`` holds, less those the
    profile reads as marks."""
    text = normalize_decompose(text)
    return sum(map(str.isalpha, text)) - sum(text.count(ch) for ch in profile.extra_mark_allowlist if ch.isalpha())


def count_token_runes(tokens, profile: ScriptProfile) -> tuple[Counter, int, int, int]:
    """Count the runes of ``tokens``, a mapping of decomposed text without
    whitespace to its count: each rune of a token counts as often as the
    token, and the runes and orphan marks are those
    :func:`segment_runes_counted` finds in it.

    Returns ``(counts, words, marked, orphans)``: rune -> count, in the
    order the tokens first show each rune; the count of tokens that hold
    a rune; of those that hold a marked rune; and of orphan marks.
    """
    kinds = profile._kinds
    counts = {}  # a plain dict: item assignment on a subclass is slower
    get = counts.get
    words = marked = orphans = 0
    for token, n in tokens.items():
        state = None  # as in segment_runes_counted
        has_rune = has_mark = False
        for ch in token:
            kind = kinds.get(ch) or profile._kind(ch)
            if kind is _MARK:
                if state is None:
                    orphans += n
                else:
                    state = state[1].get(ch) or profile._step(state, ch)
                    has_mark = True
                continue
            if state is not None:
                rune = state[0]
                counts[rune] = get(rune, 0) + n
                has_rune = True
            state = None if kind is _OTHER else kind
        if state is not None:
            rune = state[0]
            counts[rune] = get(rune, 0) + n
            has_rune = True
        if has_rune:
            words += n
            if has_mark:
                marked += n
    return Counter(counts), words, marked, orphans


def fold_token_spellings(tokens, profile: ScriptProfile) -> tuple[dict, dict]:
    """Fold ``tokens``, a mapping of decomposed text without whitespace to
    its count, into word forms and runes: the runes are those
    :func:`segment_runes_counted` finds.

    Returns ``(forms, runes)``: ``forms`` maps the spelling of each token
    that holds a rune (its runes joined) to ``[word key, count]``, the
    key being its runes' bases, and a form's count sums the counts of the
    tokens that spell it; ``runes`` maps each rune to its count, each
    rune of a token counting as often as the token.
    """
    kinds = profile._kinds
    forms = {}
    runes = {}
    get = runes.get
    for token, n in tokens.items():
        state = None  # as in segment_runes_counted
        spelled, bases = [], []
        for ch in token:
            kind = kinds.get(ch) or profile._kind(ch)
            if kind is _MARK:
                if state is not None:
                    state = state[1].get(ch) or profile._step(state, ch)
                continue
            if state is not None:
                rune = state[0]
                spelled.append(rune)
                runes[rune] = get(rune, 0) + n
            if kind is _OTHER:
                state = None
            else:
                state = kind
                bases.append(kind[0])  # a bare rune is its base
        if state is not None:
            rune = state[0]
            spelled.append(rune)
            runes[rune] = get(rune, 0) + n
        if bases:
            form = "".join(spelled)
            held = forms.get(form)
            if held is None:
                forms[form] = ["".join(bases), n]
            else:
                held[1] += n
    return forms, runes


def spell_text(text: str, profile: ScriptProfile) -> tuple[str, str, int, int]:
    """Spell text's runes in one pass.

    Returns ``(spelling, key, orphans, others)``: the runes
    :func:`segment_runes_counted` finds in text joined (as :func:`render`
    spells them), their bases joined, its orphan marks, and how many of
    its characters are neither letters nor marks.
    """
    kinds = profile._kinds
    spelled, bases = [], []
    orphans = others = 0
    state = None  # as in segment_runes_counted
    for ch in normalize_decompose(text):
        kind = kinds.get(ch) or profile._kind(ch)
        if kind is _MARK:
            if state is None:
                orphans += 1
            else:
                state = state[1].get(ch) or profile._step(state, ch)
            continue
        if state is not None:
            spelled.append(state[0])
        if kind is _OTHER:
            others += 1
            state = None
        else:
            state = kind
            bases.append(kind[0])
    if state is not None:
        spelled.append(state[0])
    return "".join(spelled), "".join(bases), orphans, others


def marked_rune_pattern(profile: ScriptProfile) -> re.Pattern:
    """A pattern that finds a marked rune in decomposed text: a letter
    directly followed by a mark, each drawn from the characters the
    profile has classified so far, so it serves text whose characters
    were all segmented or counted under the profile first."""
    letters, marks = [], []
    for ch, kind in profile._kinds.items():
        if kind is _MARK:
            marks.append(re.escape(ch))
        elif kind is not _OTHER:
            letters.append(re.escape(ch))
    if not (letters and marks):
        return re.compile("(?!)")  # no letter can carry a mark
    return re.compile(f"[{''.join(letters)}][{''.join(marks)}]")


def strip_text(text: str, profile: ScriptProfile) -> str:
    """Remove diacritic marks from running text, preserving everything else.

    Whitespace, punctuation and casing are kept, so the result is an
    undiacritized copy of a corpus file.  Each distinct mark character is
    removed from the whole decomposed text at once; the distinct
    characters are read from the distinct whitespace tokens, since no
    mark is whitespace.  Output is decomposed:
    removing an allowlisted mark of combining class 0 can leave the marks
    around it out of canonical order.
    """
    text = normalize_decompose(text)
    kinds = profile._kinds
    for ch in set("".join(set(text.split()))):
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
        out.append(ch if keep else ch + rune[1:])  # a letter keeps its case
    return "".join(out)


def render(runes: list[str], form: str = "decomposed") -> str:
    """Spell runes as text: each rune's (folded) base, then its marks.

    form="decomposed" emits base + canonically ordered marks per rune;
    form="composed" additionally applies canonical composition (NFC).
    Segmenting the result under the same profile gives the runes back;
    the source text's case, spacing and punctuation are not in them.
    """
    s = "".join(runes)
    if form == "composed":
        return unicodedata.normalize("NFC", s)
    if form != "decomposed":
        raise ValueError(f"unknown render form: {form!r}")
    return s
