"""The restorer reads the one segmentation pass: checked against the
token-by-token reference restorer."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL_PROFILES, LATIN, SPANISH, saved_doc
from oracle import o_diacritize
from runemetrics import (
    Corpus,
    ScriptProfile,
    diacritize,
    get_profile,
    strip_text,
    train,
)

# Training lines: Latin-like and Hebrew-like words whose letters carry
# zero to two marks, so keys are ambiguous and some bases stay unmarked.
_LATIN_RUNE = st.tuples(st.sampled_from("abcenAEN\u01c5"),
                        st.lists(st.sampled_from("\u0301\u0302\u0303\u0327"), max_size=2))
_HEBREW_RUNE = st.tuples(st.sampled_from("\u05d0\u05d1\u05e9\u05ea"),
                         st.lists(st.sampled_from("\u05b8\u05bc\u05c1\u0591"), max_size=2))


def _lines(rune):
    word = st.lists(rune, min_size=1, max_size=5).map(
        lambda rs: "".join(base + "".join(marks) for base, marks in rs))
    line = st.lists(word, min_size=1, max_size=6).map(" ".join)
    return st.lists(line, min_size=1, max_size=6)


# Input text: orphan marks after spaces and punctuation, punctuation-only
# tokens, ǅ/İ/ẞ, a non-BMP letter, Unicode spaces, bases never trained.
_ALPHABET = (
    "abcenzAENZ\u00e9\u00f1\u1eaf\u01c5\u0130\u1e9e\U0001d400"
    "\u05d0\u05d1\u05e9\u05ea\u05d2"
    "\u0301\u0302\u0303\u0327\u05b8\u05bc\u05c1\u0591"
    " \t\u00a0\u3000\u2002\u202f\r\n"
    ".,'1-\""
)
# U+2000 and U+2001 decompose to U+2002 and U+2003; the reference restorer
# emits whitespace unnormalised, so they are checked on their own below.
_CHAR = st.one_of(st.sampled_from(_ALPHABET),
                  st.characters(exclude_characters="\u2000\u2001"))


@st.composite
def _case(draw):
    profile = draw(st.sampled_from(ADVERSARIAL_PROFILES))
    lines = draw(st.one_of(_lines(_LATIN_RUNE), _lines(_HEBREW_RUNE)))
    model = train(Corpus.from_lines(lines, profile))
    # stripped training words (word-map hits, in any case) mixed with
    # random characters (per-letter fallbacks and unseen bases)
    words = [strip_text(w, profile) for line in lines for w in line.split()]
    piece = st.one_of(st.sampled_from(words), st.sampled_from(words).map(str.upper),
                      st.text(_CHAR, max_size=6))
    text = "".join(draw(st.lists(piece, max_size=12)))
    return model, text


def _trained(line, text):
    """A case: a Latin model trained on line, and text to restore."""
    return train(Corpus.from_lines([line], LATIN)), text


@settings(max_examples=300, deadline=None)
@given(_case())
# the per-letter fallback where each base always carries one mark; unmarked words; an unseen
# script; a word of other case; no text; punctuation around a word
@example(_trained("\u00e1b\u00e1 c\u00e9c\u00e9", "aceb aba"))
@example(_trained(SPANISH, "lbea amlilnacbo abba meomebf nmielncncalf fflaeaineaoc fmcfbflablf oamnclmeab"))
@example(_trained("solo latino aqu\u00ed", "\u03a8\u03c5\u03c7\u03ae 123 \u2026"))
@example(_trained("m\u00e9xico m\u00e9xico", "Mexico"))
@example(_trained("abc", ""))
@example(_trained("caf\u00e9", '"cafe," dijo.'))
def test_diacritize_matches_reference_restorer(case):
    model, text = case
    restored = diacritize(model, text)
    assert restored == o_diacritize(saved_doc(model), model.profile, text)
    assert strip_text(restored, model.profile) == strip_text(text, model.profile)  # only marks change


def test_word_map_hit_fallback_and_unseen_base():
    model = train(Corpus.from_lines(["n\u0303ino ca\u0301fe"], get_profile("latin-generic")))
    text = "Nino fanc \u05d0 cafe"
    out = diacritize(model, text)
    assert out == o_diacritize(saved_doc(model), model.profile, text)
    assert out == "N\u0303ino fa\u0301nc \u05d0 ca\u0301fe"


def test_em_and_en_quads_come_out_decomposed():
    model = train(Corpus.from_lines(["ca\u0301fe"], get_profile("latin-generic")))
    assert diacritize(model, "cafe\u2000cafe\u2001x") == "ca\u0301fe\u2002ca\u0301fe\u2003x"


def test_allowlisted_whitespace_rejected():
    with pytest.raises(ValueError, match="whitespace"):
        ScriptProfile("bad", extra_mark_allowlist=frozenset("'\u00a0"))
