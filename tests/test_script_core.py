import json
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL_PROFILES, ADVERSARIAL_TEXT, SPANISH, runes_of
from oracle import o_segment
from runemetrics import (
    Rune,
    ScriptProfile,
    normalize_decompose,
    render,
    strip_text,
)
from runemetrics.script_core import (
    count_runes,
    format_cps,
    parse_cps,
    profile_from_doc,
    profile_to_doc,
    segment_runes_counted,
)


def test_decompose_precomposed_acute():
    assert normalize_decompose("á") == "á"


def test_decompose_double_diacritic_single_codepoint():
    # U+1EAF carries both breve and acute
    assert normalize_decompose("ắ") == "ắ"


def test_decompose_plain_ascii_and_idempotence():
    assert normalize_decompose("abc") == "abc"
    s = normalize_decompose(SPANISH)
    assert normalize_decompose(s) == s


def test_render_composed():
    assert render([Rune("a", ("\u0301",))], "composed") == "\u00e1"
    assert render([Rune("a", ("\u0306", "\u0301"))], "composed") == "\u1eaf"


def test_render_hebrew_decomposed():
    out = render([Rune("\u05d1", ("\u05b8", "\u05bc"))], "decomposed")
    assert [ord(c) for c in out] == [0x05D1, 0x05B8, 0x05BC]


def test_casefold_disabled():
    profile = ScriptProfile("latin-nocase", casefold=False)
    assert runes_of("\u00c9", profile) != runes_of("\u00e9", profile)


def test_profile_allow_and_deny():
    deny = ScriptProfile("no-tilde", mark_denylist=frozenset("\u0303"))
    runes = runes_of("\u00f1\u00e1", deny)
    assert runes[0].marks == () and runes[1].marks == ("\u0301",)
    allow = ScriptProfile("apostrophe-mark", extra_mark_allowlist=frozenset("'"))
    assert runes_of("a'", allow)[0].marks == ("'",)


def test_profile_overlap_rejected():
    with pytest.raises(ValueError):
        ScriptProfile("bad", extra_mark_allowlist=frozenset("x"), mark_denylist=frozenset("x"))


def test_profile_document_round_trip():
    prof = ScriptProfile("custom", extra_mark_allowlist=frozenset("'\u05f3\U0001d167"),
                         mark_denylist=frozenset("\u0591\u0302"), casefold=False)
    doc = profile_to_doc(prof)
    assert doc == {"name": "custom", "extra_mark_allowlist": ["U+0027", "U+05F3", "U+1D167"],
                   "mark_denylist": ["U+0302", "U+0591"], "casefold": False}
    loaded = profile_from_doc(json.loads(json.dumps(doc)))
    assert loaded == prof
    # the allowlisted geresh is a mark; the denylisted etnahta is not, nor is it a letter
    assert segment_runes_counted("\u05d0\u05f3\u0591", loaded) == ([Rune("\u05d0", ("\u05f3",))], 0)
    assert strip_text("\u05d0\u05f3\u0591", loaded) == "\u05d0\u0591"


@given(st.text(st.characters(), min_size=1, max_size=5))
def test_codepoint_spelling_round_trip(text):
    assert parse_cps(format_cps(text)) == text


@pytest.mark.parametrize("spec", ["", "U+", "U+0061+", "0061", "X+0061", "U+ZZ", "U+110000", "ab"])
def test_codepoint_spelling_rejects_malformed(spec):
    with pytest.raises(ValueError, match="not a codepoint spec"):
        parse_cps(spec)


@settings(max_examples=300)
@given(text=ADVERSARIAL_TEXT, which=st.sampled_from(range(len(ADVERSARIAL_PROFILES))))
# no text; no mark; an orphan mark; a mark twice; marks out of canonical order (cedilla, class
# 202, before acute, 230); one rune per letter of a random corpus line
@example(text="", which=0)
@example(text="a1, b! ?c", which=0)
@example(text="\u0301abc", which=0)
@example(text="\u00e1\u0301", which=0)
@example(text="c\u0327\u0301 c\u0301\u0327", which=0)
@example(text="b\u0303 a\u0303 b d daa\u0302\u0303 bb\u0302 a\u0301\u0302 b\u0301a\u0301\u0303d\u0302d\u0302", which=0)
# a denylisted mark, an allowlisted one, an allowlisted letter, and casefolding off
@example(text="\u00f1\u00e2\u00e1 a'", which=2)
@example(text="a\u02bb \u02bbb", which=2)
@example(text="\u00c9 \u00e9", which=3)
def test_one_pass_matches_reference_segmenter(text, which):
    profile = ADVERSARIAL_PROFILES[which]
    runes, orphans = segment_runes_counted(text, profile)
    want, want_orphans = o_segment(text, profile)
    assert runes == want
    assert orphans == want_orphans
    assert count_runes(text, profile) == len(want)


def test_a_letter_is_what_str_isalpha_says():
    # segmentation and count_runes take str.isalpha for the category L* test
    assert [cp for cp in range(0x110000) if chr(cp).isalpha() != unicodedata.category(chr(cp)).startswith("L")] == []


@settings(max_examples=300)
@given(text=ADVERSARIAL_TEXT, profile=st.sampled_from(ADVERSARIAL_PROFILES),
       form=st.sampled_from(("decomposed", "composed")))
@example(text="c\u0301\u0302\u0303b\u0301\u0302\u0303 b\u0301\u0302\u0303 a\u0301 c\u0303b\u0302d\u0302\u0303",
         profile=ADVERSARIAL_PROFILES[0], form="composed")
def test_render_then_segment_gives_the_runes_back(text, profile, form):
    runes = runes_of(text, profile)
    assert runes_of(render(runes, form), profile) == runes


@settings(max_examples=300)
@given(text=ADVERSARIAL_TEXT, profile=st.sampled_from(ADVERSARIAL_PROFILES))
# an allowlisted mark of class 0 kept two denylisted marks in canonical order
@example(text="a\u0302'\u0591", profile=ADVERSARIAL_PROFILES[2])
def test_strip_text_is_idempotent(text, profile):
    once = strip_text(text, profile)
    assert strip_text(once, profile) == once


@settings(max_examples=300)
@given(text=ADVERSARIAL_TEXT, profile=st.sampled_from(ADVERSARIAL_PROFILES))
# marks read in either order, of either case, precomposed, duplicated, or of one combining class
@example(text="\u00c9 \u00e9\u00e9\u00c9 c\u0327\u0301 c\u0301\u0327", profile=ADVERSARIAL_PROFILES[0])
@example(text="E\u0301\u0327 e\u0327\u0301 \u00c9\u0327 \u00e9\u0327\u0327\u0301", profile=ADVERSARIAL_PROFILES[0])
@example(text="e\u0301\u0301\u0301 E\u0301\u0301", profile=ADVERSARIAL_PROFILES[0])
@example(text="a\u0302\u0301 A\u0301\u0302 a\u0301\u0302", profile=ADVERSARIAL_PROFILES[0])
@example(text="\u05e9\u05c1\u05b8 \u05e9\u05b8\u05c1", profile=ADVERSARIAL_PROFILES[1])
def test_every_rune_is_the_profiles_interned_object(text, profile):
    seen = {}  # the first rune of each value
    # the rendering spells each rune's marks in canonical order
    for source in (text, text[::-1], render(runes_of(text, profile))):
        runes = runes_of(source, profile)
        assert runes == o_segment(source, profile)[0]
        for r in runes:
            assert seen.setdefault(r, r) is r


# Runes over a few bases and marks, so equal pairs come up often; marks are
# kept in the order drawn, since equality does not canonicalise them.
_RUNE_ARGS = st.tuples(
    st.sampled_from("ab\u05d0\U0001d400"),
    st.lists(st.sampled_from("\u05b8\u0301\u0303"), max_size=2).map(tuple),
)


@settings(max_examples=300)
@given(a=_RUNE_ARGS, b=_RUNE_ARGS)
def test_rune_is_the_value_base_and_marks(a, b):
    ra, rb = Rune(*a), Rune(*b)
    same = a == b
    assert (ra == rb) is same and (ra != rb) is not same
    assert (hash(ra) == hash(rb)) is same
    assert ra == a and hash(ra) == hash(a)
    assert (ra.base, ra.marks) == a
    assert repr(ra) == f"Rune(base={a[0]!r}, marks={a[1]!r})"
    for name in ("base", "marks", "upper"):
        with pytest.raises(AttributeError):
            setattr(ra, name, b[0])
    assert (ra.base, ra.marks) == a


def test_rune_hash_and_equality_are_the_tuples():
    assert Rune.__hash__ is tuple.__hash__
    assert Rune.__eq__ is tuple.__eq__
    for cls in Rune.__mro__[:-2]:  # all but tuple and object
        assert "__hash__" not in vars(cls) and "__eq__" not in vars(cls)
