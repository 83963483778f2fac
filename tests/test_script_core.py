import json
import random
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL_PROFILES, ADVERSARIAL_TEXT, HEBREW, SPANISH, random_corpus, runes_of
from oracle import o_runes, o_segment, o_strip
from runemetrics import (
    Rune,
    ScriptProfile,
    get_profile,
    load_profile,
    normalize_decompose,
    render,
    strip_text,
)
from runemetrics.script_core import (
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


def test_segment_spanish_counts(latin):
    runes = runes_of(SPANISH, latin)
    assert len(runes) == 25
    marked = [r for r in runes if r.marks]
    assert len(marked) == 4
    assert len({m for r in marked for m in r.marks}) == 2


def test_segment_hebrew_counts():
    runes = runes_of(HEBREW, get_profile("hebrew"))
    assert len(runes) == 14
    assert sum(len(r.marks) for r in runes) == 14
    assert len({m for r in runes for m in r.marks}) == 6


def test_segment_empty(latin):
    assert runes_of("", latin) == []


def test_segment_skips_non_letters(latin):
    runes = runes_of("a1, b! ?c", latin)
    assert [r.base for r in runes] == ["a", "b", "c"]


def test_segment_rune_count_matches_letter_count(latin):
    # total segmentation: one rune per L* codepoint after decomposition
    rng = random.Random(7)
    for _ in range(50):
        corpus = random_corpus(rng)
        [(_, text)] = corpus.texts
        n_letters = sum(
            1 for ch in normalize_decompose(text)
            if unicodedata.category(ch).startswith("L")
        )
        assert len(runes_of(text, latin)) == n_letters


def test_orphan_marks_counted_not_fatal(latin):
    runes, orphans = segment_runes_counted("́abc", latin)
    assert orphans == 1
    assert [r.base for r in runes] == ["a", "b", "c"]


def test_casefold_stability(latin):
    upper = runes_of("É", latin)
    lower = runes_of("é", latin)
    assert upper == lower
    assert upper[0] is lower[0]


def test_casefold_disabled():
    profile = ScriptProfile("latin-nocase", casefold=False)
    assert runes_of("É", profile) != runes_of("é", profile)


def test_duplicate_marks_collapse(latin):
    runes = runes_of("á́", latin)
    assert runes == [Rune("a", ("\u0301",))]


def test_mark_canonical_order(latin):
    # cedilla (ccc 202) sorts before acute (ccc 230) regardless of input order
    a = runes_of("c\u0327\u0301", latin)
    b = runes_of("c\u0301\u0327", latin)
    assert a == b
    assert a[0].marks == ("\u0327", "\u0301")


def test_strip_spanish_spelling(latin):
    stripped = strip_text(SPANISH, latin)
    assert stripped == "El nino bebio cafe en la manana"
    runes, orphans = segment_runes_counted(stripped, latin)
    assert "".join(r.base for r in runes) == "elninobebiocafeenlamanana"
    assert not any(r.marks for r in runes) and orphans == 0


def test_render_composed():
    assert render([Rune("a", ("́",))], "composed") == "á"
    assert render([Rune("a", ("̆", "́"))], "composed") == "ắ"


def test_render_hebrew_decomposed():
    r = Rune("ב", ("ָ", "ּ"))
    out = render([r], "decomposed")
    assert [ord(c) for c in out] == [0x05D1, 0x05B8, 0x05BC]


def test_segment_render_round_trip(latin):
    rng = random.Random(13)
    for _ in range(100):
        corpus = random_corpus(rng)
        runes = o_runes(corpus)
        assert runes_of(render(runes, "decomposed"), latin) == runes
        assert runes_of(render(runes, "composed"), latin) == runes


def test_profile_allow_and_deny(latin):
    deny = ScriptProfile("no-tilde", mark_denylist=frozenset("̃"))
    runes = runes_of("ñá", deny)
    assert runes[0].marks == () and runes[1].marks == ("́",)
    allow = ScriptProfile("apostrophe-mark", extra_mark_allowlist=frozenset("'"))
    assert runes_of("a'", allow)[0].marks == ("'",)


def test_profile_overlap_rejected():
    with pytest.raises(ValueError):
        ScriptProfile("bad", extra_mark_allowlist=frozenset("x"), mark_denylist=frozenset("x"))


def test_profile_json_round_trip(tmp_path):
    doc = '{"name": "heb-custom", "extra_mark_allowlist": ["U+05F3"], "mark_denylist": ["U+0591"], "casefold": false}'
    p = tmp_path / "prof.json"
    p.write_text(doc, encoding="utf-8")
    prof = load_profile(p)
    assert prof.name == "heb-custom"
    # the allowlisted geresh is a mark; the denylisted etnahta is not, nor is it a letter
    assert segment_runes_counted("א׳֑", prof) == ([Rune("א", ("׳",))], 0)
    assert strip_text("א׳֑", prof) == "א֑"
    assert not prof.casefold
    assert get_profile(str(p)).name == "heb-custom"


def test_profile_document_round_trip():
    prof = ScriptProfile("custom", extra_mark_allowlist=frozenset("'\U0001d167"),
                         mark_denylist=frozenset("\u0591\u0302"), casefold=False)
    doc = profile_to_doc(prof)
    assert doc == {"name": "custom", "extra_mark_allowlist": ["U+0027", "U+1D167"],
                   "mark_denylist": ["U+0302", "U+0591"], "casefold": False}
    assert profile_from_doc(json.loads(json.dumps(doc))) == prof


@pytest.mark.parametrize("field, value", [
    ("name", 7),
    ("extra_mark_allowlist", "U+0301"),  # a string, not a list of them
    ("mark_denylist", [769]),
    ("casefold", "false"),
    ("casefold", 0),
    ("mark_denylst", ["U+0301"]),  # a misspelt field would otherwise be ignored
])
def test_profile_document_fields_are_type_checked(tmp_path, field, value):
    p = tmp_path / "prof.json"
    p.write_text(json.dumps({"name": "custom", field: value}), encoding="utf-8")
    with pytest.raises(ValueError, match=f"prof.json: malformed profile document .*{field}"):
        load_profile(p)


@given(st.text(st.characters(), min_size=1, max_size=5))
def test_codepoint_spelling_round_trip(text):
    assert parse_cps(format_cps(text)) == text


@pytest.mark.parametrize("spec", ["", "U+", "U+0061+", "0061", "X+0061", "U+ZZ", "U+110000", "ab"])
def test_codepoint_spelling_rejects_malformed(spec):
    with pytest.raises(ValueError, match="not a codepoint spec"):
        parse_cps(spec)


@settings(max_examples=300, deadline=None)
@given(text=ADVERSARIAL_TEXT, which=st.sampled_from(range(len(ADVERSARIAL_PROFILES))))
def test_one_pass_matches_reference_segmenter(text, which):
    profile = ADVERSARIAL_PROFILES[which]
    runes, orphans = segment_runes_counted(text, profile)
    want, want_orphans = o_segment(text, profile)
    assert runes == want
    assert orphans == want_orphans


@settings(max_examples=300, deadline=None)
@given(text=ADVERSARIAL_TEXT, profile=st.sampled_from(ADVERSARIAL_PROFILES),
       form=st.sampled_from(("decomposed", "composed")))
def test_render_then_segment_gives_the_runes_back(text, profile, form):
    runes = runes_of(text, profile)
    assert runes_of(render(runes, form), profile) == runes


@settings(max_examples=300, deadline=None)
@given(text=ADVERSARIAL_TEXT, profile=st.sampled_from(ADVERSARIAL_PROFILES))
# an allowlisted mark of class 0 kept two denylisted marks in canonical order
@example(text="a\u0302'\u0591", profile=ADVERSARIAL_PROFILES[2])
def test_strip_text_is_idempotent(text, profile):
    once = strip_text(text, profile)
    assert strip_text(once, profile) == once


def test_equal_runes_of_either_case_are_one_object(latin):
    first = runes_of("\u00c9 \u00e9", latin)
    second = runes_of("\u00e9\u00c9", latin)
    assert first[0] is first[1] is second[0] is second[1]
    assert render(first, "composed") == render(second, "composed") == "\u00e9\u00e9"
    # marks read in another order intern to the same canonical rune
    assert runes_of("c\u0327\u0301", latin)[0] is runes_of("c\u0301\u0327", latin)[0]


def test_a_rune_of_either_case_is_one_object_after_its_marks(latin):
    upper, lower = runes_of("E\u0301\u0327 e\u0327\u0301", latin)
    assert upper is lower
    # precomposed, then one more mark: the same interned rune
    assert runes_of("\u00c9\u0327", latin)[0] is upper
    assert runes_of("\u00e9\u0327\u0327\u0301", latin)[0] is upper


@settings(max_examples=300, deadline=None)
@given(text=ADVERSARIAL_TEXT, profile=st.sampled_from(ADVERSARIAL_PROFILES))
# marks read in either order, of either case, duplicated, or of one combining class
@example(text="E\u0301\u0327 e\u0327\u0301", profile=ADVERSARIAL_PROFILES[0])
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


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(ADVERSARIAL_TEXT, max_size=5), profile=st.sampled_from(ADVERSARIAL_PROFILES))
# an allowlisted mark of class 0 between denylisted marks, and a blank line
@example(lines=["a\u0302'\u0591\u0301", "", "'b\u0327\u0301"], profile=ADVERSARIAL_PROFILES[2])
def test_strip_text_strips_lines_as_one_text(lines, profile):
    whole = strip_text("\n".join(lines), profile)
    assert whole == "\n".join(strip_text(line, profile) for line in lines)
    assert whole == "\n".join(o_strip(line, profile) for line in lines)


# Runes over a few bases and marks, so equal pairs come up often; marks are
# kept in the order drawn, since equality does not canonicalise them.
_RUNE_ARGS = st.tuples(
    st.sampled_from("ab\u05d0\U0001d400"),
    st.lists(st.sampled_from("\u05b8\u0301\u0303"), max_size=2).map(tuple),
)


@settings(max_examples=300, deadline=None)
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
