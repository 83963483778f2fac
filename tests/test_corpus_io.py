import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL_PROFILES, ADVERSARIAL_TEXT, LATIN, SPANISH
from oracle import o_conllu_texts, o_runes, o_sample, o_segment
from runemetrics import (
    Corpus,
    CorpusError,
    SamplingConfig,
    Sentence,
    Xorshift64Star,
    read_corpus,
    read_plaintext,
    sample,
    write_plaintext,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_read_plaintext_lines(tmp_path):
    p = write(tmp_path, "c.txt", "uno\ndos\ntres\n")
    corpus = read_corpus(p, LATIN)
    assert corpus.texts == [(0, "uno"), (1, "dos"), (2, "tres")]


def test_read_plaintext_skips_blanks(tmp_path):
    p = write(tmp_path, "c.txt", "uno\n\n  \ndos\n")
    corpus = read_corpus(p, LATIN)
    assert corpus.texts == [(0, "uno"), (3, "dos")]


def test_read_plaintext_spanish_runes(tmp_path):
    p = write(tmp_path, "c.txt", SPANISH + "\n")
    corpus = read_corpus(p, LATIN)
    assert len(o_runes(corpus)) == 25


def test_read_plaintext_empty_ok(tmp_path):
    p = write(tmp_path, "c.txt", "")
    assert read_corpus(p, LATIN).texts == []


def test_read_plaintext_bad_utf8(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"abc\xff\xfedef")
    with pytest.raises(CorpusError, match="byte offset 3"):
        read_corpus(p, LATIN)


CONLLU_TEXT_COMMENT = """# sent_id = 1
# text = abc.
1\tabc\tabc\tX\t_\t_\t0\troot\t_\t_
2\t.\t.\tPUNCT\t_\t_\t1\tpunct\t_\t_

"""

CONLLU_SPACEAFTER = """1\tfoo\tfoo\tX\t_\t_\t0\troot\t_\tSpaceAfter=No
2\t!\t!\tPUNCT\t_\t_\t1\tpunct\t_\t_

"""

CONLLU_RANGE = """1\tvamos\tir\tVERB\t_\t_\t0\troot\t_\t_
2-3\tdel\t_\t_\t_\t_\t_\t_\t_\t_
2\tde\tde\tADP\t_\t_\t4\tcase\t_\t_
3\tel\tel\tDET\t_\t_\t4\tdet\t_\t_
4\tsur\tsur\tNOUN\t_\t_\t1\tobl\t_\t_

"""


def test_conllu_text_comment_wins(tmp_path):
    p = write(tmp_path, "a.conllu", CONLLU_TEXT_COMMENT)
    corpus = read_corpus(p, LATIN)
    assert [text for _, text in corpus.texts] == ["abc."]


def test_conllu_text_comment_without_spaces(tmp_path):
    doc = "# text=xyz\n" + CONLLU_SPACEAFTER + "# text_en = ignored\n" + CONLLU_SPACEAFTER
    corpus = read_corpus(write(tmp_path, "a.conllu", doc), LATIN)
    assert [text for _, text in corpus.texts] == ["xyz", "foo!"]


def test_conllu_space_after_no(tmp_path):
    p = write(tmp_path, "a.conllu", CONLLU_SPACEAFTER)
    corpus = read_corpus(p, LATIN)
    assert [text for _, text in corpus.texts] == ["foo!"]


def test_conllu_multiword_range(tmp_path):
    p = write(tmp_path, "a.conllu", CONLLU_RANGE)
    corpus = read_corpus(p, LATIN)
    assert [text for _, text in corpus.texts] == ["vamos del sur"]


def test_conllu_malformed_line(tmp_path):
    p = write(tmp_path, "a.conllu", "1\tonly\tthree\n")
    with pytest.raises(CorpusError, match="line 1"):
        read_corpus(p, LATIN)


def test_lines_end_only_at_universal_newlines(tmp_path):
    p = write(tmp_path, "c.txt", "a\u2028b caf\u00e9\fx\x1cy\u0085z\r\nuno\rdos\n")
    corpus = read_corpus(p, LATIN)
    assert corpus.texts == [(0, "a\u2028b caf\u00e9\fx\x1cy\u0085z"), (1, "uno"), (2, "dos")]


def test_conllu_form_may_hold_a_line_separator(tmp_path):
    doc = "1\tab\u0085c\tx\tX\t_\t_\t0\troot\t_\t_\n\n" + CONLLU_SPACEAFTER
    corpus = read_corpus(write(tmp_path, "a.conllu", doc), LATIN)
    assert corpus.texts == [(0, "ab\u0085c"), (2, "foo!")]


def test_conllu_multiple_sentences(tmp_path):
    p = write(tmp_path, "a.conllu", CONLLU_TEXT_COMMENT + CONLLU_RANGE)
    corpus = read_corpus(p, LATIN)
    assert [text for _, text in corpus.texts] == ["abc.", "vamos del sur"]


def test_a_txt_file_is_read_as_lines_whatever_it_holds(tmp_path):
    doc = CONLLU_TEXT_COMMENT + "\n \r\nuno dos\r" + CONLLU_RANGE
    p = write(tmp_path, "c.txt", doc)
    corpus = read_corpus(p, LATIN)
    assert corpus.texts == read_plaintext(p, LATIN).texts
    assert [text for _, text in corpus.texts] == [line for line in doc.splitlines() if line.strip()]
    assert corpus.texts[0] == (0, "# sent_id = 1")


def _conllu_row(tid, form, misc):
    return "\t".join((tid, form, "lemma", "X", "_", "_", "0", "dep", "_", misc))


# a whitespace-only form rebuilds a whitespace-only text when it stands alone
_CONLLU_FORM = st.one_of(st.text(st.sampled_from("ab\u00f1e\u0301\u05e9\u05b8 .=#\u0085"), min_size=1, max_size=4),
                         st.sampled_from((" ", "\u3000", " \u0085")))
_CONLLU_MISC = st.sampled_from(("_", "SpaceAfter=No", "Gloss=x|SpaceAfter=No", "SpaceAfter=No|Gloss=x",
                                "Gloss=x", "SpaceAfter=Yes", "NoSpaceAfter=No"))
_TEXT_COMMENT = st.sampled_from(("# text = ", "# text=", "#text =", "#  text  =  ", "# text =\t"))


@st.composite
def _conllu_block(draw):
    """The lines of one block: comments, then tokens numbered from 1, with
    multiword ranges over them and empty nodes between them."""
    lines = []
    if draw(st.booleans()):
        lines.append("# sent_id = s")
    if draw(st.booleans()):  # a blank or whitespace-only comment text is a blank text
        lines.append(draw(_TEXT_COMMENT) + draw(st.text(st.sampled_from("ab\u00f1 \t\u3000=#"), max_size=5)))
    if draw(st.booleans()):
        lines.append("# text_en = " + draw(_CONLLU_FORM))
    n = draw(st.integers(0, 5))
    if n == 0 and draw(st.booleans()):
        lines.append(_conllu_row("1.1", draw(_CONLLU_FORM), draw(_CONLLU_MISC)))
    covered = 0
    for i in range(1, n + 1):
        if i > covered and i < n and draw(st.booleans()):
            covered = draw(st.integers(i + 1, n))
            lines.append(_conllu_row(f"{i}-{covered}", draw(_CONLLU_FORM), draw(_CONLLU_MISC)))
        lines.append(_conllu_row(str(i), draw(_CONLLU_FORM), draw(_CONLLU_MISC)))
        if draw(st.integers(0, 3)) == 0:
            lines.append(_conllu_row(f"{i}.1", draw(_CONLLU_FORM), draw(_CONLLU_MISC)))
    return lines


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_conllu_block(), max_size=5), st.sampled_from(("\n", "\r\n", "\r")),
       st.lists(st.sampled_from(("", " ", "\t")), min_size=1, max_size=2),
       st.sampled_from(("", "\n", "\n\n")))
def test_conllu_texts_are_the_reference_readers(tmp_path, blocks, newline, blank, end):
    """Blocks are separated by blank or whitespace-only lines, and the last
    one ends in one of: no newline, a newline, or a blank line."""
    separator = newline + newline.join(blank) + newline
    doc = separator.join(newline.join(block) for block in blocks) + end
    p = tmp_path / "g.conllu"
    p.write_bytes(doc.encode("utf-8"))
    assert read_corpus(p, LATIN).texts == o_conllu_texts(doc)


@settings(max_examples=200, deadline=None)
@given(st.lists(ADVERSARIAL_TEXT, max_size=5), st.sampled_from(ADVERSARIAL_PROFILES))
def test_sentences_are_the_reference_segmentation_of_each_text(lines, profile):
    corpus = Corpus.from_lines(lines, profile)
    want = [Sentence(text, tuple(runes), i, orphans)
            for i, text in corpus.texts for runes, orphans in [o_segment(text, profile)]]
    assert corpus.sentences == want


def test_prng_is_stable():
    # frozen first outputs of the documented generator; any change to the
    # recurrence or seeding is a compatibility break
    rng = Xorshift64Star(1)
    assert [rng.next64() for _ in range(3)] == [
        5424204624148110235,
        15555979849632202484,
        6851360858507811590,
    ]


def test_prng_below_range():
    rng = Xorshift64Star(42)
    draws = [rng.below(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_sample_repeats_small_corpus():
    corpus = Corpus.from_lines(["abcdefghij"], LATIN)  # one 10-rune sentence
    out = sample(corpus, SamplingConfig(target_base_chars=25, seed=1))
    assert out.texts == [(0, "abcdefghij")] * 3
    assert len(o_runes(out)) == 30


def test_sample_threshold_crossing():
    corpus = Corpus.from_lines(["abcdefghij", "klmnopqrst"], LATIN)
    out = sample(corpus, SamplingConfig(target_base_chars=5, seed=1))
    assert len(out.texts) == 1


def test_sample_size_bound():
    lines = [f"{'abcde' * 20}" for _ in range(1000)]  # 100 runes each
    corpus = Corpus.from_lines(lines, LATIN)
    out = sample(corpus, SamplingConfig(target_base_chars=300_000, seed=9))
    assert 300_000 <= len(o_runes(out)) <= 300_099


def test_sample_deterministic_and_provenance(tmp_path):
    lines = [f"s{i} " + "xyz " * (i % 5 + 1) for i in range(50)]
    corpus = Corpus.from_lines(lines, LATIN)
    cfg = SamplingConfig(target_base_chars=200, seed=3)
    a = sample(corpus, cfg)
    b = sample(corpus, cfg)
    assert a.texts == b.texts
    assert set(a.texts) <= set(corpus.texts)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_plaintext(a, pa)
    write_plaintext(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert pa.read_bytes().endswith(b"\n")


@settings(max_examples=200, deadline=None)
@given(st.lists(ADVERSARIAL_TEXT, min_size=1, max_size=8), st.sampled_from(ADVERSARIAL_PROFILES),
       st.integers(1, 300), st.integers(0, 2**64 - 1))
def test_sample_reaches_its_target_with_the_last_pick(lines, profile, target, seed):
    corpus = Corpus.from_lines(lines, profile)
    if not o_runes(corpus):
        with pytest.raises(CorpusError):
            sample(corpus, SamplingConfig(target, seed))
        return
    picked = sample(corpus, SamplingConfig(target, seed)).texts
    sizes = [len(o_segment(text, profile)[0]) for _, text in picked]
    assert sum(sizes) >= target > sum(sizes[:-1])
    assert sample(corpus, SamplingConfig(target, seed)).texts == picked


@settings(max_examples=200, deadline=None)
@given(st.lists(ADVERSARIAL_TEXT, max_size=8), st.sampled_from(ADVERSARIAL_PROFILES),
       st.integers(1, 300), st.integers(0, 2**64 - 1))
def test_sample_matches_reference_sampler(lines, profile, target, seed):
    corpus = Corpus.from_lines(lines, profile)
    cfg = SamplingConfig(target, seed)
    try:
        want = o_sample(corpus, cfg)
    except CorpusError as e:
        with pytest.raises(CorpusError, match=str(e)):
            sample(corpus, cfg)
        return
    assert sample(corpus, cfg).texts == want


def test_sample_different_seeds_differ():
    lines = [f"word{i} " * 3 for i in range(100)]
    corpus = Corpus.from_lines(lines, LATIN)
    a = sample(corpus, SamplingConfig(target_base_chars=100, seed=1))
    b = sample(corpus, SamplingConfig(target_base_chars=100, seed=2))
    assert a.texts != b.texts


def test_sample_zero_runes_rejected():
    corpus = Corpus.from_lines(["..!", "123"], LATIN)
    with pytest.raises(CorpusError, match="unsampleable"):
        sample(corpus, SamplingConfig(target_base_chars=10, seed=1))


def test_sample_empty_corpus_rejected():
    with pytest.raises(CorpusError):
        sample(Corpus([], LATIN), SamplingConfig(target_base_chars=10, seed=1))


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(target_base_chars=0)
