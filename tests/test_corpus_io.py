import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL_PROFILES, ADVERSARIAL_TEXT, LATIN, SPANISH, conllu_block, write
from oracle import o_conllu_texts, o_runes, o_sample, o_segment
from runemetrics import (
    Corpus,
    CorpusError,
    SamplingConfig,
    Sentence,
    Xorshift64Star,
    read_corpus,
    sample,
)
from runemetrics import corpus_io


def test_read_corpus_lines(tmp_path):
    p = write(tmp_path, "c.txt", "uno\ndos\ntres\n")
    corpus = read_corpus(p, LATIN)
    assert corpus.texts == [(0, "uno"), (1, "dos"), (2, "tres")]


def test_read_corpus_skips_blanks(tmp_path):
    p = write(tmp_path, "c.txt", "uno\n\n  \ndos\n")
    corpus = read_corpus(p, LATIN)
    assert corpus.texts == [(0, "uno"), (3, "dos")]


def test_a_corpus_keeps_the_pairs_it_is_given_less_blank_texts():
    pairs = [(0, "uno"), (1, ""), (2, " \t"), (3, "dos"), (4, "\u3000")]
    corpus = Corpus(pairs, LATIN)
    assert corpus.texts == [(0, "uno"), (3, "dos")]
    assert corpus.texts[0] is pairs[0] and corpus.texts[1] is pairs[3]


def test_read_corpus_spanish_runes(tmp_path):
    p = write(tmp_path, "c.txt", SPANISH + "\n")
    corpus = read_corpus(p, LATIN)
    assert len(o_runes(corpus)) == 25


def test_read_corpus_empty_ok(tmp_path):
    p = write(tmp_path, "c.txt", "")
    assert read_corpus(p, LATIN).texts == []


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
    assert corpus.texts == [(i, line) for i, line in enumerate(doc.splitlines()) if line.strip()]
    assert corpus.texts[0] == (0, "# sent_id = 1")


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(conllu_block(), max_size=5), st.sampled_from(("\n", "\r\n", "\r")),
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


@settings(max_examples=200)
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
    # bounded draws and the Fisher-Yates shuffle, which the sampler and
    # the oracle's o_sample both use; the shuffle is also the order of the
    # bench's independent implementation of the README recurrence
    rng = Xorshift64Star(42)
    assert [rng.below(7) for _ in range(8)] == [2, 5, 1, 5, 2, 5, 2, 2]
    order = list(range(10))
    Xorshift64Star(1).shuffle(order)
    assert order == [0, 1, 9, 4, 3, 7, 2, 6, 8, 5]


def test_prng_below_range():
    rng = Xorshift64Star(42)
    draws = [rng.below(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_sample_threshold_crossing():
    corpus = Corpus.from_lines(["abcdefghij", "klmnopqrst"], LATIN)
    out = sample(corpus, SamplingConfig(target_base_chars=5, seed=1))
    assert len(out.texts) == 1


def test_sample_deterministic_and_provenance():
    lines = [f"s{i} " + "xyz " * (i % 5 + 1) for i in range(50)]
    corpus = Corpus.from_lines(lines, LATIN)
    cfg = SamplingConfig(target_base_chars=200, seed=3)
    a = sample(corpus, cfg)
    b = sample(corpus, cfg)
    assert a.texts == b.texts
    assert set(a.texts) <= set(corpus.texts)
    held = {id(pair) for pair in corpus.texts}  # each pick is its corpus's own pair, not a copy
    assert all(id(pair) in held for pair in a.texts)


def test_sample_different_seeds_differ():
    lines = [f"word{i} " * 3 for i in range(100)]
    corpus = Corpus.from_lines(lines, LATIN)
    a = sample(corpus, SamplingConfig(target_base_chars=100, seed=1))
    b = sample(corpus, SamplingConfig(target_base_chars=100, seed=2))
    assert a.texts != b.texts


def test_sample_refuses_a_target_past_its_bound_once_the_first_pass_is_whole(monkeypatch):
    monkeypatch.setattr(corpus_io, "_MAX_FURTHER_PICKS", 10)
    corpus = Corpus.from_lines(["ab", "c"], LATIN)  # 3 runes a pass, 1.5 a text
    cfg = SamplingConfig(target_base_chars=3 + 15, seed=1)  # 10 further texts of the mean size
    assert sample(corpus, cfg).texts == o_sample(corpus, cfg)
    with pytest.raises(CorpusError, match="^unsampleable corpus: 3 runes per pass, so a target of 19 needs over 10"):
        sample(corpus, cfg._replace(target_base_chars=19))

