import pytest

from conftest import LATIN
from oracle import o_runes
from runemetrics import Corpus, SamplingConfig, profile, sample


def test_profile_spanish_sentence(spanish_corpus):
    p = profile(spanish_corpus)
    # marked rune types: ñ, ó, é
    assert p.distinct_marked_runes == 3
    assert p.pct_words_diacritized == pytest.approx(100 * 4 / 7)
    assert p.mean_diacs_per_diacritized_word == pytest.approx(1.0)
    assert p.system_class == "Single"
    assert p.density_pct == pytest.approx(16.0)
    assert p.multi_diacritic_pct == 0.0
    assert p.pct_lines_diacritized == 100.0


def test_profile_multi_classification(hebrew_corpus):
    p = profile(hebrew_corpus)
    assert p.multi_diacritic_pct > 0
    assert p.system_class == "Multi"


def test_any_double_marked_rune_means_multi():
    corpus = Corpus.from_lines(["plain words", "one ắ here"], LATIN)
    assert profile(corpus).system_class == "Multi"


def test_profile_counts_lines_and_words():
    corpus = Corpus.from_lines(["á b", "c d", "é"], LATIN)
    p = profile(corpus)
    assert p.pct_lines_diacritized == pytest.approx(100 * 2 / 3)
    assert p.pct_words_diacritized == pytest.approx(100 * 2 / 5)


def test_profile_percentages_bounded(hebrew_corpus, spanish_corpus):
    for c in (hebrew_corpus, spanish_corpus):
        p = profile(c)
        for v in (p.multi_diacritic_pct, p.pct_words_diacritized, p.pct_lines_diacritized):
            assert 0.0 <= v <= 100.0
        assert p.density_pct >= 0.0  # density itself may exceed 100
        assert p.distinct_marked_runes <= sum(1 for r in o_runes(c) if r[1:])


def test_mean_diacs_per_word():
    corpus = Corpus.from_lines(["ắé xy"], LATIN)  # one word with 3 marks
    p = profile(corpus)
    assert p.mean_diacs_per_diacritized_word == pytest.approx(3.0)


def test_classification_survives_sampling():
    # guarantee every sentence carries a multi-marked token
    lines = [f"w{i} ắ" for i in range(20)]
    corpus = Corpus.from_lines(lines, LATIN)
    sampled = sample(corpus, SamplingConfig(target_base_chars=10, seed=4))
    assert profile(sampled).system_class == profile(corpus).system_class == "Multi"


def test_orphan_warning_count():
    corpus = Corpus.from_lines(["́abc", "def"], LATIN)
    assert profile(corpus).warnings == 1


def test_as_dict_columns(spanish_corpus):
    row = profile(spanish_corpus).as_dict()
    assert list(row) == [
        "density_pct", "multi_pct", "words_diac_pct",
        "lines_diac_pct", "mean_diacs_per_word", "n_runes", "system",
    ]
