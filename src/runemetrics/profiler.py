"""Descriptive corpus statistics and single-/multi-diacritic classification."""

from __future__ import annotations

from collections import namedtuple

from .corpus_io import Corpus
from .metrics import FrequencyTables, density
from .script_core import count_token_runes, marked_rune_pattern, normalize_decompose


class CorpusProfile(namedtuple("CorpusProfile", (
        "density_pct",
        "multi_diacritic_pct",              # share of ALL rune tokens bearing >= 2 marks
        "pct_words_diacritized",            # words with >= 1 mark
        "pct_lines_diacritized",
        "mean_diacs_per_diacritized_word",
        "distinct_marked_runes",            # marked rune TYPES only
        "system_class",                     # "Multi" iff any token bears >= 2 marks
        "warnings",                         # orphan combining marks dropped at segmentation
))):
    __slots__ = ()

    def as_dict(self) -> dict:
        """The profile's figures; their keys, in this order, are the columns."""
        return {
            "density_pct": self.density_pct,
            "multi_pct": self.multi_diacritic_pct,
            "words_diac_pct": self.pct_words_diacritized,
            "lines_diac_pct": self.pct_lines_diacritized,
            "mean_diacs_per_word": self.mean_diacs_per_diacritized_word,
            "n_runes": self.distinct_marked_runes,
            "system": self.system_class,
        }


def profile(corpus: Corpus) -> CorpusProfile:
    """Every figure from one fold over the corpus's whitespace tokens: each
    distinct token is counted once and counts as often as it occurs."""
    counts, n_words, n_words_marked, orphans = count_token_runes(corpus.tokens(), corpus.profile)
    if n_words == 0:
        raise ValueError("corpus contains no words")
    t = FrequencyTables(counts)

    # a line is marked iff it holds a marked rune; the fold classified
    # every character the lines' tokens hold
    marked = marked_rune_pattern(corpus.profile).search
    n_lines_marked = sum(marked(normalize_decompose(text)) is not None for _, text in corpus.texts)
    multi_tokens = sum(n for r, n in t.rune_count.items() if len(r.marks) >= 2)
    return CorpusProfile(
        density_pct=100.0 * density(t),
        multi_diacritic_pct=100.0 * multi_tokens / t.total_bases,
        pct_words_diacritized=100.0 * n_words_marked / n_words,
        pct_lines_diacritized=100.0 * n_lines_marked / len(corpus.texts),
        # every rune lies in some word, so all marks are on marked words
        mean_diacs_per_diacritized_word=(
            t.total_marks / n_words_marked if n_words_marked else 0.0
        ),
        distinct_marked_runes=sum(1 for r in t.rune_count if r.marks),
        system_class="Multi" if multi_tokens else "Single",
        warnings=orphans,
    )
