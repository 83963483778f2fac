"""Descriptive corpus statistics and single-/multi-diacritic classification."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus_io import Corpus

# Stable TSV column order for profile output; part of the interface.
PROFILE_COLUMNS = (
    "language",
    "corpus",
    "density_pct",
    "multi_pct",
    "words_diac_pct",
    "lines_diac_pct",
    "mean_diacs_per_word",
    "n_runes",
    "system",
)


@dataclass
class CorpusProfile:
    density_pct: float
    multi_diacritic_pct: float      # share of ALL rune tokens bearing >= 2 marks
    pct_words_diacritized: float    # words with >= 1 mark
    pct_lines_diacritized: float
    mean_diacs_per_diacritized_word: float
    distinct_marked_runes: int      # marked rune TYPES only
    system_class: str               # "Multi" iff any token bears >= 2 marks
    warnings: int                   # orphan combining marks dropped at segmentation

    def as_row(self, language: str = "", corpus: str = "") -> dict:
        return {
            "language": language,
            "corpus": corpus,
            "density_pct": self.density_pct,
            "multi_pct": self.multi_diacritic_pct,
            "words_diac_pct": self.pct_words_diacritized,
            "lines_diac_pct": self.pct_lines_diacritized,
            "mean_diacs_per_word": self.mean_diacs_per_diacritized_word,
            "n_runes": self.distinct_marked_runes,
            "system": self.system_class,
        }


def profile(corpus: Corpus) -> CorpusProfile:
    total_runes = 0
    total_marks = 0
    multi_tokens = 0
    marked_types = set()
    n_words = 0
    n_words_marked = 0
    n_lines = 0
    n_lines_marked = 0
    orphans = 0

    # every rune lies in some word, so the word loop sees them all
    for sent in corpus.sentences:
        n_lines += 1
        orphans += sent.orphan_marks
        total_runes += len(sent.runes)
        line_marks = 0
        for word in sent.words():
            n_words += 1
            wmarks = 0
            for r in word:
                if r.marks:
                    k = len(r.marks)
                    wmarks += k
                    if k >= 2:
                        multi_tokens += 1
                    marked_types.add(r)
            if wmarks:
                n_words_marked += 1
                line_marks += wmarks
        if line_marks:
            n_lines_marked += 1
            total_marks += line_marks

    if n_words == 0:
        raise ValueError("corpus contains no words")

    return CorpusProfile(
        density_pct=100.0 * total_marks / total_runes,
        multi_diacritic_pct=100.0 * multi_tokens / total_runes,
        pct_words_diacritized=100.0 * n_words_marked / n_words,
        pct_lines_diacritized=100.0 * n_lines_marked / n_lines,
        mean_diacs_per_diacritized_word=(
            total_marks / n_words_marked if n_words_marked else 0.0
        ),
        distinct_marked_runes=len(marked_types),
        system_class="Multi" if multi_tokens else "Single",
        warnings=orphans,
    )
