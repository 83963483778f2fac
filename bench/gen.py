"""Seeded input generator for the runemetrics benchmark.

Stdlib only, with its own seeded PRNG streams, and it never imports ``runemetrics``: a
change to the program cannot change the inputs it is measured on.  The same
seed gives byte-identical files on any platform.

Latin-like text is written NFC-precomposed with ~6% marked letters (some
with two marks), capitals, punctuation, a few blank lines and a few
line-initial orphan marks.  Hebrew-like text is pointed (vowels, dagesh,
shin/sin dots), and some consonant skeletons carry several pointings, so a
restorer trained on it cannot be perfect.  Word frequencies follow a Zipf
law over a fixed vocabulary.

``generate`` also returns the ground-truth counts of what it wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import unicodedata
from bisect import bisect

class Rng:
    """Seeded draws built on ``random.Random.random`` alone: for an integer
    seed, Python guarantees that sequence across versions and platforms
    (unlike ``choice`` or ``randrange``)."""

    def __init__(self, seed: int):
        self.random = random.Random(seed).random

    def below(self, n: int) -> int:
        return int(self.random() * n)

    def choice(self, seq):
        return seq[int(self.random() * len(seq))]


def substream(seed: int, name: str) -> Rng:
    """An independent generator per (seed, purpose)."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return Rng(int.from_bytes(digest[:8], "little"))


class Word:
    """One vocabulary entry: its decomposed text and what it contains."""

    __slots__ = ("text", "letters", "marks")

    def __init__(self, text: str, letters: int, marks: int):
        self.text = text
        self.letters = letters
        self.marks = marks


# -- Latin-like vocabulary --------------------------------------------------

_CONSONANTS = "bcdfghjklmnprstvz" * 3 + "qwxy"
_VOWELS = "aeiou"
_VOWEL_MARKS = ("́", "̀", "̂", "̈", "̃", "̄", "̆", "̊")
_MARK_PAIRS = (("̂", "́"), ("̂", "̣"), ("̈", "́"),
               ("̆", "̀"), ("̛", "̃"))
_CONSONANT_MARKS = {"c": "̧", "n": "̃", "s": "̌", "z": "̌"}


def _latin_syllable(rng: Rng, p_mark: float) -> Word:
    parts = []
    letters = marks = 0
    syllable = [rng.choice(_CONSONANTS)] if rng.random() < 0.85 else []
    syllable.append(rng.choice(_VOWELS))
    if rng.random() < 0.3:
        syllable.append(rng.choice(_CONSONANTS))
    for ch in syllable:
        letters += 1
        parts.append(ch)
        if rng.random() >= p_mark:
            continue
        if ch in _VOWELS:
            if rng.random() < 0.15:
                parts.extend(rng.choice(_MARK_PAIRS))
                marks += 2
            else:
                parts.append(rng.choice(_VOWEL_MARKS))
                marks += 1
        elif ch in _CONSONANT_MARKS:
            parts.append(_CONSONANT_MARKS[ch])
            marks += 1
    return Word("".join(parts), letters, marks)


def latin_vocabulary(rng: Rng, n_types: int, p_mark: float) -> list[Word]:
    """``n_types`` distinct words of one to four syllables; each letter of
    a syllable is marked with probability ~``p_mark``."""
    syllables = [_latin_syllable(rng, p_mark) for _ in range(4000)]
    words: list[Word] = []
    seen: set[str] = set()
    while len(words) < n_types:
        parts = [rng.choice(syllables) for _ in range(1 + rng.below(4))]
        text = "".join(w.text for w in parts)
        if text not in seen:
            seen.add(text)
            words.append(Word(text, sum(w.letters for w in parts), sum(w.marks for w in parts)))
    return words


# -- Hebrew-like vocabulary -------------------------------------------------

_HEB_LETTERS = [chr(c) for c in range(0x05D0, 0x05EB) if c not in (0x05DA, 0x05DD, 0x05DF, 0x05E3, 0x05E5)]
_HEB_FINAL = {"כ": "ך", "מ": "ם", "נ": "ן", "פ": "ף", "צ": "ץ"}
_SHIN = "ש"
_HEB_VOWELS = ("ְ", "ֲ", "ִ", "ֵ", "ֶ", "ַ", "ָ", "ֹ", "ֻ")
_DAGESH = "ּ"
_SHIN_DOTS = ("ׁ", "ׂ")


def _point(rng: Rng, skeleton: str) -> tuple[str, int]:
    parts = []
    marks = 0
    for i, ch in enumerate(skeleton):
        parts.append(ch)
        if ch == _SHIN:
            parts.append(rng.choice(_SHIN_DOTS))
            marks += 1
        if rng.random() < 0.2:
            parts.append(_DAGESH)
            marks += 1
        if i < len(skeleton) - 1 or rng.random() < 0.3:
            parts.append(rng.choice(_HEB_VOWELS))
            marks += 1
    return unicodedata.normalize("NFD", "".join(parts)), marks


def hebrew_vocabulary(rng: Rng, n_skeletons: int) -> list[Word]:
    """Pointed words; ~20% of skeletons get two or three pointings."""
    words: list[Word] = []
    seen: set[str] = set()
    for _ in range(n_skeletons):
        letters = [rng.choice(_HEB_LETTERS) for _ in range(2 + rng.below(5))]
        letters[-1] = _HEB_FINAL.get(letters[-1], letters[-1])
        skeleton = "".join(letters)
        u = rng.random()
        for _ in range(1 if u < 0.8 else 2 if u < 0.95 else 3):
            text, marks = _point(rng, skeleton)
            if text not in seen:
                seen.add(text)
                words.append(Word(text, len(skeleton), marks))
    # ranks are shuffled so a skeleton's pointings get unrelated frequencies
    for i in range(len(words) - 1, 0, -1):
        j = rng.below(i + 1)
        words[i], words[j] = words[j], words[i]
    return words


# -- running text -----------------------------------------------------------

def zipf_cumulative(n: int, s: float) -> list[float]:
    cum, total = [], 0.0
    for rank in range(1, n + 1):
        total += rank ** -s
        cum.append(total)
    return cum


class FileStats:
    """Ground truth for one written file.  ``runes`` counts letters and
    ``marks`` counts marks attached to a letter; orphans are separate."""

    def __init__(self):
        self.lines = self.blank_lines = self.words = 0
        self.runes = self.marks = self.orphan_marks = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


def write_text(path, rng: Rng, vocab: list[Word], cum: list[float], target_runes: int,
               latin: bool) -> FileStats:
    """Write whole lines of Zipf-drawn words until ``target_runes`` letters.

    Latin lines get capitals, punctuation, rare blank lines, rare
    non-word tokens and rare line-initial orphan marks.
    """
    stats = FileStats()
    total = cum[-1]
    random = rng.random
    out = []
    while stats.runes < target_runes:
        if latin and random() < 0.01:
            out.append("")
            stats.lines += 1
            stats.blank_lines += 1
            continue
        tokens = []
        for k in range(6 + rng.below(15)):
            w = vocab[bisect(cum, random() * total)]
            text = w.text
            u = random()
            if latin and (k == 0 or u < 0.03):
                text = text[0].upper() + text[1:]
            if u > 0.92:
                text += ","
            tokens.append(text)
            stats.words += 1
            stats.runes += w.letters
            stats.marks += w.marks
            if latin and u < 0.004:
                tokens.append("—" if u < 0.002 else str(1000 + rng.below(9000)))
        line = " ".join(tokens) + (rng.choice(".?!") if latin else ".")
        if latin and random() < 0.003:
            line = "́" + line
            stats.orphan_marks += 1
        out.append(unicodedata.normalize("NFC", line))
        stats.lines += 1
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(out) + "\n")
    return stats


def write_language_table(path, rng: Rng, n_rows: int = 20) -> None:
    """A per-language TSV with a linear rs/word_acc relation plus noise and
    two missing cells."""
    rows = ["language\tfamily\trs\tword_acc"]
    for i in range(n_rows):
        rs = 0.05 + 0.6 * rng.random()
        acc = 97.0 - 20.0 * rs + 6.0 * (rng.random() - 0.5)
        acc_cell = "--" if i in (3, 11) else f"{acc:.6f}"
        rows.append(f"lang{i:02d}\tfam{i % 4}\t{rs:.6f}\t{acc_cell}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(rows) + "\n")


def generate(workload: str, seed: int, outdir) -> dict:
    """Write the inputs of ``workload`` under ``outdir``; return
    ``{file name: ground-truth counts}`` (also saved as ``inputs.json``)."""
    os.makedirs(outdir, exist_ok=True)
    p = lambda name: os.path.join(outdir, name)  # noqa: E731
    record = {}
    if workload == "describe":
        vocab = latin_vocabulary(substream(seed, "latin-vocab"), 20_000, 0.1)
        record["source.txt"] = write_text(p("source.txt"), substream(seed, "source"), vocab,
                                          zipf_cumulative(len(vocab), 1.0), 1_000_000, latin=True)
        heb = hebrew_vocabulary(substream(seed, "hebrew-vocab"), 12_000)
        record["hebrew.txt"] = write_text(p("hebrew.txt"), substream(seed, "hebrew"), heb,
                                          zipf_cumulative(len(heb), 1.0), 300_000, latin=False)
        write_language_table(p("languages.tsv"), substream(seed, "table"))
    elif workload == "restore":
        heb = hebrew_vocabulary(substream(seed, "hebrew-vocab"), 12_000)
        cum = zipf_cumulative(len(heb), 1.0)
        rng = substream(seed, "hebrew")
        record["train.txt"] = write_text(p("train.txt"), rng, heb, cum, 300_000, latin=False)
        record["heldout.txt"] = write_text(p("heldout.txt"), rng, heb, cum, 100_000, latin=False)
    elif workload == "bulk":
        vocab = latin_vocabulary(substream(seed, "latin-vocab"), 200_000, 0.1)
        record["bulk.txt"] = write_text(p("bulk.txt"), substream(seed, "bulk"), vocab,
                                        zipf_cumulative(len(vocab), 0.8), 3_000_000, latin=True)
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    record = {name: stats.as_dict() for name, stats in record.items()}
    with open(os.path.join(outdir, "inputs.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return record
