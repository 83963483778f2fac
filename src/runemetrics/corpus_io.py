"""Corpus reading (plain text / CoNLL-U) and seeded fixed-size sampling."""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property

from .script_core import (CorpusError, ScriptProfile, decode_utf8, normalize_decompose, segment_runes_counted,
                          split_lines)

__all__ = [
    "Sentence",
    "Corpus",
    "SamplingConfig",
    "Xorshift64Star",
    "read_corpus",
    "read_plaintext",
    "rune_counts",
    "sample",
    "write_plaintext",
]

_MASK64 = (1 << 64) - 1
_MAX_FURTHER_PICKS = 1 << 20  # texts a sample may pick after its first pass, each held until written


class Sentence(namedtuple("Sentence", "raw_text runes line_index orphan_marks", defaults=(0,))):
    """One segmented line: its text, runes (a tuple), 0-based line index
    and orphan marks dropped."""

    __slots__ = ()

    @classmethod
    def from_text(cls, raw_text: str, line_index: int, profile: ScriptProfile) -> "Sentence":
        runes, orphans = segment_runes_counted(raw_text, profile)
        return cls(raw_text, tuple(runes), line_index, orphans)


class Corpus:
    """The non-blank ``(line_index, text)`` pairs of a corpus and its profile.

    ``texts`` holds the pairs it was given, less every pair whose text is
    blank or whitespace alone, so a sample holds references to its
    corpus's own pairs; every command folds over it;
    :meth:`token_runes` folds it per distinct token.  ``sentences``
    segments each text into a :class:`Sentence` when first read, for the
    traced bench pass.
    """

    def __init__(self, texts, profile: ScriptProfile):
        self.texts = [pair for pair in texts if pair[1].strip()]
        self.profile = profile

    @cached_property
    def sentences(self) -> list[Sentence]:
        return [Sentence.from_text(text, i, self.profile) for i, text in self.texts]

    def token_runes(self):
        """Yield ``(token, count, runes, orphans)`` for each distinct
        whitespace token, segmenting each once per call.  Texts are
        decomposed first, so each spelling of a token is one type.  A token
        holds no whitespace, so its runes and orphan marks are those it
        adds to every line it occurs in."""
        tokens = Counter()
        for _, text in self.texts:
            tokens.update(normalize_decompose(text).split())
        profile = self.profile
        for token, n in tokens.items():
            runes, orphans = segment_runes_counted(token, profile)
            yield token, n, runes, orphans

    @classmethod
    def from_lines(cls, lines, profile: ScriptProfile) -> "Corpus":
        """A corpus of the non-blank lines, indexed by position."""
        return cls(enumerate(lines), profile)


def rune_counts(pairs) -> Counter:
    """Rune -> count over ``(runes, n)`` pairs, in first-seen order: each
    rune of ``runes`` counts n times.  ``pairs`` may be a generator, so no
    pair is held past its count."""
    counts = {}
    get = counts.get
    for runes, n in pairs:
        for r in runes:
            counts[r] = get(r, 0) + n
    return Counter(counts)


class SamplingConfig(namedtuple("SamplingConfig", "target_base_chars seed")):
    """The rune-count target and the seed of :func:`sample`."""

    __slots__ = ()

    def __new__(cls, target_base_chars: int = 300_000, seed: int = 1):
        if target_base_chars <= 0:
            raise ValueError("target_base_chars must be positive")
        return tuple.__new__(cls, (target_base_chars, seed))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


class Xorshift64Star:
    """Portable 64-bit PRNG used for reproducible shuffling.

    Recurrence (all ops mod 2**64):
        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27;
        output = x * 0x2545F4914F6CDD1D
    The seed is mixed through one splitmix64 step so that any 64-bit seed
    (including 0) yields a valid nonzero state.  Bounded draws use
    rejection sampling, so shuffles are unbiased and platform-independent.
    """

    def __init__(self, seed: int):
        z = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        self.state = z or 0x9E3779B97F4A7C15

    def next64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            v = self.next64()
            if v < limit:
                return v % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def read_corpus(path, profile: ScriptProfile) -> Corpus:
    """Read a UTF-8 corpus file: as CoNLL-U when its name ends in
    ``.conllu``, else one sentence per line.

    A CoNLL-U block gives one text: its "# text = ..." comment (spaces
    around "=" optional) when present, else its FORM columns joined,
    honoring SpaceAfter=No and multiword ranges.  Blank lines, and blocks
    whose text is blank, are skipped.  The file is decoded, and CoNLL-U
    parsed, before this returns, so malformed input fails here.
    """
    text = decode_utf8(path)
    if str(path).endswith(".conllu"):
        return Corpus(_conllu_texts(path, text), profile)
    return Corpus.from_lines(split_lines(text), profile)


def read_plaintext(path, profile: ScriptProfile) -> Corpus:
    """Read a UTF-8 file as one sentence per line, whatever its name;
    blank lines are skipped.  Kept only for the traced bench pass
    (``bench/tracing.py``) until that pass reads with :func:`read_corpus`."""
    return Corpus.from_lines(split_lines(decode_utf8(path)), profile)


def _conllu_surface(tokens) -> str:
    """The text a block's ``(sep, first, last, form, misc)`` tokens spell,
    ``sep`` being the separator of the ID's two numbers: a multiword range
    (``-``) stands for the tokens it covers, an empty node (``.``) for
    nothing, and a space follows each form but the last unless MISC holds
    SpaceAfter=No."""
    out = []
    covered = 0
    for sep, first, last, form, misc in tokens:
        if sep == "." or (not sep and first <= covered):
            continue
        if sep:
            covered = last
        out += (form, "" if "SpaceAfter=No" in misc.split("|") else " ")
    return "".join(out[:-1])


def _conllu_texts(path, text: str) -> list:
    """The ``(line_index, text)`` of each block, blank texts too, which
    :class:`Corpus` drops; the blank line appended to the file's lines
    ends the last block."""
    texts = []
    comment_text = None
    tokens = []
    start_line = 0
    for lineno, line in enumerate(split_lines(text) + [""]):
        if not line.strip():
            texts.append((start_line, _conllu_surface(tokens) if comment_text is None else comment_text))
            comment_text = None
            tokens = []
            start_line = lineno + 1
            continue
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq and key.strip() == "text":
                comment_text = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise CorpusError(f"{path}: line {lineno + 1}: expected 10 tab-separated columns, got {len(cols)}")
        lo, sep, hi = cols[0].partition("-" if "-" in cols[0] else ".")
        try:
            if not (lo.isdecimal() and (hi.isdecimal() or not sep)):
                raise ValueError
            tokens.append((sep, int(lo), int(hi) if sep else 0, cols[1], cols[9]))
        except ValueError:  # int() also refuses a number past its digit limit
            raise CorpusError(f"{path}: line {lineno + 1}: token ID {cols[0]!r} is not N, N-M or N.M") from None
    return texts


def sample(corpus: Corpus, cfg: SamplingConfig) -> Corpus:
    """Shuffle-and-accumulate sampling to a fixed rune-count target.

    Sentences are shuffled (Fisher-Yates over Xorshift64Star seeded with
    cfg.seed) and taken in order until the cumulative rune count reaches
    cfg.target_base_chars; the sentence that crosses the threshold is
    included whole.  A corpus smaller than the target is reshuffled on the
    same PRNG stream and resampled, so repeats are possible.  A text is
    segmented only when the shuffle first reaches it.  Once a first pass
    is whole, every size is known, and a target that needs more than
    ``_MAX_FURTHER_PICKS`` further texts of the corpus's mean size raises
    :class:`CorpusError`; a corpus without runes needs endless texts.
    """
    texts = corpus.texts
    if not texts:
        raise CorpusError("cannot sample an empty corpus")
    sizes = [None] * len(texts)  # rune count of each text, once the shuffle reaches it
    rng = Xorshift64Star(cfg.seed)
    sampled = Corpus((), corpus.profile)
    picked = sampled.texts
    total = 0
    while total < cfg.target_base_chars:
        order = list(range(len(texts)))
        rng.shuffle(order)
        for i in order:
            size = sizes[i]
            if size is None:
                size = sizes[i] = len(segment_runes_counted(texts[i][1], corpus.profile)[0])
            picked.append(texts[i])
            total += size
            if total >= cfg.target_base_chars:
                break
        further = cfg.target_base_chars - total
        if len(picked) == len(texts) and further * len(texts) > _MAX_FURTHER_PICKS * total:  # the first pass is whole
            raise CorpusError("unsampleable corpus: zero runes" if total == 0 else
                              f"unsampleable corpus: {total} runes per pass, so a target of "
                              f"{cfg.target_base_chars} needs over {_MAX_FURTHER_PICKS} more texts")
    return sampled


def write_plaintext(corpus: Corpus, path) -> None:
    """One sentence per line, decomposed normalization, trailing newline.
    No command calls it (``sample`` writes through the CLI's output); kept
    only for the traced bench pass (``bench/tracing.py``)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for _, text in corpus.texts:
            f.write(normalize_decompose(text))
            f.write("\n")
