import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # make oracle.py importable

from runemetrics import Corpus, Rune, ScriptProfile, get_profile, render
from runemetrics.cli import main
from runemetrics.script_core import segment_runes_counted

SPANISH = "El niño bebió café en la mañana"

# "The boy drank coffee in the morning", fully pointed.
HEBREW = (
    "הַיֶּלֶד "
    "שָׁתָה "
    "קָפֶה "
    "בַּבֹּקֶר"
)

LATIN = get_profile("latin-generic")


def runes_of(text: str, profile: ScriptProfile) -> list[Rune]:
    """The runes of text under profile, without the orphan-mark count."""
    return segment_runes_counted(text, profile)[0]


def corpus_of(*lines) -> Corpus:
    """A Latin corpus of the lines."""
    return Corpus.from_lines(list(lines), LATIN)


def run(capsys, *argv):
    """(exit status, stdout, stderr) of the CLI's ``main(argv)``."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text) -> str:
    """The path, as a string, of tmp_path/name, written with text as UTF-8."""
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def conllu_token(tid, form, misc="_") -> str:
    """One CoNLL-U token line with its newline: ID, FORM and MISC, every other column "_"."""
    return f"{tid}\t{form}\t_\t_\t_\t_\t_\t_\t_\t{misc}\n"


@pytest.fixture
def spanish_corpus():
    return Corpus.from_lines([SPANISH], LATIN)


@pytest.fixture
def hebrew_corpus():
    return Corpus.from_lines([HEBREW], get_profile("hebrew"))


def saved_doc(model) -> dict:
    """The document ``model.save`` writes, read back as JSON."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.json"
        model.save(path)
        return json.loads(path.read_text(encoding="utf-8"))


BASES = "abcd"
MARKS = ("\u0301", "\u0302", "\u0303")  # acute, circumflex, tilde


def random_rune_text(rng: random.Random, n_bases=4, n_marks=3) -> str:
    """One synthetic rune as decomposed text."""
    base = rng.choice(BASES[:n_bases])
    k = rng.choice((0, 0, 1, 1, 2, 3))
    marks = rng.sample(MARKS[:n_marks], min(k, n_marks))
    return base + "".join(sorted(marks))


def random_corpus(rng: random.Random, max_runes=50, n_bases=4, n_marks=3) -> Corpus:
    n = rng.randint(1, max_runes)
    words, word = [], []
    for _ in range(n):
        word.append(random_rune_text(rng, n_bases, n_marks))
        if rng.random() < 0.3:
            words.append("".join(word))
            word = []
    if word:
        words.append("".join(word))
    return Corpus.from_lines([" ".join(words)], LATIN)


def single_mark_corpus(rng: random.Random, max_runes=50) -> Corpus:
    """Synthetic corpus in which no rune carries two or more marks."""
    n = rng.randint(1, max_runes)
    out = []
    for _ in range(n):
        base = rng.choice(BASES)
        out.append(base + (rng.choice(MARKS) if rng.random() < 0.4 else ""))
    return Corpus.from_lines(["".join(out)], LATIN)


# Latin and Hebrew letters, Mn and Mc marks (which turn orphan after a
# space or punctuation), a non-BMP letter, letters whose case mapping is
# unusual, and Unicode whitespace.
ADVERSARIAL_ALPHABET = (
    "aeznEZN\u00e9\u00c9\u00f1\u1eaf"          # Latin, precomposed included
    "\u05d0\u05d1\u05e9\u05ea"                  # Hebrew letters
    "\u0301\u0302\u0327\u05b8\u05bc\u05c1\u0591"  # Mn marks, cantillation
    "\u0903\u093e\u0915"                        # Devanagari Mc marks and a letter
    "\U0001d400\u01c5\u0130\u1e9e"              # non-BMP letter, title case, dotted I, capital sharp s
    " \t\u00a0\u2000\u3000"                     # whitespace
    ".,'1-"
)
ADVERSARIAL_PROFILES = (
    get_profile("latin-generic"),
    get_profile("hebrew"),
    ScriptProfile("allow-deny", extra_mark_allowlist=frozenset("'\u05c1"),
                  mark_denylist=frozenset("\u0591\u0302")),
    ScriptProfile("no-casefold", casefold=False),
)
ADVERSARIAL_TEXT = st.text(st.one_of(st.sampled_from(ADVERSARIAL_ALPHABET), st.characters()), max_size=40)
