import json
import random
import sys
import tempfile
import unicodedata
import warnings
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # make oracle.py importable

from oracle import o_is_mark, o_words
from runemetrics import Corpus, ScriptProfile, diacritize, get_profile, strip_text, train
from runemetrics.cli import main
from runemetrics.script_core import segment_runes_counted

# Every property test's defaults; a test's own @settings holds only what differs.
settings.register_profile("tier-1", deadline=None)
settings.load_profile("tier-1")


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Import hypothesis's patch writer before its plugin reports a failed
    test.  The writer imports libcst, which may raise a DeprecationWarning
    of its own on import; under ``-W error`` that would end the run with
    INTERNALERROR, so the falsifying example would never be printed.  Only
    libcst's DeprecationWarnings, during that one import, are ignored."""
    if call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", category=DeprecationWarning, module=r"libcst(\.|$)")
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # without libcst hypothesis writes no patch
                pass
    yield


SPANISH = "El niño bebió café en la mañana"

# "The boy drank coffee in the morning", fully pointed.
HEBREW = (
    "הַיֶּלֶד "
    "שָׁתָה "
    "קָפֶה "
    "בַּבֹּקֶר"
)

LATIN = get_profile("latin-generic")


def runes_of(text: str, profile: ScriptProfile) -> list[str]:
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
# space or punctuation), a letter that the allow-deny profile reads as a
# mark, a non-BMP letter, letters whose case mapping is unusual, and
# Unicode whitespace.
ADVERSARIAL_ALPHABET = (
    "aeznEZN\u00e9\u00c9\u00f1\u1eaf"          # Latin, precomposed included
    "\u05d0\u05d1\u05e9\u05ea"                  # Hebrew letters
    "\u02bb"                                    # modifier letter turned comma (Lm)
    "\u0301\u0302\u0327\u05b8\u05bc\u05c1\u0591"  # Mn marks, cantillation
    "\u0903\u093e\u0915"                        # Devanagari Mc marks and a letter
    "\U0001d400\u01c5\u0130\u1e9e"              # non-BMP letter, title case, dotted I, capital sharp s
    " \t\u00a0\u2000\u3000"                     # whitespace
    ".,'1-"
)
ADVERSARIAL_PROFILES = (
    get_profile("latin-generic"),
    get_profile("hebrew"),
    ScriptProfile("allow-deny", extra_mark_allowlist=frozenset("'\u05c1\u02bb"),
                  mark_denylist=frozenset("\u0591\u0302")),
    ScriptProfile("no-casefold", casefold=False),
)
ADVERSARIAL_TEXT = st.text(st.one_of(st.sampled_from(ADVERSARIAL_ALPHABET), st.characters()), max_size=40)

# Marked and unmarked spellings of a few words, so tokens repeat across
# lines with differing marks, case and punctuation; an orphan mark and a
# punctuation-only token; mixed with random text.
_WORDS = ("nin\u0303o", "nino", "NIN\u0303O", "nin\u0303o,", "ca\u0301fe", "cafe\u0302", "\u01c5e\u0301",
          "\u05e9\u05c1\u05b8\u05dc", "\u05e9\u05dc", "\u05e9\u05c1\u05dc.", "\u0301x", ".,", "\U0001d400\u0301")
_SPACE = st.sampled_from((" ", "  ", "\t", "\u00a0", "\u3000"))


@st.composite
def word_lines(draw):
    """One to six lines of _WORDS and adversarial text, each piece followed by a space."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        pieces = draw(st.lists(st.one_of(ADVERSARIAL_TEXT, st.sampled_from(_WORDS)), max_size=6))
        lines.append("".join(p + draw(_SPACE) for p in pieces))
    return lines


# Latin and Hebrew letters, Mn marks (orphaned after a space or
# punctuation), punctuation-only tokens and blank lines.
MARKED_LINE = st.text(st.sampled_from("abnEZ\u00e9\u1eaf\u05d0\u05e9\u0301\u0308\u05b8\u05bc\u05c1 .,1"), max_size=30)

# Latin-like and Hebrew-like runes whose letters carry zero to two marks,
# so word keys are ambiguous and some bases stay unmarked.
LATIN_RUNE = st.tuples(st.sampled_from("abcenAEN\u01c5"),
                       st.lists(st.sampled_from("\u0301\u0302\u0303\u0327"), max_size=2))
HEBREW_RUNE = st.tuples(st.sampled_from("\u05d0\u05d1\u05e9\u05ea"),
                        st.lists(st.sampled_from("\u05b8\u05bc\u05c1\u0591"), max_size=2))


def rune_lines(rune):
    """One to six lines of one to six words of runes drawn from rune."""
    word = st.lists(rune, min_size=1, max_size=5).map(
        lambda rs: "".join(base + "".join(marks) for base, marks in rs))
    return st.lists(st.lists(word, min_size=1, max_size=6).map(" ".join), min_size=1, max_size=6)


@st.composite
def hypothesis_lines(draw, lines, profile):
    """Gold lines restored by a model trained on them, stripped, or kept."""
    kind = draw(st.sampled_from(("restored", "stripped", "gold")))
    if kind == "gold":
        return lines
    if kind == "stripped":
        return [strip_text(line, profile) for line in lines]
    gold = Corpus.from_lines(lines, profile)
    if not any(o_words(text, profile) for _, text in gold.texts):
        return lines
    model = train(gold)
    return [diacritize(model, strip_text(line, profile)) for line in lines]


@st.composite
def perturbed(draw, lines, profile):
    """The lines, decomposed, with one or two alterations: a rune's base
    changed, a rune added or dropped, a token split or two merged, or a
    line dropped."""
    lines = [unicodedata.normalize("NFD", line) for line in lines]
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        letters = [j for j, ch in enumerate(line) if unicodedata.category(ch)[0] == "L" and not o_is_mark(ch, profile)]
        spaces = [j for j, ch in enumerate(line) if ch.isspace()]
        kinds = ["added", "split", "line"] + ["changed", "dropped"] * bool(letters) + ["merged"] * bool(spaces)
        kind = draw(st.sampled_from(kinds))
        if kind == "line":
            if len(lines) > 1:
                del lines[i]
            continue
        if kind in ("changed", "dropped"):
            j = draw(st.sampled_from(letters))
            new = "" if kind == "dropped" else "z" if line[j].lower() == "q" else "q"
            line = line[:j] + new + line[j + 1:]
        elif kind == "merged":
            j = draw(st.sampled_from(spaces))
            line = line[:j] + line[j + 1:]
        else:
            j = draw(st.integers(0, len(line)))
            line = line[:j] + ("q" if kind == "added" else " ") + line[j:]
        lines[i] = line
    return lines


# a whitespace-only form rebuilds a whitespace-only text when it stands alone
_CONLLU_FORM = st.one_of(st.text(st.sampled_from("ab\u00f1e\u0301\u05e9\u05b8 .=#\u0085"), min_size=1, max_size=4),
                         st.sampled_from((" ", "\u3000", " \u0085")))
_CONLLU_MISC = st.sampled_from(("_", "SpaceAfter=No", "Gloss=x|SpaceAfter=No", "SpaceAfter=No|Gloss=x",
                                "Gloss=x", "SpaceAfter=Yes", "NoSpaceAfter=No"))
_TEXT_COMMENT = st.sampled_from(("# text = ", "# text=", "#text =", "#  text  =  ", "# text =\t"))


@st.composite
def conllu_block(draw):
    """The lines of one CoNLL-U block: comments, then tokens numbered from
    1, with multiword ranges over them and empty nodes between them."""
    def row(tid):
        return conllu_token(tid, draw(_CONLLU_FORM), draw(_CONLLU_MISC))[:-1]

    lines = []
    if draw(st.booleans()):
        lines.append("# sent_id = s")
    if draw(st.booleans()):  # a blank or whitespace-only comment text is a blank text
        lines.append(draw(_TEXT_COMMENT) + draw(st.text(st.sampled_from("ab\u00f1 \t\u3000=#"), max_size=5)))
    if draw(st.booleans()):
        lines.append("# text_en = " + draw(_CONLLU_FORM))
    n = draw(st.integers(0, 5))
    if n == 0 and draw(st.booleans()):
        lines.append(row("1.1"))
    covered = 0
    for i in range(1, n + 1):
        if i > covered and i < n and draw(st.booleans()):
            covered = draw(st.integers(i + 1, n))
            lines.append(row(f"{i}-{covered}"))
        lines.append(row(str(i)))
        if draw(st.integers(0, 3)) == 0:
            lines.append(row(f"{i}.1"))
    return lines
