"""Training, evaluation, restoration, the profile and the frequency tables
segment each distinct whitespace token once: checked against the
per-sentence reference trainer, scorer and segmenter.  Sampling segments
only the lines it picks.  No command builds a per-line Sentence."""

import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL_PROFILES, ADVERSARIAL_TEXT, LATIN, saved_doc
from oracle import o_diacritize, o_evaluate, o_is_mark, o_segment, o_train, o_words
from runemetrics import (
    Corpus,
    SamplingConfig,
    Sentence,
    build_tables,
    diacritize,
    evaluate,
    metric_report,
    profile,
    read_corpus,
    sample,
    strip_text,
    train,
    write_plaintext,
)
from runemetrics import baseline, corpus_io, eval_stats, metrics, profiler, script_core
from runemetrics.cli import main

# Marked and unmarked spellings of a few words, so tokens repeat across
# lines with differing marks, case and punctuation; an orphan mark and a
# punctuation-only token; mixed with random text.
_WORDS = ("nin\u0303o", "nino", "NIN\u0303O", "nin\u0303o,", "ca\u0301fe", "cafe\u0302", "\u01c5e\u0301",
          "\u05e9\u05c1\u05b8\u05dc", "\u05e9\u05dc", "\u05e9\u05c1\u05dc.", "\u0301x", ".,", "\U0001d400\u0301")
_PIECE = st.one_of(ADVERSARIAL_TEXT, st.sampled_from(_WORDS))
_SPACE = st.sampled_from((" ", "  ", "\t", "\u00a0", "\u3000"))


@st.composite
def _lines(draw):
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        pieces = draw(st.lists(_PIECE, max_size=6))
        lines.append("".join(p + draw(_SPACE) for p in pieces))
    return lines


_PROFILE = st.sampled_from(ADVERSARIAL_PROFILES)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(_lines(), _PROFILE)
def test_train_matches_reference_trainer(lines, profile):
    corpus = Corpus.from_lines(lines, profile)
    if not any(o_words(text, profile) for _, text in corpus.texts):
        assert _outcome(train, corpus) == _outcome(o_train, corpus) == "cannot train on a corpus with no words"
        return
    doc = saved_doc(train(corpus))
    assert (doc["word_map"], doc["char_map"]) == o_train(Corpus.from_lines(lines, profile))


@st.composite
def _hypothesis(draw, lines, profile):
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


@settings(max_examples=200, deadline=None)
@given(st.data(), _lines(), _PROFILE, _PROFILE)
def test_evaluate_matches_reference_scorer(data, lines, profile, hyp_profile):
    hyp_lines = data.draw(_hypothesis(lines, profile))
    # mostly the gold profile; another one changes bases or marks
    hyp_profile = data.draw(st.sampled_from((profile, profile, hyp_profile)))
    got = _outcome(evaluate, Corpus.from_lines(lines, profile), Corpus.from_lines(hyp_lines, hyp_profile))
    want = _outcome(o_evaluate, Corpus.from_lines(lines, profile), Corpus.from_lines(hyp_lines, hyp_profile))
    assert got == want


def _letters(text, profile):
    return [i for i, ch in enumerate(text) if unicodedata.category(ch)[0] == "L" and not o_is_mark(ch, profile)]


@st.composite
def _perturbed(draw, lines, profile):
    """The lines, decomposed, with one or two alterations: a rune's base
    changed, a rune added or dropped, a token split or two merged, or a
    line dropped."""
    lines = [unicodedata.normalize("NFD", line) for line in lines]
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        letters = _letters(line, profile)
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


@settings(max_examples=200, deadline=None)
@given(st.data(), _lines(), _PROFILE)
def test_evaluate_rejects_altered_text_like_the_reference(data, lines, profile):
    hyp_lines = data.draw(_perturbed(lines, profile))
    got = _outcome(evaluate, Corpus.from_lines(lines, profile), Corpus.from_lines(hyp_lines, profile))
    want = _outcome(o_evaluate, Corpus.from_lines(lines, profile), Corpus.from_lines(hyp_lines, profile))
    assert got == want


@pytest.mark.parametrize("hyp, error", [
    ("el nino bebio cafe\nla manana", "line count mismatch: gold has 3, hypothesis 2"),
    ("el nino bebio cafe\nla manana\nes clarq", "line 3, rune 7: base letter differs ('a' vs 'q')"),
    ("el nino bebio cafe\nla manana\nes clara y", "line 3: rune count differs (7 vs 8)"),
    ("el nino bebio caf\nla manana\nes clara", "line 1: rune count differs (15 vs 14)"),
    ("el nino bebio cafe\nla man ana\nes clara", "line 2: word tokenization differs"),
    ("el nino bebio cafe\nla man anq\nes clara", "line 2, rune 8: base letter differs ('a' vs 'q')"),
    ("el nino bebiocafe\nla manana\nes clara", "line 1: word tokenization differs"),
])
def test_each_alteration_raises_the_reference_error(hyp, error):
    gold = "el niño bebió café\nla mañana\nes clara".split("\n")
    got = _outcome(evaluate, Corpus.from_lines(gold, LATIN), Corpus.from_lines(hyp.split("\n"), LATIN))
    assert got == _outcome(o_evaluate, Corpus.from_lines(gold, LATIN), Corpus.from_lines(hyp.split("\n"), LATIN))
    assert got.startswith(error)


def test_tokens_sharing_a_word_key_restore_apart():
    model = train(Corpus.from_lines(["nin\u0303o"], LATIN))
    text = "nino Nino NINO nino, \u00bfnino ni\u0301no nino"
    assert diacritize(model, text) == o_diacritize(saved_doc(model), LATIN, text) == (
        "nin\u0303o Nin\u0303o NIN\u0303O nin\u0303o, \u00bfnin\u0303o nin\u0303o nin\u0303o")


def _refuse_sentences(monkeypatch):
    def refuse(*args):
        raise AssertionError("a whole sentence was segmented")

    monkeypatch.setattr(Sentence, "from_text", refuse)


def test_train_and_evaluate_build_no_sentences(tmp_path, monkeypatch):
    path = tmp_path / "gold.txt"
    path.write_text("el niño bebió café\n\nla mañana es clara\n", encoding="utf-8")
    _refuse_sentences(monkeypatch)
    gold = read_corpus(path, LATIN)
    model = train(gold)
    hyp = Corpus.from_lines([diacritize(model, strip_text(text, LATIN)) for _, text in gold.texts], LATIN)
    assert evaluate(gold, hyp) == (100.0, 100.0, 8, 30)


def test_describe_commands_build_no_sentences(tmp_path, monkeypatch, capsys):
    path = tmp_path / "source.txt"
    path.write_text("el niño bebió café\n\nla mañana es clara\n", encoding="utf-8")
    _refuse_sentences(monkeypatch)
    corpus = read_corpus(path, LATIN)
    assert profile(corpus).distinct_marked_runes == 3
    assert metric_report(corpus).rune_token_count == 30
    assert build_tables(corpus).total_bases == 30
    write_plaintext(sample(corpus, SamplingConfig(40, 1)), tmp_path / "sample.txt")
    assert len((tmp_path / "sample.txt").read_text(encoding="utf-8").splitlines()) == 3
    assert main(["sample", str(path), "--target-chars", "40"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def _segmented(patch):
    """The texts segment_runes_counted is given, in call order, wherever a
    module imported it."""
    calls = []
    real = script_core.segment_runes_counted

    def counted(text, profile):
        calls.append(text)
        return real(text, profile)

    for module in (corpus_io, metrics, profiler, baseline, eval_stats):
        if hasattr(module, "segment_runes_counted"):
            patch.setattr(module, "segment_runes_counted", counted)
    return calls


@settings(max_examples=100, deadline=None)
@given(_lines(), _PROFILE, st.sampled_from((build_tables, profile, train)))
def test_folds_segment_each_distinct_token_once(lines, script, fold):
    corpus = Corpus.from_lines(lines, script)
    tokens = {token for _, text in corpus.texts for token in unicodedata.normalize("NFD", text).split()}
    with pytest.MonkeyPatch.context() as patch:
        calls = _segmented(patch)
        _outcome(fold, corpus)
    assert sorted(calls) == sorted(tokens)


def test_sample_segments_only_the_lines_it_picks():
    corpus = Corpus.from_lines([f"line {i}" for i in range(1000)], LATIN)
    with pytest.MonkeyPatch.context() as patch:
        calls = _segmented(patch)
        picked = sample(corpus, SamplingConfig(10, 7))
    assert calls == [text for _, text in picked.texts] and len(calls) == 3


def test_resampling_segments_each_line_once():
    corpus = Corpus.from_lines([f"line {i}" for i in range(5)], LATIN)
    with pytest.MonkeyPatch.context() as patch:
        calls = _segmented(patch)
        picked = sample(corpus, SamplingConfig(100, 7))
    assert len(picked.texts) == 25
    assert sorted(calls) == sorted(text for _, text in corpus.texts)


@settings(max_examples=200, deadline=None)
@given(_lines(), _PROFILE)
def test_build_tables_matches_reference_recount(lines, script):
    want = Counter()
    for line in lines:
        if line.strip():
            want.update(o_segment(line, script)[0])
    got = build_tables(Corpus.from_lines(lines, script)).rune_count
    # the same runes in the same first-seen order
    assert list(got.items()) == list(want.items())
