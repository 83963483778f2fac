"""Training, evaluation and restoration segment each distinct whitespace
token once, and the profile and the frequency tables count its runes once.
Sampling counts the runes of only the lines it picks.  No command builds a
per-line Sentence."""

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL_PROFILES, LATIN, saved_doc, word_lines
from oracle import o_diacritize, o_runes, o_segment
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
)
from runemetrics import baseline, corpus_io, eval_stats, metrics, profiler, script_core
from runemetrics.corpus_io import rune_counts
from runemetrics.script_core import count_token_runes, marked_rune_pattern, segment_runes_counted
from runemetrics.cli import main

_PROFILE = st.sampled_from(ADVERSARIAL_PROFILES)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


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


def test_describe_commands_build_no_sentences(tmp_path, monkeypatch):
    path = tmp_path / "source.txt"
    path.write_text("el niño bebió café\n\nla mañana es clara\n", encoding="utf-8")
    _refuse_sentences(monkeypatch)
    corpus = read_corpus(path, LATIN)
    assert profile(corpus).distinct_marked_runes == 3
    assert metric_report(corpus).rune_token_count == 30
    assert build_tables(corpus).total_bases == 30
    assert main(["sample", str(path), "--target-chars", "40", "-o", str(tmp_path / "sample.txt")]) == 0
    assert len((tmp_path / "sample.txt").read_text(encoding="utf-8").splitlines()) == 3


def test_tokens_sharing_a_word_key_restore_apart():
    model = train(Corpus.from_lines(["nin\u0303o"], LATIN))
    text = "nino Nino NINO nino, \u00bfnino ni\u0301no nino"
    assert diacritize(model, text) == o_diacritize(saved_doc(model), LATIN, text) == (
        "nin\u0303o Nin\u0303o NIN\u0303O nin\u0303o, \u00bfnin\u0303o nin\u0303o nin\u0303o")


def _work(patch):
    """The texts whose runes are segmented or counted, in call order,
    wherever a module imported the function that does it: each text given
    to ``segment_runes_counted`` or ``count_runes``, and each token of the
    mapping given to ``count_token_runes``."""
    calls = []

    def spy(real, texts):
        def called(arg, profile):
            calls.extend(texts(arg))
            return real(arg, profile)
        return called

    spies = {"segment_runes_counted": spy(script_core.segment_runes_counted, lambda text: [text]),
             "count_runes": spy(script_core.count_runes, lambda text: [text]),
             "count_token_runes": spy(script_core.count_token_runes, list)}
    for module in (corpus_io, metrics, profiler, baseline, eval_stats):
        for name, called in spies.items():
            if hasattr(module, name):
                patch.setattr(module, name, called)
    return calls


@settings(max_examples=100)
@given(word_lines(), _PROFILE, st.sampled_from((build_tables, profile, train)))
def test_folds_take_each_distinct_token_once(lines, script, fold):
    corpus = Corpus.from_lines(lines, script)
    tokens = {token for _, text in corpus.texts for token in unicodedata.normalize("NFD", text).split()}
    with pytest.MonkeyPatch.context() as patch:
        calls = _work(patch)
        folded = _outcome(fold, corpus)
    assert sorted(calls) == sorted(tokens)
    if fold is build_tables:  # the runes in the order the texts first show them
        assert list(folded.rune_count) == list(dict.fromkeys(o_runes(corpus)))


@settings(max_examples=200)
@given(word_lines(), _PROFILE)
def test_token_counting_is_rune_counts_over_segmentation(lines, script):
    script = script._replace()  # fresh memos, so the count classifies every character itself
    corpus = Corpus.from_lines(lines, script)
    tokens = corpus.tokens()
    counts, words, marked, orphans = count_token_runes(tokens, script)
    segmented = [(*segment_runes_counted(token, script), n) for token, n in tokens.items()]
    want = rune_counts((runes, n) for runes, _, n in segmented)
    assert list(counts.items()) == list(want.items())  # first-seen order too
    assert orphans == sum(n * token_orphans for _, token_orphans, n in segmented)
    assert words == sum(n for runes, _, n in segmented if runes)
    assert marked == sum(n for runes, _, n in segmented if any(r.marks for r in runes))
    # the pattern, over the characters the count classified, finds the lines holding a marked rune
    found = marked_rune_pattern(script).search
    assert ([found(unicodedata.normalize("NFD", text)) is not None for _, text in corpus.texts]
            == [any(r.marks for r in o_segment(text, script)[0]) for _, text in corpus.texts])


def test_sample_sizes_only_the_lines_it_picks():
    corpus = Corpus.from_lines([f"line {i}" for i in range(1000)], LATIN)
    with pytest.MonkeyPatch.context() as patch:
        calls = _work(patch)
        picked = sample(corpus, SamplingConfig(10, 7))
    assert calls == [text for _, text in picked.texts] and len(calls) == 3


def test_resampling_sizes_each_line_once():
    corpus = Corpus.from_lines([f"line {i}" for i in range(5)], LATIN)
    with pytest.MonkeyPatch.context() as patch:
        calls = _work(patch)
        picked = sample(corpus, SamplingConfig(100, 7))
    assert len(picked.texts) == 25
    assert sorted(calls) == sorted(text for _, text in corpus.texts)
