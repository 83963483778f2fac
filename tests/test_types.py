"""The value types' contracts, and what importing the CLI loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import runemetrics
from conftest import LATIN
from runemetrics import (
    Corpus,
    SamplingConfig,
    ScriptProfile,
    evaluate,
    metric_report,
    pearson,
    profile,
    segment_runes,
)


def _values():
    corpus = Corpus.from_lines(["el niño bebió café", "la mañana"], LATIN)
    return [
        corpus.sentences[0],
        SamplingConfig(10, 3),
        metric_report(corpus),
        profile(corpus),
        evaluate(corpus, corpus),
        pearson([1, 2, 3, 4], [1, 3, 2, 4]),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_values_are_immutable_named_tuples(value):
    assert value == tuple(value)
    first = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        value.note = "extra"
    assert value._replace(**{first: getattr(value, first)}) == value


def test_sampling_config_validates_every_construction():
    with pytest.raises(ValueError, match="positive"):
        SamplingConfig(0)
    with pytest.raises(ValueError, match="positive"):
        SamplingConfig(5)._replace(target_base_chars=0)


def test_profile_is_its_four_fields_whatever_its_memos_hold():
    used, fresh = ScriptProfile("hebrew"), ScriptProfile("hebrew")
    segment_runes("שָׁלוֹם", used)
    assert vars(used)["_kinds"] and not vars(fresh)["_kinds"]
    assert used == fresh and hash(used) == hash(fresh)
    assert used == ("hebrew", frozenset(), frozenset(), True)
    cased = used._replace(casefold=False)
    assert segment_runes("É", cased)[0].base == "E"
    with pytest.raises(ValueError, match="overlap"):
        used._replace(extra_mark_allowlist=frozenset("x"), mark_denylist=frozenset("x"))


def test_cli_import_loads_no_dataclasses_inspect_or_hashlib():
    # -S keeps site-packages' own start-up imports out of the check
    src = str(Path(runemetrics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, runemetrics.cli; print(sorted({'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
