"""Every command's output bytes on the benchmark's seed-1 inputs.

The command lines are the benchmark's own (``bench/run.py:commands`` at seed
1), then one ``--format tsv`` run of each command that emits rows.
``output_digests.json`` holds the SHA-256 of each run's stdout and of its -o
file.  A change that alters an output on purpose updates that table and
says which digests changed and why.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import run

BENCH_GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
DIGESTS = Path(__file__).parent / "output_digests.json"
HEB = ("--profile", "hebrew")

# in order: sample feeds profile and metrics; strip and train feed diacritize, which feeds evaluate
COMMANDS = [
    ("sample", "source.txt", "--target-chars", "300000", "--seed", "1", "-o", "sample.txt"),
    ("profile", "sample.txt", "--format", "json"),
    ("profile", "hebrew.txt", *HEB, "--format", "json"),
    ("metrics", "sample.txt", "--per-rune", "--format", "json"),
    ("metrics", "hebrew.txt", *HEB, "--per-rune", "--format", "json"),
    ("correlate", "languages.tsv", "--x", "rs", "--y", "word_acc", "--format", "json"),
    ("strip", "heldout.txt", *HEB, "-o", "stripped.txt"),
    ("train", "train.txt", *HEB, "-o", "model.json"),
    ("diacritize", "model.json", "stripped.txt", *HEB, "-o", "restored.txt"),
    ("evaluate", "heldout.txt", "restored.txt", *HEB, "--format", "json"),
    ("profile", "sample.txt", "--format", "tsv"),
    ("metrics", "sample.txt", "--per-rune", "--format", "tsv"),
    ("correlate", "languages.tsv", "--x", "rs", "--y", "word_acc", "--format", "tsv"),
    ("evaluate", "heldout.txt", "restored.txt", *HEB, "--format", "tsv"),
]


@pytest.fixture(scope="session")
def bench_inputs(tmp_path_factory):
    """The seed-1 ``describe`` and ``restore`` inputs, in one directory."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    d = tmp_path_factory.mktemp("bench-inputs")
    for workload in ("describe", "restore"):
        gen.generate(workload, 1, d)
    return d


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_command_writes_the_bytes_of_the_digest_table(bench_inputs, capsys, monkeypatch):
    monkeypatch.chdir(bench_inputs)
    digests = {}
    for argv in COMMANDS:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        written = {"stdout": _sha256(out.encode("utf-8"))}
        if "-o" in argv:
            name = argv[argv.index("-o") + 1]
            written[name] = _sha256((bench_inputs / name).read_bytes())
        digests[" ".join(argv)] = written
    assert digests == json.loads(DIGESTS.read_text(encoding="utf-8"))
