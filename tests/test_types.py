"""The value types' contracts, what the CLI loads and prints in a fresh
interpreter, and test modules that hide none of their own tests."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import runemetrics
from conftest import LATIN, runes_of
from runemetrics import (
    Corpus,
    SamplingConfig,
    evaluate,
    get_profile,
    metric_report,
    pearson,
    profile,
    train,
)
from runemetrics.cli import main


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
    # each call gives a new profile, so one caller's memos never reach another's
    used, fresh = get_profile("hebrew"), get_profile("hebrew")
    runes_of("שָׁלוֹם", used)
    assert vars(used)["_kinds"] and not vars(fresh)["_kinds"]
    assert used == fresh and hash(used) == hash(fresh) and used is not fresh
    assert used == ("hebrew", frozenset(), frozenset(), True)
    cased = used._replace(casefold=False)
    assert runes_of("É", cased)[0][0] == "E"
    with pytest.raises(ValueError, match="overlap"):
        used._replace(extra_mark_allowlist=frozenset("x"), mark_denylist=frozenset("x"))


def _env(**env) -> dict:
    """This environment with ``env`` added, where a fresh interpreter imports this runemetrics."""
    src = str(Path(runemetrics.__file__).resolve().parent.parent)
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def _fresh(*args, cwd=None, **env) -> tuple[int, str, set]:
    """(exit status, stdout, names of the modules imported) of ``python -S
    -X importtime <args>`` in a fresh interpreter, with ``env`` added to
    its environment; -S keeps site-packages' own start-up imports out of
    the check."""
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", *args], env=_env(**env), cwd=cwd,
                          capture_output=True, text=True)
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    return done.returncode, done.stdout, imported


def _ours(modules) -> set:
    return {m for m in modules if m == "runemetrics" or m.startswith("runemetrics.")}


def test_cli_import_loads_no_dataclasses_inspect_or_hashlib():
    code = "import sys, runemetrics.cli; print(sorted({'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))"
    assert _fresh("-c", code)[:2] == (0, "[]\n")
    # the package alone compiles no submodule; the version, the help and
    # a usage error compile cli alone
    assert _ours(_fresh("-c", "import runemetrics")[2]) == {"runemetrics"}
    # script_core, the foundation, imports nothing else of the package
    assert _ours(_fresh("-c", "import runemetrics.script_core")[2]) == {"runemetrics", "runemetrics.script_core"}
    outs = {}
    for argv, status in ((["--version"], 0), (["--help"], 0), (["profile"], 2)):
        code, outs[argv[0]], imported = _fresh("-m", "runemetrics.cli", *argv)
        assert code == status and _ours(imported) == {"runemetrics"} and "json" not in imported
    # the version is pyproject's, whose console script runs run, and the help lists every subcommand
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert outs["--version"] == re.search(r'^version = "(.+)"$', pyproject, re.M)[1] + "\n"
    assert re.search(r'^\[project\.scripts\]\nrunemetrics = "runemetrics\.cli:run"$', pyproject, re.M)
    for command in ("profile", "metrics", "sample", "strip", "train", "diacritize", "evaluate", "correlate"):
        assert re.search(rf"^ +{command} +\S", outs["--help"], re.M), command
    # every public name resolves on first use and is listed
    code = ("import runemetrics as r; "
            "print(len(set(r.__all__)) == len(r.__all__) and all(getattr(r, n) is not None and n in dir(r) "
            "for n in r.__all__))")
    assert _fresh("-c", code)[:2] == (0, "True\n")


# each subcommand's positionals, in order, as its usage line ends, and the missing ones a bare command names
_POSITIONALS = {
    "profile": ("inputs [inputs ...]", "inputs"),
    "metrics": ("inputs [inputs ...]", "inputs"),
    "sample": ("input", "input"),
    "strip": ("input", "input"),
    "train": ("input", "input, -o/--output"),
    "diacritize": ("model input", "model, input"),
    "evaluate": ("gold hyp", "gold, hyp"),
    "correlate": ("table", "table, --x, --y"),
}


@pytest.mark.parametrize("command", _POSITIONALS)
def test_each_command_names_its_positionals_in_order(capsys, command):
    # argparse may format usage and its errors differently across Python versions, so CI runs this on each
    usage, missing = _POSITIONALS[command]
    for argv, status in (([command, "--help"], 0), ([command], 2)):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == status
    out, err = capsys.readouterr()
    flat = " ".join(out.split("\n\n")[0].split())  # the usage, however argparse wraps it
    assert flat.startswith(f"usage: runemetrics {command} [-h] ") and flat.endswith(f"] {usage}")
    assert err.splitlines()[-1] == f"runemetrics {command}: error: the following arguments are required: {missing}"


def test_sample_refuses_a_target_it_cannot_reach(tmp_path):
    # the refusal comes after one pass over the file; a sampler without a bound resamples until the timeout
    (tmp_path / "one.txt").write_text("ab\n", encoding="utf-8")
    done = subprocess.run([sys.executable, "-S", "-m", "runemetrics.cli", "sample", "one.txt", "--target-chars", "9" * 20],
                          cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=2)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("runemetrics: one.txt: unsampleable corpus: 2 runes per pass, so a target of 9999")


_READS = ("runemetrics.script_core", "runemetrics.corpus_io")
_COMMANDS = [
    (["sample", "gold.txt", "--target-chars", "5"], _READS),
    (["strip", "gold.txt"], _READS),
    (["profile", "gold.txt"], (*_READS, "runemetrics.metrics", "runemetrics.profiler")),
    (["metrics", "gold.txt", "--per-rune"], (*_READS, "runemetrics.metrics")),
    (["train", "gold.txt", "-o", "m.json"], (*_READS, "runemetrics.baseline")),
    (["diacritize", "model.json", "gold.txt"], ("runemetrics.script_core", "runemetrics.baseline")),
    (["evaluate", "gold.txt", "gold.txt"], (*_READS, "runemetrics.eval_stats")),
    (["correlate", "table.tsv", "--x", "x", "--y", "y"], ("runemetrics.script_core", "runemetrics.eval_stats")),
]


@pytest.mark.parametrize("argv, modules", _COMMANDS, ids=[argv[0] for argv, _ in _COMMANDS])
def test_each_command_compiles_only_the_modules_it_runs(tmp_path, argv, modules):
    (tmp_path / "gold.txt").write_text("el niño bebió café\nla mañana\n", encoding="utf-8")
    (tmp_path / "table.tsv").write_text("x\ty\n1\t2\n2\t1\n3\t4\n", encoding="utf-8")
    train(Corpus.from_lines(["el niño"], LATIN)).save(tmp_path / "model.json")
    code, out, imported = _fresh("-m", "runemetrics.cli", *argv, cwd=tmp_path)
    assert code == 0
    assert _ours(imported) == {"runemetrics", *modules}
    assert not {"dataclasses", "inspect", "hashlib"} & imported
    assert ("json" in imported) == (argv[0] in ("train", "diacritize"))  # the two that write or read JSON here


@pytest.mark.parametrize("argv, status", [(["--version"], 0), (["profile"], 2), (["profile", "nope.txt"], 2)])
def test_the_process_entry_exits_with_mains_status_after_the_atexit_handlers(tmp_path, argv, status):
    # run() freezes the collector before the process ends; a handler registered first runs after it
    code = "import atexit, gc, runemetrics.cli; atexit.register(lambda: print(gc.get_freeze_count() > 0)); " \
           "runemetrics.cli.run()"
    done, out, _ = _fresh("-c", code, *argv, cwd=tmp_path)
    assert (done, out.splitlines()[-1]) == (status, "True")


_PIPELINE = """
import contextlib
import gc
from runemetrics.cli import main
for argv in (["strip", "gold.txt", "-o", "stripped.txt"], ["train", "gold.txt", "-o", "model.json"],
             ["diacritize", "model.json", "stripped.txt", "-o", "restored.txt"],
             ["profile", "gold.txt", "-o", "profile.tsv"], ["metrics", "gold.txt", "--per-rune", "-o", "metrics.tsv"],
             ["sample", "gold.txt", "--target-chars", "40", "-o", "sample.txt"]):
    assert main(argv) == 0, argv
for argv, name in ((["evaluate", "gold.txt", "restored.txt"], "evaluate.tsv"),
                   (["correlate", "table.tsv", "--x", "x", "--y", "y"], "correlate.tsv")):
    with open(name, "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
        assert main(argv) == 0, argv
assert gc.get_freeze_count() == 0  # main in process leaves the collector alone
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # each of the eight commands' outputs, written or printed; train, profile and metrics count
    # in hashed containers; the forms of nino, cafe and pinguino tie, and so do u and ü, so
    # each modal form comes from a tie-break
    gold = "el niño nino bebió café cafe pingüino pinguino\n\nla mañana es clara\n"
    written = set()
    for seed in range(6):
        run = tmp_path / str(seed)
        run.mkdir()
        (run / "gold.txt").write_text(gold, encoding="utf-8")
        (run / "table.tsv").write_text("x\ty\n1\t2\n2\t1\n3\t4\n", encoding="utf-8")
        assert _fresh("-c", _PIPELINE, cwd=run, PYTHONHASHSEED=str(seed))[:2] == (0, "")
        written.add(tuple((run / name).read_bytes()
                          for name in ("stripped.txt", "model.json", "restored.txt", "profile.tsv", "metrics.tsv",
                                       "sample.txt", "evaluate.tsv", "correlate.tsv")))
    assert len(written) == 1


@pytest.mark.parametrize("argv", [
    ["sample", "gold.txt", "--target-chars", "200000"],
    ["strip", "gold.txt"],
    ["diacritize", "model.json", "gold.txt"],
], ids=lambda argv: argv[0])
def test_a_reader_that_closes_early_makes_a_text_command_exit_2(tmp_path, argv):
    # ~260 KB, more than a pipe holds, in lines under the 4 KiB a pipe writes atomically, so a
    # write after the close fails whole; unbuffered, one write of the whole text is cut short silently
    (tmp_path / "gold.txt").write_text("el niño bebió café en la mañana\n" * 8000, encoding="utf-8")
    train(Corpus.from_lines(["el niño"], LATIN)).save(tmp_path / "model.json")
    with subprocess.Popen([sys.executable, "-S", "-m", "runemetrics.cli", *argv], cwd=tmp_path,
                          env=_env(PYTHONUNBUFFERED="1"), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (2, b"runemetrics: [Errno 32] Broken pipe\n")


def test_no_test_or_bench_module_defines_a_name_twice():
    # Python keeps only the last of two top-level definitions of one name, and the last
    # value of a key a dict literal repeats, so a test or a table row merged by hand can
    # hide another without an error
    root = Path(__file__).parent.parent
    for path in sorted([*root.glob("tests/**/*.py"), *root.glob("bench/**/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = Counter(node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        assert [name for name, n in names.items() if n > 1] == [], path
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys = Counter(key.value for key in node.keys if isinstance(key, ast.Constant))
                assert [key for key, n in keys.items() if n > 1] == [], (path, node.lineno)
