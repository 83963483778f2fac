"""runemetrics benchmark: three corpus workloads through the real CLI.

    python3 bench/run.py --workload describe|restore|bulk|all --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` beside this directory.
Inputs are generated from ``--seed``.  The load is a closed loop with one
client: each CLI command starts after the previous one has exited.

``--trace 0`` repeats whole passes of the workload's commands for about
``--seconds`` (at least one pass) and reports the end-to-end metrics.
``--trace 1`` runs one CLI pass, then the traced in-process pass, the same
pass untraced, and an untimed tracemalloc pass, and reports the per-layer
metrics.  Every command's output is checked against ``reference.py``; a
failed check counts as a failed command.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``bench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("describe", "restore", "bulk")
SAMPLE_TARGET = 300_000
SETUP_RUNS = 3               # before the first pass; one more follows every command
RUN_LIMIT_S = 170.0          # every command must end this long after the run starts
PREFIX_RUNES = 100_000       # corpus prefix for the tracemalloc pass
END_TO_END_UNITS = {"setup_s": "s", "runes_per_s": "runes/s", "peak_rss_mb": "MB"}


class Work:
    """One run's scratch directory and its reference recounts."""

    def __init__(self, workload: str, seed: int):
        BUILD.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=BUILD))
        self.tokens = reference.Tokens()
        self.target = SAMPLE_TARGET
        self.sample_seed = seed
        self._recounts: dict[str, reference.Recount] = {}

    def path(self, name: str) -> Path:
        return self.dir / name

    @staticmethod
    def text(path) -> str:
        return Path(path).read_text(encoding="utf-8")

    def info(self, path) -> reference.Recount:
        """Reference recount of a file, cached by content."""
        data = Path(path).read_bytes()
        key = hashlib.sha256(data).hexdigest()
        if key not in self._recounts:
            self._recounts[key] = reference.Recount(data.decode("utf-8"), self.tokens)
        return self._recounts[key]


@dataclass
class Command:
    name: str
    argv: list
    runes: Callable[[], int]            # input runes, for runes_per_s
    check: Callable[[str], list]        # stdout -> failure messages
    outputs: tuple = field(default=())  # removed before each run


def commands(workload: str, w: Work) -> list[Command]:
    p = lambda name: str(w.path(name))  # noqa: E731
    heb = ("--profile", "hebrew")
    if workload == "describe":
        src, smp, hebrew, tsv = p("source.txt"), p("sample.txt"), p("hebrew.txt"), p("languages.tsv")
        return [
            Command("sample", ["sample", src, "--target-chars", str(w.target), "--seed", str(w.sample_seed), "-o", smp],
                    lambda: w.info(src).runes,
                    lambda out: reference.check_sample(w.text(smp), w.text(src), w.target, w.sample_seed, w.tokens),
                    (smp,)),
            Command("profile", ["profile", smp, "--format", "json"], lambda: w.info(smp).runes,
                    lambda out: reference.check_profile(out, w.info(smp))),
            Command("profile", ["profile", hebrew, *heb, "--format", "json"], lambda: w.info(hebrew).runes,
                    lambda out: reference.check_profile(out, w.info(hebrew))),
            Command("metrics", ["metrics", smp, "--per-rune", "--format", "json"], lambda: w.info(smp).runes,
                    lambda out: reference.check_metrics(out, w.info(smp))),
            Command("metrics", ["metrics", hebrew, *heb, "--per-rune", "--format", "json"],
                    lambda: w.info(hebrew).runes, lambda out: reference.check_metrics(out, w.info(hebrew))),
            Command("correlate", ["correlate", tsv, "--x", "rs", "--y", "word_acc", "--format", "json"],
                    lambda: 0, lambda out: reference.check_correlate(out, w.text(tsv), "rs", "word_acc")),
        ]
    if workload == "restore":
        train, gold = p("train.txt"), p("heldout.txt")
        stripped, model, restored = p("stripped.txt"), p("model.json"), p("restored.txt")
        return [
            Command("strip", ["strip", gold, *heb, "-o", stripped], lambda: w.info(gold).runes,
                    lambda out: reference.check_strip(w.text(stripped), w.text(gold)), (stripped,)),
            Command("train", ["train", train, *heb, "-o", model], lambda: w.info(train).runes,
                    lambda out: reference.check_model(w.text(model)), (model,)),
            Command("diacritize", ["diacritize", model, stripped, *heb, "-o", restored], lambda: w.info(gold).runes,
                    lambda out: reference.check_diacritize(w.text(restored), w.text(stripped)), (restored,)),
            Command("evaluate", ["evaluate", gold, restored, *heb, "--format", "json"],
                    lambda: 2 * w.info(gold).runes,
                    lambda out: reference.check_evaluate(out, w.text(gold), w.text(restored), w.tokens)),
        ]
    bulk = p("bulk.txt")
    return [Command("metrics", ["metrics", bulk, "--per-rune", "--format", "json"], lambda: w.info(bulk).runes,
                    lambda out: reference.check_metrics(out, w.info(bulk)))]


# -- running one CLI process ------------------------------------------------

class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str


def run_cli(argv, workdir: Path, timeout_s: float) -> Outcome:
    """Run ``runemetrics <argv>`` from ``src/``; peak RSS comes from this
    child alone (wait4), wall time includes process start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    previous = signal.signal(signal.SIGALRM, _alarm)
    status = usage = None
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "runemetrics.cli", *map(str, argv)],
                                    stdout=out, stderr=err, env=env, cwd=workdir)
            signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            timed_out = status is None
            if timed_out:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode, timed_out,
                   out_path.read_text(encoding="utf-8", errors="replace"),
                   err_path.read_text(encoding="utf-8", errors="replace"))


# -- one run ----------------------------------------------------------------

class Run:
    """Counts attempted/failed commands and the largest child RSS."""

    def __init__(self, workload: str, seed: int):
        self.started = time.perf_counter()
        self.work = Work(workload, seed)
        self.attempted = self.failed = 0
        self.peak_rss_mb = 0.0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def cli(self, cmd_name: str, argv, check=None) -> Outcome:
        res = run_cli(argv, self.work.dir, self.remaining())
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, res.rss_mb)
        if res.timed_out:
            problems = [f"{cmd_name}: timed out"]
        elif res.code != 0:
            problems = [f"{cmd_name}: exit {res.code}: {res.stderr.strip()[-300:]}"]
        elif check is None:
            problems = []
        else:
            try:
                problems = check(res.stdout)
            except (OSError, ValueError, KeyError) as e:  # e.g. a missing or malformed output file
                problems = [f"{cmd_name}: check could not run: {e!r}"]
        if problems:
            self.failed += 1
            self.problems += problems
        return res

    def setup_times(self, n: int) -> list[float]:
        """Wall time of ``runemetrics --version``: start, import, exit."""
        self.cli("--version", ["--version"])  # warm-up: bytecode cache
        return [self.cli("--version", ["--version"]).wall_s for _ in range(n)]

    def cli_pass(self, cmds, setup: list | None = None) -> tuple[float, int, dict]:
        """(wall seconds, input runes, per-command wall) of one pass.  With
        ``setup``, a ``--version`` wall time is appended after each command,
        so set-up is sampled across the whole run."""
        wall, runes, per_cmd = 0.0, 0, {}
        for cmd in cmds:
            for path in cmd.outputs:
                Path(path).unlink(missing_ok=True)
            res = self.cli(cmd.name, cmd.argv, cmd.check)
            if setup is not None:
                setup.append(self.cli("--version", ["--version"]).wall_s)
            wall += res.wall_s
            per_cmd[cmd.name] = per_cmd.get(cmd.name, 0.0) + res.wall_s
            try:
                runes += cmd.runes()
            except (OSError, ValueError):  # input missing after an earlier failure, already counted
                pass
        return wall, runes, per_cmd


def end_to_end(run: Run, workload: str, seed: int, seconds: float) -> dict:
    gen.generate(workload, seed, run.work.dir)
    cmds = commands(workload, run.work)
    setup = run.setup_times(SETUP_RUNS)
    rates = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, runes, _ = run.cli_pass(cmds, setup)
        rates.append(runes / wall)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds or now - run.started + (now - t0) > RUN_LIMIT_S:
            break
    values = {"setup_s": statistics.median(setup), "runes_per_s": statistics.median(rates),
              "peak_rss_mb": run.peak_rss_mb}
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _prefix(w: Work, name: str) -> tuple[Path, int]:
    """The first lines of ``name`` holding at least PREFIX_RUNES runes."""
    lines, runes = [], 0
    for line in w.text(w.path(name)).splitlines():
        if runes >= PREFIX_RUNES:
            break
        lines.append(line)
        runes += sum(len(w.tokens(t)[0]) for t in line.split())
    path = w.path("prefix.txt")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, runes


def _word_map_hits(w: Work, word_map: dict) -> dict:
    """Held-out tokens whose stripped, case-folded key the word map holds."""
    hits = tokens = 0
    for line in w.text(w.path("heldout.txt")).splitlines():
        for tok in line.split():
            runes = w.tokens(tok)[0]
            if runes:
                tokens += 1
                hits += "".join(base for base, _ in runes) in word_map
    return {"baseline.word_map.entries": len(word_map), "baseline.word_map.hit_tokens": hits,
            "baseline.word_map.tokens": tokens, "baseline.word_map.hit_ratio": hits / tokens}


def per_layer(run: Run, workload: str, seed: int) -> dict:
    w = run.work
    gen.generate(workload, seed, w.dir)
    run.setup_times(0)
    _, _, cli_walls = run.cli_pass(commands(workload, w))
    first = {"describe": "source.txt", "restore": "train.txt", "bulk": "bulk.txt"}[workload]
    _, prefix_runes = _prefix(w, first)
    names = [p.name for p in w.dir.iterdir() if p.suffix == ".txt" and p.name not in ("stdout.txt", "stderr.txt")]
    inputs = {"dir": str(w.dir), "target": w.target, "sample_seed": w.sample_seed, "prefix_runes": prefix_runes,
              "budget_s": run.remaining() - 10.0,
              "files": {n: {k: getattr(w.info(w.path(n)), k) for k in ("runes", "lines", "blank_lines", "words")}
                        for n in names}}
    inputs_path, result_path = w.path("inputs-trace.json"), BUILD / f"trace-{workload}-{seed}.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    run.attempted += 1
    try:
        proc = subprocess.run([sys.executable, str(Path(tracing.__file__)), workload, str(inputs_path),
                               str(result_path)], capture_output=True, text=True, timeout=max(run.remaining(), 1.0))
        problem = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}" if proc.returncode else None
    except subprocess.TimeoutExpired:
        problem = "timed out"
    if problem is None:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        run.failed += 1
        run.problems.append(f"traced pass: {problem}")
        result = {"spans": [], "untraced_s": 0.0, "extra": {}}
    extra = result["extra"]
    if workload == "restore":
        try:
            extra.update(_word_map_hits(w, json.loads(w.text(w.path("model.json")))["word_map"]))
        except (OSError, ValueError, KeyError):  # no usable model: train already counted as failed
            pass
    metrics = tracing.layer_metrics(result["spans"], result["untraced_s"], cli_walls, extra)
    return {name: (value, tracing.LAYER_UNITS[name]) for name, value in metrics.items()}


def report(workload: str, run: Run, metrics: dict) -> dict:
    for msg in run.problems:
        print(f"FAIL {workload}: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name:42s} {value:14.6g} {unit}")
    print(f"{workload}  {'fail_ratio':42s} {run.failed / run.attempted:14.6g} ratio "
          f"({run.failed} of {run.attempted} commands)")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "runemetrics" / "cli.py").is_file():
        print(f"run.py: no runemetrics sources under {SRC}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run = Run(workload, args.seed)
        try:
            metrics = (per_layer(run, workload, args.seed) if args.trace
                       else end_to_end(run, workload, args.seed, args.seconds))
        finally:
            shutil.rmtree(run.work.dir, ignore_errors=True)
        print(json.dumps(report(workload, run, metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
