"""Traced in-process pass: spans around each public runemetrics call.

The pass calls each module's public functions on the same inputs the CLI
commands read, in the same order, grouping the calls one CLI command makes
under a ``cli.<command>`` span.  Beside those it times ``normalize_decompose``
over each file and ``segment_runes_counted`` over each non-blank line, so
reading can be split into segmentation and the rest.  Spans live in memory
and are written out when the pass ends; per-layer metrics are derived from
their self times by ``layer_metrics``.

``run.py`` starts this file as its own interpreter, as the CLI is started, so
the pass neither shares a heap with the benchmark nor sees its caches:

    python3 bench/tracing.py WORKLOAD INPUTS_JSON RESULT_JSON
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Spans (name, start, end, parent, workload, counts) kept in memory.
    A disabled tracer runs the same code and records nothing."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        rec = {"name": name, "workload": self.workload,
               "parent": self._open[-1] if self._open else None,
               "start": 0.0, "end": 0.0, "counts": counts}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[dict]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                children.setdefault(rec["parent"], []).append(rec)
        out = []
        for i, rec in enumerate(self.spans):
            covered, edge = 0.0, rec["start"]
            for c in sorted(children.get(i, ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], edge), min(c["end"], rec["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(rec["end"] - rec["start"] - covered)
        return out

    def records(self) -> list[dict]:
        """The spans with their self time, as written out."""
        return [dict(rec, self_s=s) for rec, s in zip(self.spans, self.self_times())]


class Inputs:
    """What the pass needs to know about its files, as ``run.py`` wrote it:
    the directory, the sample settings and the reference counts per file."""

    def __init__(self, doc: dict):
        self.dir = Path(doc["dir"])
        self.target = doc["target"]
        self.sample_seed = doc["sample_seed"]
        self.prefix_runes = doc["prefix_runes"]
        self.budget_s = doc["budget_s"]
        self._files = doc["files"]

    def path(self, name: str) -> Path:
        return self.dir / name

    def info(self, path) -> SimpleNamespace:
        return SimpleNamespace(**self._files[Path(path).name])


# -- the traced pass --------------------------------------------------------

def _read(tr, rm, path, info, profile):
    with tr.span("corpus_io.read", file=Path(path).name, runes=info.runes) as c:
        corpus = rm.corpus_io.read_plaintext(path, profile)
    c["sentences"] = len(corpus.sentences)
    c["blank_lines"] = info.lines + info.blank_lines - len(corpus.sentences)
    return corpus


def _segment(tr, rm, path, info, profile):
    """NFD over the file, then segmentation of each non-blank line."""
    text = Path(path).read_text(encoding="utf-8")
    name = Path(path).name
    with tr.span("script_core.nfd", file=name, runes=info.runes):
        rm.script_core.normalize_decompose(text)
    seg = rm.script_core.segment_runes_counted
    lines = [line for line in text.splitlines() if line.strip()]
    with tr.span("script_core.segment", file=name, runes=info.runes) as c:
        n = orphans = 0
        for line in lines:
            runes, o = seg(line, profile)
            n += len(runes)
            orphans += o
    c["segment_runes"] = n
    c["orphan_marks"] = orphans


def describe_pass(tr, rm, w) -> None:
    latin, hebrew = rm.script_core.get_profile("latin-generic"), rm.script_core.get_profile("hebrew")
    src, sample, heb = w.path("source.txt"), w.path("sample.txt"), w.path("hebrew.txt")
    with tr.span("cli.sample"):
        corpus = _read(tr, rm, src, w.info(src), latin)
        with tr.span("corpus_io.sample"):
            picked = rm.corpus_io.sample(corpus, rm.corpus_io.SamplingConfig(w.target, w.sample_seed))
        with tr.span("corpus_io.write_plaintext"):
            rm.corpus_io.write_plaintext(picked, sample)
    del corpus, picked
    pairs = ((sample, latin), (heb, hebrew))
    for path, prof in pairs:
        info = w.info(path)
        with tr.span("cli.profile"):
            corpus = _read(tr, rm, path, info, prof)
            with tr.span("profiler.profile", file=Path(path).name, runes=info.runes, words=info.words):
                rm.profiler.profile(corpus)
    for path, prof in pairs:
        info = w.info(path)
        with tr.span("cli.metrics"):
            corpus = _read(tr, rm, path, info, prof)
            with tr.span("metrics.metric_report", file=Path(path).name, runes=info.runes):
                rm.metrics.metric_report(corpus, per_rune=True)
        with tr.span("metrics.build_tables", file=Path(path).name, runes=info.runes) as c:
            tables = rm.metrics.build_tables(corpus)
        c["rune_types"] = len(tables.rune_count)
    with tr.span("cli.correlate"):
        with tr.span("eval_stats.read_table"):
            rows = rm.eval_stats.read_table(w.path("languages.tsv"))
        with tr.span("eval_stats.correlate_table"):
            rm.eval_stats.correlate_table(rows, "rs", "word_acc")
    for path, prof in ((src, latin), *pairs):
        _segment(tr, rm, path, w.info(path), prof)


def restore_pass(tr, rm, w) -> None:
    hebrew = rm.script_core.get_profile("hebrew")
    train_path, gold_path = w.path("train.txt"), w.path("heldout.txt")
    stripped_path, model_path, restored_path = w.path("stripped.txt"), w.path("model.json"), w.path("restored.txt")
    gold_info = w.info(gold_path)
    with tr.span("cli.strip"):
        gold = _read(tr, rm, gold_path, gold_info, hebrew)
        with tr.span("script_core.strip_text", file=gold_path.name, runes=gold_info.runes):
            stripped = "".join(rm.script_core.strip_text(s.raw_text, hebrew) + "\n" for s in gold.sentences)
        stripped_path.write_text(stripped, encoding="utf-8")
    with tr.span("cli.train"):
        corpus = _read(tr, rm, train_path, w.info(train_path), hebrew)
        with tr.span("baseline.train", file=train_path.name, runes=w.info(train_path).runes):
            model = rm.baseline.train(corpus)
        with tr.span("baseline.save"):
            model.save(model_path)
    del corpus
    with tr.span("cli.diacritize"):
        with tr.span("baseline.load"):
            loaded = rm.baseline.BaselineModel.load(model_path)
        text = stripped_path.read_text(encoding="utf-8")
        with tr.span("baseline.diacritize", file=gold_path.name, runes=gold_info.runes):
            restored = rm.baseline.diacritize(loaded, text)
        restored_path.write_text(restored, encoding="utf-8")
    with tr.span("cli.evaluate"):
        gold = _read(tr, rm, gold_path, gold_info, hebrew)
        hyp = _read(tr, rm, restored_path, gold_info, hebrew)
        with tr.span("eval_stats.evaluate", file=gold_path.name, runes=gold_info.runes):
            rm.eval_stats.evaluate(gold, hyp)
    del gold, hyp
    for path in (train_path, gold_path):
        _segment(tr, rm, path, w.info(path), hebrew)


def bulk_pass(tr, rm, w) -> None:
    latin = rm.script_core.get_profile("latin-generic")
    path = w.path("bulk.txt")
    info = w.info(path)
    with tr.span("cli.metrics"):
        corpus = _read(tr, rm, path, info, latin)
        with tr.span("metrics.metric_report", file=path.name, runes=info.runes):
            rm.metrics.metric_report(corpus, per_rune=True)
    with tr.span("metrics.build_tables", file=path.name, runes=info.runes) as c:
        tables = rm.metrics.build_tables(corpus)
    c["rune_types"] = len(tables.rune_count)
    del corpus, tables
    _segment(tr, rm, path, info, latin)


PASSES = {"describe": describe_pass, "restore": restore_pass, "bulk": bulk_pass}


def run_pass(workload: str, rm, w, enabled: bool) -> tuple[Tracer, float]:
    tr = Tracer(workload, enabled)
    start = time.perf_counter()
    with tr.span("pass"):
        PASSES[workload](tr, rm, w)
    return tr, time.perf_counter() - start


def allocations(rm, prefix_path, runes: int, profile: str, with_tables: bool) -> dict:
    """tracemalloc peaks, untimed: reading a prefix of the workload's first
    corpus, then building frequency tables over it."""
    out = {}
    tracemalloc.start()
    try:
        corpus = rm.corpus_io.read_plaintext(prefix_path, rm.script_core.get_profile(profile))
        out["corpus_io.read.alloc_bytes_per_rune"] = tracemalloc.get_traced_memory()[1] / runes
        if with_tables:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            rm.metrics.build_tables(corpus)
            out["metrics.build_tables.alloc_bytes"] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out


# -- per-layer metrics --------------------------------------------------------

def layer_metrics(spans: list[dict], untraced_s: float, cli_walls: dict, extra: dict) -> dict:
    """Every metric of LAYER_UNITS; layers the workload does not use read 0.

    ``spans`` are ``Tracer.records()`` of the traced pass, the first being
    the whole pass; ``cli_walls`` maps each CLI command to its summed wall
    time in the CLI pass; ``extra`` holds the tracemalloc and word-map
    figures."""
    by_name: dict[str, list[tuple[dict, float]]] = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append((rec, rec["self_s"]))

    def total(name):
        return sum(s for _, s in by_name.get(name, ()))

    def runes(name):
        return sum(rec["counts"].get("runes", 0) for rec, _ in by_name.get(name, ()))

    def count(name, key):
        return sum(rec["counts"].get(key, 0) for rec, _ in by_name.get(name, ()))

    def us_per_rune(name):
        n = runes(name)
        return 1e6 * total(name) / n if n else 0.0

    seg_rate = {rec["counts"]["file"]: s / rec["counts"]["runes"] for rec, s in by_name.get("script_core.segment", ())}

    def vs_segment(name):
        spans = by_name.get(name, ())
        if not spans:
            return 0.0
        seg_s = sum(seg_rate[rec["counts"]["file"]] * rec["counts"]["runes"] for rec, _ in spans)
        return total(name) / seg_s

    first_reads = {}
    for rec, s in by_name.get("corpus_io.read", ()):
        first_reads.setdefault(rec["counts"]["file"], (rec, s))
    studied = [(first_reads[f], seg_rate[f]) for f in seg_rate if f in first_reads]
    nonseg_runes = sum(rec["counts"]["runes"] for (rec, _), _ in studied)

    m = {
        "script_core.nfd.us_per_rune": us_per_rune("script_core.nfd"),
        "script_core.segment.us_per_rune": us_per_rune("script_core.segment"),
        "script_core.segment.runes": count("script_core.segment", "segment_runes"),
        "script_core.segment.orphan_marks": count("script_core.segment", "orphan_marks"),
        "script_core.strip_text.us_per_rune": us_per_rune("script_core.strip_text"),
        "corpus_io.read.us_per_rune": us_per_rune("corpus_io.read"),
        "corpus_io.read.nonsegment_us_per_rune": (
            1e6 * sum(s - rate * rec["counts"]["runes"] for (rec, s), rate in studied) / nonseg_runes
            if nonseg_runes else 0.0),
        "corpus_io.read.alloc_bytes_per_rune": extra.get("corpus_io.read.alloc_bytes_per_rune", 0.0),
        "corpus_io.read.sentences": sum(rec["counts"]["sentences"] for rec, _ in first_reads.values()),
        "corpus_io.read.blank_lines": sum(rec["counts"]["blank_lines"] for rec, _ in first_reads.values()),
        "corpus_io.sample.s": total("corpus_io.sample"),
        "corpus_io.write_plaintext.s": total("corpus_io.write_plaintext"),
        "metrics.build_tables.us_per_rune": us_per_rune("metrics.build_tables"),
        "metrics.metric_report.us_per_rune": us_per_rune("metrics.metric_report"),
        "metrics.build_tables.alloc_bytes": extra.get("metrics.build_tables.alloc_bytes", 0),
        "metrics.rune_types": count("metrics.build_tables", "rune_types"),
        "profiler.profile.us_per_rune": us_per_rune("profiler.profile"),
        "profiler.words": count("profiler.profile", "words"),
        "baseline.train.us_per_rune": us_per_rune("baseline.train"),
        "baseline.save.s": total("baseline.save"),
        "baseline.load.s": total("baseline.load"),
        "baseline.diacritize.us_per_rune": us_per_rune("baseline.diacritize"),
        "baseline.word_map.entries": extra.get("baseline.word_map.entries", 0),
        "baseline.word_map.hit_ratio": extra.get("baseline.word_map.hit_ratio", 0.0),
        "baseline.word_map.hit_tokens": extra.get("baseline.word_map.hit_tokens", 0),
        "baseline.word_map.tokens": extra.get("baseline.word_map.tokens", 0),
        "eval_stats.evaluate.us_per_rune": us_per_rune("eval_stats.evaluate"),
        "eval_stats.correlate_table.s": total("eval_stats.correlate_table"),
        "metrics.metric_report.vs_segment": vs_segment("metrics.metric_report"),
        "profiler.profile.vs_segment": vs_segment("profiler.profile"),
        "baseline.train.vs_segment": vs_segment("baseline.train"),
        "baseline.diacritize.vs_segment": vs_segment("baseline.diacritize"),
        "eval_stats.evaluate.vs_segment": vs_segment("eval_stats.evaluate"),
        "trace.overhead_ratio": (spans[0]["end"] - spans[0]["start"]) / untraced_s if untraced_s else 0.0,
    }
    for cmd in CLI_COMMANDS:
        group = sum(rec["end"] - rec["start"] for rec, _ in by_name.get(f"cli.{cmd}", ()))
        m[f"cli.{cmd}.overhead_s"] = cli_walls[cmd] - group if cmd in cli_walls else 0.0
    for cmd in TIMED_COMMANDS:
        m[f"{cmd}_s"] = cli_walls.get(cmd, 0.0)
    return m


CLI_COMMANDS = ("sample", "profile", "metrics", "correlate", "strip", "train", "diacritize", "evaluate")
TIMED_COMMANDS = ("sample", "profile", "metrics", "strip", "train", "diacritize", "evaluate")

# Every per-layer metric, in report order, with its unit.
LAYER_UNITS = {
    "script_core.nfd.us_per_rune": "us/rune",
    "script_core.segment.us_per_rune": "us/rune",
    "script_core.segment.runes": "count",
    "script_core.segment.orphan_marks": "count",
    "script_core.strip_text.us_per_rune": "us/rune",
    "corpus_io.read.us_per_rune": "us/rune",
    "corpus_io.read.nonsegment_us_per_rune": "us/rune",
    "corpus_io.read.alloc_bytes_per_rune": "B/rune",
    "corpus_io.read.sentences": "count",
    "corpus_io.read.blank_lines": "count",
    "corpus_io.sample.s": "s",
    "corpus_io.write_plaintext.s": "s",
    "metrics.build_tables.us_per_rune": "us/rune",
    "metrics.metric_report.us_per_rune": "us/rune",
    "metrics.build_tables.alloc_bytes": "B",
    "metrics.rune_types": "count",
    "profiler.profile.us_per_rune": "us/rune",
    "profiler.words": "count",
    "baseline.train.us_per_rune": "us/rune",
    "baseline.save.s": "s",
    "baseline.load.s": "s",
    "baseline.diacritize.us_per_rune": "us/rune",
    "baseline.word_map.entries": "count",
    "baseline.word_map.hit_ratio": "ratio",
    "baseline.word_map.hit_tokens": "count",
    "baseline.word_map.tokens": "count",
    "eval_stats.evaluate.us_per_rune": "us/rune",
    "eval_stats.correlate_table.s": "s",
    "metrics.metric_report.vs_segment": "ratio",
    "profiler.profile.vs_segment": "ratio",
    "baseline.train.vs_segment": "ratio",
    "baseline.diacritize.vs_segment": "ratio",
    "eval_stats.evaluate.vs_segment": "ratio",
    **{f"cli.{cmd}.overhead_s": "s" for cmd in CLI_COMMANDS},
    **{f"{cmd}_s": "s" for cmd in TIMED_COMMANDS},
    "trace.overhead_ratio": "ratio",
}


def main(argv) -> int:
    workload, inputs_path, result_path = argv
    with open(inputs_path, encoding="utf-8") as f:
        w = Inputs(json.load(f))
    sys.path.insert(0, str(SRC))
    rm = SimpleNamespace(**{m: importlib.import_module(f"runemetrics.{m}") for m in (
        "script_core", "corpus_io", "metrics", "profiler", "baseline", "eval_stats")})
    start = time.perf_counter()
    traced, traced_s = run_pass(workload, rm, w, enabled=True)
    # the untraced twin only bounds tracing cost: skip it rather than overrun
    untraced_s = 0.0
    if time.perf_counter() - start + 1.5 * traced_s < w.budget_s:
        _, untraced_s = run_pass(workload, rm, w, enabled=False)
    extra = allocations(rm, w.path("prefix.txt"), w.prefix_runes,
                        "hebrew" if workload == "restore" else "latin-generic",
                        with_tables=workload != "restore")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"spans": traced.records(), "untraced_s": untraced_s, "extra": extra}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
