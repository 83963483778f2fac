"""Command-line front end.

Subcommands: profile, metrics, sample, strip, train, diacritize,
evaluate, correlate.  The four that emit rows (profile, metrics,
evaluate, correlate) write TSV with a header line by default; their
--format json switches to one JSON object per row (JSON lines).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import sys
from pathlib import Path

# Only the version comes from the package here: each command imports the
# modules it runs, so --version, --help and usage errors compile cli alone;
# json is imported only where JSON is written or read.
from . import __version__


class UsageError(Exception):
    """A command line that cannot run as given (exit status 2)."""


def _profile(args):
    """The profile named by --profile, resolved once by each command that reads text."""
    from .script_core import get_profile

    try:
        return get_profile(args.profile)
    except (OSError, ValueError) as e:  # both messages name the file
        raise UsageError(f"bad profile: {e}") from None


def _corpora(args):
    """The reader of a corpus under the command's profile, resolved once."""
    from .corpus_io import read_corpus

    profile = _profile(args)
    return lambda path: read_corpus(path, profile)


def _fold(read, paths, compute, **options):
    """The read -> compute stage of every command: ``read`` each path in
    order, then ``compute(*inputs, **options)``.  A read error names its
    file and line; a ValueError from the computation names the first path
    and keeps its class, so a CorpusError still exits 2."""
    inputs = [read(path) for path in paths]
    try:
        return compute(*inputs, **options)
    except ValueError as e:
        raise type(e)(f"{paths[0]}: {e}") from None


def _labelled(args, path: str, report) -> dict:
    """A report's output row: its language (--language, else the file's
    stem) and corpus (the file's stem), then the report's figures.  A
    label must be UTF-8 and read back from a TSV cell as itself: no tab
    or line end, no padding, and not "--", which reads back as missing."""
    stem = Path(path).stem
    for label, given in ((args.language, "--language"), (stem, f"file name {path!r}")):
        try:  # the one text of the command line that output carries
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise UsageError(f"{given}: {label!r} is not UTF-8, so it cannot label a row") from None
        if label != label.strip() or label == "--" or {"\t", "\n", "\r"} & set(label):
            raise UsageError(f"{given}: {label!r} does not read back from a TSV cell as itself, "
                             "so it cannot label a row")
    return {"language": args.language or stem, "corpus": stem, **report.as_dict()}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _table(rows, fmt: str) -> list[str]:
    """One report's lines; its columns, in order, are the keys every row shares."""
    if fmt == "json":  # JSON has no infinity: a non-finite float, such as t at |r| = 1, is null
        import json

        return [json.dumps({k: None if isinstance(v, float) and not math.isfinite(v) else v
                            for k, v in row.items()}, ensure_ascii=False) + "\n" for row in rows]
    return ["\t".join(rows[0]) + "\n", *("\t".join(map(_fmt, row.values())) + "\n" for row in rows)]


def _write_manifest(args):
    """Written by main after the command's output: the parsed command line,
    each option under its own name, so the run replays from it, and the
    package and Unicode database versions that it ran under."""
    if not args.manifest:
        return
    import json
    import unicodedata

    doc = {k: v for k, v in vars(args).items() if k not in ("func", "manifest")}
    doc["version"], doc["unicode"] = __version__, unicodedata.unidata_version
    if args.output:
        Path(args.output + ".manifest.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    else:
        print(json.dumps(doc), file=sys.stderr)


def _open_out(args):
    """The -o file, or stdout when there is none."""
    if args.output:
        return open(args.output, "w", encoding="utf-8", newline="\n")
    return contextlib.nullcontext(sys.stdout)


# -- subcommand bodies -----------------------------------------------------
# Each reads its positionals, args.inputs, and computes through _fold, and
# returns the lines main writes to -o or stdout.

def cmd_profile(args):
    from .profiler import profile as profile_corpus

    read = _corpora(args)
    rows = []
    by_language = {}
    for path in args.inputs:  # one stage per input: one corpus held at a time
        row = _labelled(args, path, _fold(read, [path], profile_corpus))
        rows.append(row)
        by_language.setdefault(row["language"], []).append(row)
    # per-language average row when a language has several corpora, in its rows' columns
    numeric = [c for c in rows[0] if c not in ("language", "corpus", "system")]
    for group in by_language.values():
        if len(group) < 2:
            continue
        avg = dict(group[0], corpus="AVG",
                   system="Multi" if any(g["system"] == "Multi" for g in group) else "Single")
        for c in numeric:
            avg[c] = sum(g[c] for g in group) / len(group)
        rows.append(avg)
    return _table(rows, args.format)


def cmd_metrics(args):
    from .metrics import metric_report

    read = _corpora(args)
    rows = []
    breakdowns = []
    for path in args.inputs:
        rep = _fold(read, [path], metric_report, per_rune=args.per_rune)
        rows.append(_labelled(args, path, rep))
        if args.per_rune:
            breakdowns += ({"corpus": rows[-1]["corpus"], **row} for row in rep.per_rune)
    return _table(rows, args.format) + (_table(breakdowns, args.format) if args.per_rune else [])


def cmd_sample(args):
    from .corpus_io import SamplingConfig, sample
    from .script_core import normalize_decompose

    if args.target_chars <= 0:
        raise UsageError(f"--target-chars must be positive, got {args.target_chars}")
    cfg = SamplingConfig(target_base_chars=args.target_chars, seed=args.seed)
    sampled = _fold(_corpora(args), args.inputs, sample, cfg=cfg)
    return (normalize_decompose(text) + "\n" for _, text in sampled.texts)  # line by line, so a closed pipe is reported


def cmd_strip(args):
    from .script_core import strip_text

    def strip(corpus):  # decomposition never acts across a newline, so the lines strip as one text
        texts = [text for _, text in corpus.texts]
        return strip_text("\n".join(texts), corpus.profile).split("\n") if texts else []
    return (line + "\n" for line in _fold(_corpora(args), args.inputs, strip))


def cmd_train(args):
    from .baseline import train

    return [_fold(_corpora(args), args.inputs, train).dumps()]


def cmd_diacritize(args):
    from .baseline import BaselineModel, diacritize
    from .script_core import decode_utf8

    model_path, text_path = args.inputs
    model = BaselineModel.load(model_path)
    if args.profile is not None and _profile(args) != model.profile:
        raise UsageError(f"--profile {args.profile} does not match the model's profile {model.profile.name}")
    restored = _fold(decode_utf8, [text_path], lambda text: diacritize(model, text))
    if restored and not restored.endswith(("\n", "\r")):
        restored += "\n"
    return restored.splitlines(keepends=True)


def cmd_evaluate(args):
    from .eval_stats import evaluate

    rep = _fold(_corpora(args), args.inputs, evaluate)  # a failed comparison names the gold file
    return _table([rep.as_dict()], args.format)


def cmd_correlate(args):
    from .eval_stats import correlate_table, read_table

    rep = _fold(read_table, args.inputs, correlate_table, x=args.x, y=args.y)
    return _table([rep.as_dict()], args.format)


# -- argument wiring -------------------------------------------------------

def _add_common(p, func, output=False, profile="latin-generic",
                profile_help="builtin profile name or path to a profile JSON file",
                text=True, rows=False, language=False):
    """Finish subcommand p, which runs func: -o (required when output is
    True, absent when None), then the options every subcommand takes, plus
    --profile where it reads text, --format where it emits rows and
    --language where rows carry a language label.  Where p lacks -o, it
    reads None, since main reads it from every command."""
    p.set_defaults(func=func, output=None)
    if output is not None:
        p.add_argument("-o", "--output", required=output)
    if text:
        p.add_argument("--profile", default=profile, help=profile_help)
    p.add_argument("--manifest", action="store_true",
                   help="emit a run manifest alongside the output")
    if rows:
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    if language:
        p.add_argument("--language", default="", help="language label for output rows")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="runemetrics",
                                 description="Diacritic usage and complexity analytics")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def command(name, summary, *inputs):
        """A subcommand whose positionals ``inputs`` each append one file, in
        order, to args.inputs; with none named, args.inputs takes one or more."""
        p = sub.add_parser(name, help=summary)
        for metavar in inputs:
            p.add_argument("inputs", action="append", metavar=metavar)
        if not inputs:
            p.add_argument("inputs", nargs="+")
        return p

    _add_common(command("profile", "descriptive corpus statistics"), cmd_profile, rows=True, language=True)

    p = command("metrics", "density and surprisal metrics")
    p.add_argument("--per-rune", action="store_true")
    _add_common(p, cmd_metrics, rows=True, language=True)

    p = command("sample", "seeded fixed-size sentence sampling", "input")
    p.add_argument("--target-chars", type=int, default=300_000)
    p.add_argument("--seed", type=int, default=1)
    _add_common(p, cmd_sample)

    _add_common(command("strip", "remove diacritics from a corpus", "input"), cmd_strip)
    _add_common(command("train", "train the frequency baseline restorer", "input"), cmd_train, output=True)
    _add_common(command("diacritize", "restore diacritics with a trained model", "model", "input"), cmd_diacritize,
                profile=None, profile_help="must match the model's profile, which is used when absent")
    _add_common(command("evaluate", "word- and rune-level accuracy", "gold", "hyp"), cmd_evaluate,
                output=None, rows=True)

    p = command("correlate", "Pearson r with significance over a TSV", "table")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_common(p, cmd_correlate, output=None, text=False, rows=True)
    return ap


def main(argv=None) -> int:
    """Run one command line in process and return its exit status."""
    args = build_parser().parse_args(argv)
    from .script_core import CorpusError

    try:
        for key, value in vars(args).items():  # as --opt -- is refused; before 3.13 argparse reads --opt=-- as []
            if value == [] or value == "--":
                raise UsageError(f"argument --{key.replace('_', '-')}: expected one argument")
        lines = args.func(args)
        with _open_out(args) as out:
            out.writelines(lines)
        _write_manifest(args)
        return 0
    except (OSError, CorpusError, UsageError) as e:
        print(f"runemetrics: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"runemetrics: {e}", file=sys.stderr)
        return 1


def run():
    """The process entry of the console script and ``python -m``: exit
    with main's status.  The process ends next, so every object is frozen
    first and the full collections of interpreter finalization skip them
    all.  atexit handlers still run and stdio is flushed as before; main,
    the in-process API, never touches the collector."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
