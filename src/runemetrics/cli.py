"""Command-line front end.

Subcommands: profile, metrics, sample, strip, train, diacritize,
evaluate, correlate.  The four that emit rows (profile, metrics,
evaluate, correlate) write TSV with a header line by default; their
--format json switches to one JSON object per row (JSON lines).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

# Only the version comes from the package here: each command imports the
# modules it runs, so --version, --help and usage errors compile cli alone.
from . import __version__


class UsageError(Exception):
    """A command line that cannot run as given (exit status 2)."""


def _profile(args):
    """The profile named by --profile, resolved once by each command that reads text."""
    from .script_core import get_profile

    try:
        return get_profile(args.profile_name)
    except (OSError, ValueError) as e:  # both messages name the file
        raise UsageError(f"bad profile: {e}") from None


@contextlib.contextmanager
def _naming(path):
    """A ValueError raised inside names the file at path and keeps its class,
    so a CorpusError still exits 2.  Reads stay outside: their errors name
    the file with the line or byte offset."""
    try:
        yield
    except ValueError as e:
        raise type(e)(f"{path}: {e}") from None


def _fold(fold, path: str, profile, **options):
    """``fold`` over the corpus at path, naming the file if the fold fails."""
    from .corpus_io import read_corpus

    corpus = read_corpus(path, profile)
    with _naming(path):
        return fold(corpus, **options)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _emit_rows(rows, fmt: str, out=None):
    """One report's rows; its columns, in order, are the keys every row shares."""
    out = out or sys.stdout
    if fmt == "json":
        for row in rows:
            print(json.dumps(row, ensure_ascii=False), file=out)
    else:
        print("\t".join(rows[0]), file=out)
        for row in rows:
            print("\t".join(map(_fmt, row.values())), file=out)


def _write_manifest(args, extra=None):
    """Written by main once the command has succeeded, with the fields it returned."""
    if not args.manifest:
        return
    inputs = getattr(args, "inputs", None) or [
        getattr(args, name, None) for name in ("model", "input", "gold", "hyp", "table")]
    doc = {
        "subcommand": args.command,
        "inputs": [str(p) for p in inputs if p],
        "profile": args.profile_name,
        "format": getattr(args, "format", None),
        "version": __version__,
    }
    if extra:
        doc.update(extra)
    target = getattr(args, "output", None)
    if target:
        Path(str(target) + ".manifest.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    else:
        print(json.dumps(doc), file=sys.stderr)


def _open_out(args):
    """The -o file, or stdout when there is none."""
    if args.output:
        return open(args.output, "w", encoding="utf-8", newline="\n")
    return contextlib.nullcontext(sys.stdout)


# -- subcommand bodies -----------------------------------------------------
# Each returns the extra fields of its run manifest, or None.

def cmd_profile(args) -> dict | None:
    from .profiler import profile as profile_corpus

    profile = _profile(args)
    rows = []
    by_language = {}
    for path in args.inputs:
        row = _fold(profile_corpus, path, profile).as_row(language=args.language or Path(path).stem,
                                                          corpus=Path(path).stem)
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
    with _open_out(args) as out:
        _emit_rows(rows, args.format, out)


def cmd_metrics(args) -> dict | None:
    from .metrics import metric_report

    profile = _profile(args)
    rows = []
    breakdowns = []
    for path in args.inputs:
        rep = _fold(metric_report, path, profile, per_rune=args.per_rune)
        rows.append({"language": args.language or Path(path).stem, "corpus": Path(path).stem, **rep.as_dict()})
        if args.per_rune:
            for rune, n, rs, dts, dss in rep.per_rune:
                breakdowns.append({"corpus": Path(path).stem, "rune": rune.key(),
                                   "text": rune.text(), "count": n,
                                   "rs": rs, "dts": dts, "dss": dss})
    with _open_out(args) as out:
        _emit_rows(rows, args.format, out)
        if args.per_rune:
            _emit_rows(breakdowns, args.format, out)


def cmd_sample(args) -> dict | None:
    from .corpus_io import SamplingConfig, sample
    from .script_core import normalize_decompose

    if args.target_chars <= 0:
        raise UsageError(f"--target-chars must be positive, got {args.target_chars}")
    cfg = SamplingConfig(target_base_chars=args.target_chars, seed=args.seed)
    sampled = _fold(sample, args.input, _profile(args), cfg=cfg)
    with _open_out(args) as out:
        out.writelines(normalize_decompose(text) + "\n" for _, text in sampled.texts)
    return {"seed": args.seed, "target_chars": args.target_chars}


def cmd_strip(args) -> dict | None:
    from .corpus_io import read_corpus
    from .script_core import strip_text

    profile = _profile(args)
    texts = [text for _, text in read_corpus(args.input, profile).texts]
    with _open_out(args) as out:
        if texts:  # decomposition never acts across a newline, so the lines strip as one text
            out.write(strip_text("\n".join(texts), profile) + "\n")


def cmd_train(args) -> dict | None:
    from .baseline import train

    _fold(train, args.input, _profile(args)).save(args.output)


def cmd_diacritize(args) -> dict | None:
    from .baseline import BaselineModel, diacritize
    from .corpus_io import decode_utf8

    model = BaselineModel.load(args.model)
    if args.profile_name is not None and _profile(args) != model.profile:
        raise UsageError(f"--profile {args.profile_name} does not match the model's profile {model.profile.name}")
    restored = diacritize(model, decode_utf8(args.input))
    if restored and not restored.endswith("\n"):
        restored += "\n"
    with _open_out(args) as out:
        out.write(restored)
    return {"profile": model.profile.name}


def cmd_evaluate(args) -> dict | None:
    from .corpus_io import read_corpus
    from .eval_stats import evaluate

    profile = _profile(args)
    gold, hyp = read_corpus(args.gold, profile), read_corpus(args.hyp, profile)
    with _naming(args.gold):  # a failed comparison is reported against the gold file
        rep = evaluate(gold, hyp)
    _emit_rows([rep.as_dict()], args.format)


def cmd_correlate(args) -> dict | None:
    from .eval_stats import correlate_table, read_table

    rows = read_table(args.table)
    with _naming(args.table):
        rep = correlate_table(rows, args.x, args.y)
    _emit_rows([rep.as_dict()], args.format)


# -- argument wiring -------------------------------------------------------

def _add_common(p, profile="latin-generic",
                profile_help="builtin profile name or path to a profile JSON file",
                rows=False, language=False):
    """Options every subcommand takes, plus --format where it emits rows
    and --language where rows carry a language label."""
    p.add_argument("--profile", default=profile, dest="profile_name", help=profile_help)
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
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="descriptive corpus statistics")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output")
    _add_common(p, rows=True, language=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("metrics", help="density and surprisal metrics")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--per-rune", action="store_true")
    p.add_argument("-o", "--output")
    _add_common(p, rows=True, language=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sample", help="seeded fixed-size sentence sampling")
    p.add_argument("input")
    p.add_argument("--target-chars", type=int, default=300_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("strip", help="remove diacritics from a corpus")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    _add_common(p)
    p.set_defaults(func=cmd_strip)

    p = sub.add_parser("train", help="train the frequency baseline restorer")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("diacritize", help="restore diacritics with a trained model")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    _add_common(p, profile=None, profile_help="must match the model's profile, which is used when absent")
    p.set_defaults(func=cmd_diacritize)

    p = sub.add_parser("evaluate", help="word- and rune-level accuracy")
    p.add_argument("gold")
    p.add_argument("hyp")
    _add_common(p, rows=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("correlate", help="Pearson r with significance over a TSV")
    p.add_argument("table")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_common(p, profile=None, profile_help="ignored: correlate reads no text", rows=True)
    p.set_defaults(func=cmd_correlate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .corpus_io import CorpusError

    try:
        _write_manifest(args, args.func(args))
        return 0
    except (FileNotFoundError, IsADirectoryError, PermissionError, CorpusError, UsageError) as e:
        print(f"runemetrics: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"runemetrics: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
