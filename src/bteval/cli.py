"""Command-line driver: segment / score / validate / run / stats / report.

Standard output carries data; diagnostics go to standard error. Exit
codes: 0 success (warnings allowed), 1 degradation threshold exceeded or
no round-trip scored, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import corpus as corpus_mod
from . import pipeline as pipeline_mod
from . import report as report_mod
from . import stats as stats_mod
from .config import RunConfig, api_key
from .jsonio import ConfigError, config_from_json, loads
from .metrics import MetricError, ScoringConfig, score_pair
from .segmentation import (
    CHARACTER,
    DEFAULT_TRADITIONAL_THRESHOLD,
    WORD,
    LexiconError,
    default_lexicon,
    load_lexicon,
    load_variant_table,
    segment_chars,
    segment_words,
)

EXIT_OK = 0
EXIT_DEGRADED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Reported to stderr; maps to exit code 2."""


def _require_file(path, what: str):
    """path, if it names a file (a name too long to stat names none); otherwise a CliError."""
    if not os.path.isfile(path):
        raise CliError(f"{what} file not found: {path}")
    return path


def _load_lexicon_arg(path: str | None):
    return default_lexicon() if path is None else load_lexicon(_require_file(path, "lexicon"))


def _load_variant_table_arg(path: str | None):
    return load_variant_table(_require_file(path, "variant table")) if path else None


def _read_text(path, what: str = "input") -> str:
    """The text of a UTF-8 file; a missing file or any other encoding is a CliError."""
    try:
        return Path(_require_file(path, what)).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} file {path} is not UTF-8: {exc}") from exc


def _out_dir(path) -> Path:
    """The output directory, created if missing; a path that cannot be one is a CliError."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {path}: {exc}") from exc
    return out_dir


def cmd_segment(args) -> int:
    lexicon = _load_lexicon_arg(args.lexicon)
    text = _read_text(args.text) if os.path.isfile(args.text) else args.text
    tokens = segment_words(text, lexicon) if args.level == WORD else segment_chars(text)
    sep = "\n" if args.lines else "/"
    print(sep.join(tokens))
    return EXIT_OK


def cmd_score(args) -> int:
    original = _read_text(args.original).strip()
    candidate = _read_text(args.candidate).strip()
    if not original:
        raise CliError(f"empty original file: {args.original}")
    if not candidate:
        raise CliError(f"empty candidate file: {args.candidate}")
    lexicon = _load_lexicon_arg(args.lexicon)
    scoring = _scoring_from_path(args.config) if args.config else ScoringConfig()
    vector = score_pair(original, candidate, lexicon, scoring)
    print(json.dumps(asdict(vector), ensure_ascii=False))
    return EXIT_OK


def cmd_validate(args) -> int:
    loaded = corpus_mod.parse_corpus(_require_file(args.corpus, "corpus"))
    table = _load_variant_table_arg(args.variant_table)
    warnings = corpus_mod.validate_corpus(loaded, args.threshold, table)
    for warning in warnings:
        print(warning)
    print(f"{len(loaded)} samples, {len(warnings)} warnings", file=sys.stderr)
    return EXIT_OK


def _read_json(path, what: str) -> dict:
    """The JSON object in a config or matrix file; anything else is a CliError."""
    try:
        data = loads(_read_text(path, what))
    except ValueError as exc:  # not RFC 8259 JSON, or an integer too long to convert
        raise CliError(f"invalid JSON {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{what} file {path} must hold a JSON object")
    return data


def _scoring_from_path(path: str) -> ScoringConfig:
    """A run config's scoring (the default if it has none), or a bare scoring object;
    their key sets are disjoint, so any run config key marks a run config."""
    data = _read_json(path, "config")
    if any(f.name in data for f in fields(RunConfig)):
        return config_from_json(RunConfig, data, "run config").scoring
    return config_from_json(ScoringConfig, data, "scoring")


def _unit_interval(closed: bool):
    """An argparse type: a number in [0, 1], or strictly between 0 and 1 if not closed."""
    def parse(text: str) -> float:
        try:
            value = float(text)
            if (0.0 <= value <= 1.0) if closed else (0.0 < value < 1.0):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"must lie in {'[0, 1]' if closed else '(0, 1)'}, got {text!r}")
    return parse


_alpha = _unit_interval(closed=False)  # a significance level
_fraction = _unit_interval(closed=True)  # a ratio threshold


def cmd_run(args) -> int:
    config = config_from_json(RunConfig, _read_json(args.config, "config"), "run config")
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    loaded = corpus_mod.parse_corpus(_require_file(config.corpus, "corpus"))
    lexicon = _load_lexicon_arg(config.lexicon)
    table = _load_variant_table_arg(config.variant_table)
    for backend in config.backends:
        if backend.kind == "http_llm":
            api_key(backend)  # a bad key exits 2 before --out exists
    out_dir = _out_dir(args.out)

    matrices, records, manifest = pipeline_mod.run_experiment(
        loaded, config, lexicon=lexicon, variant_table=table)

    pipeline_mod.write_records(records, out_dir / "records.jsonl")
    (out_dir / "manifest.json").write_text(
        json.dumps(asdict(manifest), ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    for name, matrix in matrices.items():
        (out_dir / f"matrix_{name}.json").write_text(
            json.dumps(matrix.to_dict(), ensure_ascii=False) + "\n", encoding="utf-8")
    _emit_stats(matrices, out_dir, args.alpha, args.correction)
    _emit_report(matrices, out_dir)

    errors = sum(1 for rec in records if rec.error is not None)
    missing_fraction = max(m.missing_fraction() for m in matrices.values())
    print(f"{len(records)} records, {errors} errors, missing fraction {missing_fraction:.3f}",
          file=sys.stderr)
    if errors == len(records):
        print("degraded: every round-trip failed, nothing was scored", file=sys.stderr)
        return EXIT_DEGRADED
    if missing_fraction > config.max_missing_fraction:
        print(f"degradation threshold exceeded "
              f"({missing_fraction:.3f} > {config.max_missing_fraction})",
              file=sys.stderr)
        return EXIT_DEGRADED
    return EXIT_OK


def _emit_stats(matrices, out_dir: Path, alpha: float,
                correction: str) -> list[stats_mod.MetricBattery]:
    """Significance battery per metric: pairwise_tests.csv and stats_report.json."""
    batteries = []
    for name in sorted(matrices):
        try:
            batteries.append(stats_mod.run_metric_battery(
                matrices[name], alpha=alpha, correction=correction))
        except stats_mod.StatsError as exc:
            print(f"stats skipped for {name}: {exc}", file=sys.stderr)
    report_mod.emit_pairwise_csv(batteries, out_dir / "pairwise_tests.csv")
    report_mod.emit_stats_report(batteries, out_dir / "stats_report.json")
    return batteries


def _emit_report(matrices, out) -> Path:
    """Summaries, metric correlations and the plot bundle, written to the directory out
    (created only once all of them are computed); returns that directory."""
    summarized = {name: m for name, m in matrices.items() if m.observations().size}
    for name in sorted(set(matrices) - set(summarized)):
        print(f"summary skipped for {name}: matrix has no observations", file=sys.stderr)
    correlations = report_mod.metric_correlations(matrices)
    summaries = report_mod.summarize_all(summarized)
    out_dir = _out_dir(out)
    report_mod.emit_summaries_csv(summaries, out_dir / "summaries.csv")
    report_mod.emit_correlations_csv(correlations, out_dir / "correlations.csv")
    report_mod.emit_plot_data(matrices, correlations, summaries, out_dir / "plot_bundle.json")
    return out_dir


def _load_matrices(paths) -> dict:
    """Metric name -> matrix; two files holding one metric are a CliError."""
    matrices, sources = {}, {}
    for path in paths:
        data = _read_json(path, "matrix")
        try:
            matrix = stats_mod.ScoreMatrix.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"malformed matrix file {path}: {type(exc).__name__}: {exc}") from exc
        if matrix.metric in sources:
            raise CliError(f"matrix files {sources[matrix.metric]} and {path} "
                           f"both hold metric {matrix.metric!r}")
        matrices[matrix.metric], sources[matrix.metric] = matrix, path
    return matrices


def _require_one_grid(paths, matrices: dict) -> None:
    """A report pairs cells by position across metrics, so every matrix (the i-th
    read from ``paths[i]``) must share the first one's design, block and treatment ids."""
    grids = [(m.design, m.block_ids, m.treatment_ids) for m in matrices.values()]
    for path, grid in zip(paths[1:], grids[1:]):
        if grid != grids[0]:
            raise CliError(f"matrix files {paths[0]} and {path} differ in design, "
                           "block_ids or treatment_ids; a report pairs their cells by position")


def cmd_stats(args) -> int:
    matrices = _load_matrices(args.matrices)
    out_dir = _out_dir(args.out)
    batteries = _emit_stats(matrices, out_dir, args.alpha, args.correction)
    total = sum(len(b.significant_pairs) for b in batteries)
    print(f"{len(batteries)} metrics tested, {total} significant pairs", file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    if not os.path.isdir(run_dir):
        raise CliError(f"run directory not found: {args.run_dir}")
    paths = sorted(run_dir.glob("matrix_*.json"))
    if not paths:
        raise CliError(f"no matrix_*.json files in {args.run_dir}")
    matrices = _load_matrices(paths)
    _require_one_grid(paths, matrices)
    out_dir = _emit_report(matrices, args.out or run_dir)
    print(f"report written to {out_dir}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bteval",
        description="Back-translation evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    battery = argparse.ArgumentParser(add_help=False)
    battery.add_argument("--alpha", type=_alpha, default=stats_mod.DEFAULT_ALPHA)
    battery.add_argument("--correction", default=stats_mod.BENJAMINI_HOCHBERG,
                         choices=[stats_mod.BENJAMINI_HOCHBERG, stats_mod.BONFERRONI,
                                  stats_mod.NO_CORRECTION])

    p = sub.add_parser("segment", help="tokenize text or a file")
    p.add_argument("text", help="literal text or a path to a UTF-8 file")
    p.add_argument("--lexicon", help="frequency lexicon path (default: shipped)")
    p.add_argument("--level", choices=[WORD, "char", CHARACTER], default=WORD)
    p.add_argument("--lines", action="store_true", help="one token per line instead of slash-joined")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("score", help="score a (original, candidate) file pair")
    p.add_argument("original")
    p.add_argument("candidate")
    p.add_argument("--lexicon")
    p.add_argument("--config", help="run config, or a bare scoring object")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("validate", help="validate a JSONL corpus")
    p.add_argument("corpus")
    p.add_argument("--threshold", type=_fraction, default=DEFAULT_TRADITIONAL_THRESHOLD,
                   help="traditional-character ratio that triggers a warning")
    p.add_argument("--variant-table", dest="variant_table")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", parents=[battery],
                       help="execute a configured round-trip experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", parents=[battery],
                       help="run the significance battery on saved matrices")
    p.add_argument("matrices", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="summaries, correlations, and plot bundle for a run")
    p.add_argument("run_dir")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, corpus_mod.CorpusError, LexiconError, MetricError,
            stats_mod.StatsError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
