"""Command-line driver: segment / score / validate / run / stats / report.

Standard output carries data; diagnostics go to standard error. Exit
codes: 0 success (warnings allowed), 1 degradation threshold exceeded or
no round-trip scored, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import pipeline as pipeline_mod
from . import report as report_mod
from . import stats as stats_mod
from .metrics import MetricError, ScoringConfig, score_pair
from .segmentation import (
    CHARACTER,
    DEFAULT_TRADITIONAL_THRESHOLD,
    WORD,
    LexiconError,
    default_lexicon,
    load_lexicon,
    load_variant_table,
    tokenize,
)

EXIT_OK = 0
EXIT_DEGRADED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Reported to stderr; maps to exit code 2."""


def _require_file(path, what: str):
    """path, if it names a file; otherwise a CliError."""
    if not Path(path).is_file():
        raise CliError(f"{what} file not found: {path}")
    return path


def _load_lexicon_arg(path: str | None):
    return default_lexicon() if path is None else load_lexicon(_require_file(path, "lexicon"))


def _load_variant_table_arg(path: str | None):
    return load_variant_table(_require_file(path, "variant table")) if path else None


def _read_text_arg(value: str) -> str:
    path = Path(value)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    return value


def cmd_segment(args) -> int:
    lexicon = _load_lexicon_arg(args.lexicon)
    text = _read_text_arg(args.text)
    tokens = tokenize(text, CHARACTER if args.level == "char" else args.level, lexicon).tokens
    sep = "\n" if args.lines else "/"
    print(sep.join(tokens))
    return EXIT_OK


def cmd_score(args) -> int:
    for path in (args.original, args.candidate):
        _require_file(path, "input")
    original = Path(args.original).read_text(encoding="utf-8").strip()
    candidate = Path(args.candidate).read_text(encoding="utf-8").strip()
    if not original:
        raise CliError(f"empty original file: {args.original}")
    if not candidate:
        raise CliError(f"empty candidate file: {args.candidate}")
    lexicon = _load_lexicon_arg(args.lexicon)
    scoring = _scoring_from_path(args.config) if args.config else ScoringConfig()
    vector = score_pair(original, candidate, lexicon, scoring)
    print(json.dumps(vector.as_dict(), ensure_ascii=False))
    return EXIT_OK


def cmd_validate(args) -> int:
    loaded = corpus_mod.parse_corpus(_require_file(args.corpus, "corpus"))
    policy = corpus_mod.ValidationPolicy(traditional_threshold=args.threshold)
    table = _load_variant_table_arg(args.variant_table)
    warnings = corpus_mod.validate_corpus(loaded, policy, table)
    for warning in warnings:
        print(warning)
    print(f"{len(loaded)} samples, {len(warnings)} warnings", file=sys.stderr)
    return EXIT_OK


def _read_json(path, what: str) -> dict:
    """The JSON object in a config or matrix file; anything else is a CliError."""
    try:
        data = json.loads(Path(_require_file(path, what)).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"invalid JSON {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{what} file {path} must hold a JSON object")
    return data


def _scoring_from_path(path: str) -> ScoringConfig:
    data = _read_json(path, "config")
    return ScoringConfig.from_dict(data.get("scoring", data))


RUN_CONFIG_KEYS = frozenset({
    "corpus", "backends", "lexicon", "variant_table", "scoring", "repetitions",
    "master_seed", "verbatim_threshold", "traditional_threshold", "max_missing_fraction",
})


def _load_run_config(path: str) -> dict:
    config = _read_json(path, "config")
    if "corpus" not in config or "backends" not in config:
        raise CliError("run config requires 'corpus' and 'backends'")
    unknown = set(config) - RUN_CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown run config keys: {sorted(unknown)}")
    backends = config["backends"]
    if not (isinstance(backends, list) and backends
            and all(isinstance(b, dict) for b in backends)):
        raise CliError("run config 'backends' must be a non-empty array of objects")
    return config


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_int(config: dict, key: str, default: int) -> int:
    """config[key] (or default) if it is integral; anything else is a CliError."""
    value = config.get(key, default)
    if not (_is_number(value) and (isinstance(value, int) or value.is_integer())):
        raise CliError(f"run config {key!r} must be int, got {value!r}")
    return int(value)


def _config_fraction(config: dict, key: str, default: float) -> float:
    """config[key] (or default) if it is a number in [0, 1]; anything else is a CliError."""
    value = config.get(key, default)
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise CliError(f"run config {key!r} must be a number in [0, 1], got {value!r}")
    return float(value)


def _alpha(text: str) -> float:
    """A significance level: a number strictly between 0 and 1."""
    try:
        if 0.0 < (value := float(text)) < 1.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")


def cmd_run(args) -> int:
    config = _load_run_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    loaded = corpus_mod.parse_corpus(_require_file(config["corpus"], "corpus"))
    lexicon = _load_lexicon_arg(config.get("lexicon"))
    table = _load_variant_table_arg(config.get("variant_table"))
    try:
        backends = [pipeline_mod.BackendConfig.from_dict(b) for b in config["backends"]]
    except (pipeline_mod.ConfigError, TypeError) as exc:
        raise CliError(f"bad backend config: {exc}") from exc
    scoring = ScoringConfig.from_dict(config.get("scoring", {}))
    master_seed = args.seed if args.seed is not None else _config_int(config, "master_seed", 0)
    repetitions = _config_int(config, "repetitions", 1)
    verbatim_threshold = _config_fraction(config, "verbatim_threshold",
                                          pipeline_mod.DEFAULT_VERBATIM_THRESHOLD)
    traditional_threshold = _config_fraction(config, "traditional_threshold",
                                             DEFAULT_TRADITIONAL_THRESHOLD)
    max_missing_fraction = _config_fraction(config, "max_missing_fraction", 1.0)

    matrices, records, manifest = pipeline_mod.run_experiment(
        loaded,
        backends,
        repetitions,
        scoring,
        master_seed,
        lexicon=lexicon,
        variant_table=table,
        verbatim_threshold=verbatim_threshold,
        traditional_threshold=traditional_threshold,
    )

    pipeline_mod.write_records(records, out_dir / "records.jsonl")
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    for name, matrix in matrices.items():
        (out_dir / f"matrix_{name}.json").write_text(
            json.dumps(matrix.to_dict(), ensure_ascii=False) + "\n", encoding="utf-8"
        )
    _emit_stats(matrices, out_dir, args.alpha, args.correction)
    _emit_report(matrices, out_dir)

    errors = sum(1 for rec in records if rec.error is not None)
    missing_fraction = max(m.missing_fraction() for m in matrices.values())
    print(
        f"{len(records)} records, {errors} errors, "
        f"missing fraction {missing_fraction:.3f}",
        file=sys.stderr,
    )
    if errors == len(records):
        print("degraded: every round-trip failed, nothing was scored", file=sys.stderr)
        return EXIT_DEGRADED
    if missing_fraction > max_missing_fraction:
        print(f"degradation threshold exceeded ({missing_fraction:.3f} > {max_missing_fraction})",
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


def _emit_report(matrices, out_dir: Path) -> None:
    """Summaries, metric correlations and the plot bundle."""
    summarized = {name: m for name, m in matrices.items() if m.observations().size}
    for name in sorted(set(matrices) - set(summarized)):
        print(f"summary skipped for {name}: matrix has no observations", file=sys.stderr)
    correlations = report_mod.metric_correlations(matrices)
    report_mod.emit_summaries_csv(report_mod.summarize_all(summarized),
                                  out_dir / "summaries.csv")
    report_mod.emit_correlations_csv(correlations, out_dir / "correlations.csv")
    report_mod.emit_plot_data(matrices, correlations, out_dir / "plot_bundle.json")


def _load_matrices(paths) -> dict:
    matrices = {}
    for path in paths:
        data = _read_json(path, "matrix")
        try:
            matrix = stats_mod.ScoreMatrix.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"malformed matrix file {path}: {type(exc).__name__}: {exc}") from exc
        matrices[matrix.metric] = matrix
    return matrices


def cmd_stats(args) -> int:
    matrices = _load_matrices(args.matrices)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    batteries = _emit_stats(matrices, out_dir, args.alpha, args.correction)
    total = sum(len(b.significant_pairs) for b in batteries)
    print(f"{len(batteries)} metrics tested, {total} significant pairs", file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise CliError(f"run directory not found: {args.run_dir}")
    paths = sorted(run_dir.glob("matrix_*.json"))
    if not paths:
        raise CliError(f"no matrix_*.json files in {args.run_dir}")
    matrices = _load_matrices(paths)
    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _emit_report(matrices, out_dir)
    print(f"report written to {out_dir}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bteval",
        description="Back-translation evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--config", help="JSON file with a scoring block")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("validate", help="validate a JSONL corpus")
    p.add_argument("corpus")
    p.add_argument("--threshold", type=float, default=DEFAULT_TRADITIONAL_THRESHOLD,
                   help="traditional-character ratio that triggers a warning")
    p.add_argument("--variant-table", dest="variant_table")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute a configured round-trip experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p.add_argument("--alpha", type=_alpha, default=stats_mod.DEFAULT_ALPHA)
    p.add_argument("--correction", default=stats_mod.BENJAMINI_HOCHBERG,
                   choices=[stats_mod.BENJAMINI_HOCHBERG, stats_mod.BONFERRONI,
                            stats_mod.NO_CORRECTION])
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", help="run the significance battery on saved matrices")
    p.add_argument("matrices", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=_alpha, default=stats_mod.DEFAULT_ALPHA)
    p.add_argument("--correction", default=stats_mod.BENJAMINI_HOCHBERG,
                   choices=[stats_mod.BENJAMINI_HOCHBERG, stats_mod.BONFERRONI,
                            stats_mod.NO_CORRECTION])
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (corpus_mod.CorpusError, LexiconError, MetricError,
            stats_mod.StatsError, pipeline_mod.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
