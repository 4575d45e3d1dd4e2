"""Aggregation and deterministic emission: descriptive summary tables,
significant-pairs CSV, metric correlation CSV, and a JSON plot bundle
(box summaries with 1.5*IQR outliers plus pairwise scatter series).

All floats print with 4 decimals in CSV; emissions are pure functions of
their inputs, so re-emitting identical data reproduces identical bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from .stats import (
    CorrelationEntry,
    DescriptiveStats,
    MetricBattery,
    ScoreMatrix,
    StatsError,
    descriptive_stats,
    spearman_battery,
)

GLOBAL_SCOPE = "global"

SUMMARY_COLUMNS = ("metric", "scope", "count", "mean", "std", "min", "q25", "median", "q75", "max")
PAIRWISE_COLUMNS = ("metric", "model_a", "model_b", "mean_difference", "adjusted_p", "significant")
CORRELATION_COLUMNS = ("metric_a", "metric_b", "rho", "raw_p", "adjusted_p")


@dataclass(frozen=True)
class SummaryRow:
    metric: str
    scope: str  # "global" or a backend id
    stats: DescriptiveStats


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _columns(matrix: ScoreMatrix):
    """(treatment, its non-missing observations) for each treatment that has any."""
    for j, treatment in enumerate(matrix.treatment_ids):
        column = matrix.values[:, j, :].reshape(-1)
        column = column[~np.isnan(column)]
        if column.size:
            yield treatment, column


def summarize(matrix: ScoreMatrix) -> list[SummaryRow]:
    """Global row over repetition-level observations, then one row per treatment."""
    observations = matrix.observations()
    if observations.size == 0:
        raise StatsError(f"matrix {matrix.metric} has no observations")
    rows = [SummaryRow(matrix.metric, GLOBAL_SCOPE, descriptive_stats(observations))]
    rows += [SummaryRow(matrix.metric, treatment, descriptive_stats(column))
             for treatment, column in _columns(matrix)]
    return rows


def summarize_all(matrices: dict[str, ScoreMatrix]) -> list[SummaryRow]:
    rows: list[SummaryRow] = []
    for metric in sorted(matrices):
        rows.extend(summarize(matrices[metric]))
    return rows


def _write_csv(path: str | Path, columns: tuple[str, ...], rows) -> None:
    """UTF-8 CSV with LF line ends: the header, then each row with its floats in ``_fmt``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)


def emit_summaries_csv(rows: list[SummaryRow], path: str | Path) -> None:
    _write_csv(path, SUMMARY_COLUMNS,
               ((row.metric, row.scope, *astuple(row.stats)) for row in rows))


def emit_pairwise_csv(batteries: list[MetricBattery], path: str | Path) -> None:
    """Only pairs that survived adjustment are written, mirroring the summary tables."""
    _write_csv(path, PAIRWISE_COLUMNS, (
        (battery.metric, pair.treatment_a, pair.treatment_b, pair.mean_difference,
         pair.adjusted_p, "true")
        for battery in batteries for pair in battery.significant_pairs))


def emit_correlations_csv(entries: list[CorrelationEntry], path: str | Path) -> None:
    _write_csv(path, CORRELATION_COLUMNS, map(astuple, entries))


def metric_correlations(matrices: dict[str, ScoreMatrix]) -> list[CorrelationEntry]:
    """Spearman over repetition-level observations paired across metrics.

    Pairs with a constant column are skipped rather than failing the run.
    """
    names = sorted(matrices)
    if not names:
        return []
    flat = {name: matrices[name].values.reshape(-1) for name in names}
    entries: list[CorrelationEntry] = []
    valid_mask = ~np.any([np.isnan(flat[name]) for name in names], axis=0)
    series = {}
    for name in names:
        column = flat[name][valid_mask]
        if column.size >= 3 and np.unique(column).size > 1:
            series[name] = column.tolist()
    if len(series) < 2:
        return []
    try:
        entries = spearman_battery(series)
    except StatsError:
        entries = []
    return entries


def _box_summary(stats: DescriptiveStats, values: np.ndarray) -> dict:
    """Box summary of ``values``, whose ``descriptive_stats`` are ``stats``."""
    iqr = stats.q75 - stats.q25
    low, high = stats.q25 - 1.5 * iqr, stats.q75 + 1.5 * iqr
    # stable, so equal values such as -0.0 and 0.0 keep their input order
    outliers = np.sort(values[(values < low) | (values > high)], kind="stable").tolist()
    return {
        "min": stats.minimum,
        "q25": stats.q25,
        "median": stats.median,
        "q75": stats.q75,
        "max": stats.maximum,
        "outliers": outliers,
    }


def build_plot_bundle(
    matrices: dict[str, ScoreMatrix],
    correlations: list[CorrelationEntry],
    summaries: list[SummaryRow],
) -> dict:
    """Plot-ready data only: no rendering instructions.

    ``summaries`` holds ``summarize``'s rows for every matrix with observations;
    the box summaries read their statistics from it.
    """
    # a treatment's row follows its metric's global row, so a treatment named
    # like the global scope keeps its own statistics
    stats = {(row.metric, row.scope): row.stats for row in summaries}
    boxplots = {
        metric: {treatment: _box_summary(stats[metric, treatment], column)
                 for treatment, column in _columns(matrices[metric])}
        for metric in sorted(matrices)
    }

    names = sorted(matrices)
    flat = {name: matrices[name].values.reshape(-1) for name in names}
    annotation = {(e.series_a, e.series_b): e for e in correlations}
    scatter = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            mask = ~(np.isnan(flat[a]) | np.isnan(flat[b]))
            points = np.column_stack((flat[a][mask], flat[b][mask])).tolist()
            entry = annotation.get((a, b)) or annotation.get((b, a))
            scatter.append({
                "metric_a": a,
                "metric_b": b,
                "rho": entry.rho if entry else None,
                "adjusted_p": entry.adjusted_p if entry else None,
                "points": points,
            })
    return {"boxplots": boxplots, "scatter": scatter}


def _json(value, level: int = 0) -> str:
    """``value`` as sorted-key ``indent=2`` JSON, nested ``level`` deep.

    JSON escapes every newline inside strings, so re-indenting the lines is safe.
    """
    text = json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + "  " * level)


def _points_json(points: list, level: int) -> str:
    """An ``indent=2`` list of [x, y] pairs, nested ``level`` deep.

    The C encoder writes the compact form, whose only commas and brackets are
    structural; the indentation is then put back with ``str.replace``.
    """
    if not points:
        return "[]"
    outer = "\n" + "  " * level
    pair = outer + "  "
    value = pair + "  "
    body = json.dumps(points, separators=(",", ":"))[2:-2]
    body = body.replace(",", "," + value).replace("]," + value + "[", pair + "]," + pair + "[" + value)
    return "[" + pair + "[" + value + body + pair + "]" + outer + "]"


def emit_plot_data(
    matrices: dict[str, ScoreMatrix],
    correlations: list[CorrelationEntry],
    summaries: list[SummaryRow],
    path: str | Path,
) -> None:
    """Write the plot bundle as ``json.dumps(bundle, ensure_ascii=False,
    sort_keys=True, indent=2)`` would, without its pure-Python encoder."""
    bundle = build_plot_bundle(matrices, correlations, summaries)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{\n  "boxplots": ' + _json(bundle["boxplots"], 1) + ',\n  "scatter": ')
        separator = "[\n    "
        for entry in bundle["scatter"]:
            fields = [f'"{key}": {_json(entry[key])}' for key in ("adjusted_p", "metric_a", "metric_b")]
            fields += [f'"points": {_points_json(entry["points"], 3)}', f'"rho": {_json(entry["rho"])}']
            handle.write(separator + "{\n      " + ",\n      ".join(fields) + "\n    }")
            separator = ",\n    "
        handle.write("\n  ]\n}\n" if bundle["scatter"] else "[]\n}\n")


def emit_stats_report(batteries: list[MetricBattery], path: str | Path) -> None:
    """Machine-readable test battery: per-metric omnibus plus pairwise entries."""
    payload = {battery.metric: asdict(battery) for battery in batteries}
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
