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
from itertools import compress
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
    valid_mask = ~np.any([np.isnan(flat[name]) for name in names], axis=0)
    series = {}
    for name in names:
        column = flat[name][valid_mask]
        # NaN-free, so constant exactly when min == max (-0.0 ties 0.0, as in np.unique)
        if column.size >= 3 and column.min() < column.max():
            series[name] = column
    return spearman_battery(series)


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


def _json(value, level: int = 0) -> str:
    """``value`` as sorted-key ``indent=2`` JSON, nested ``level`` deep.

    JSON escapes every newline inside strings, so re-indenting the lines is safe.
    """
    text = json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + "  " * level)


def _json_cells(values: np.ndarray) -> list[str]:
    """The JSON text of ``values`` in chunks of ``_SLICE_ROWS`` cells, each the
    C encoder's comma-joined floats, one byte per character.

    A float's repr never holds a comma, so splitting a chunk is exact, and NaN
    and the infinities are spelled as ``json.dumps`` spells them.
    """
    return [json.dumps(values[s:s + _SLICE_ROWS].tolist(), separators=(",", ":"))[1:-1]
            for s in range(0, values.size, _SLICE_ROWS)]


# one scatter entry of the indent=2 bundle, split around its points, the
# separators of those [x, y] points, and the cells per chunk
_SCATTER_HEAD = ('{{\n      "adjusted_p": {},\n      "metric_a": {},\n      "metric_b": {},'
                 '\n      "points": ')
_SCATTER_TAIL = ',\n      "rho": {}\n    }}'
_POINT_SEP, _VALUE_SEP = "\n        ],\n        [\n          ", ",\n          "
_SLICE_ROWS = 4096


def emit_plot_data(
    matrices: dict[str, ScoreMatrix],
    correlations: list[CorrelationEntry],
    summaries: list[SummaryRow],
    path: str | Path,
) -> None:
    """Write the plot bundle as ``json.dumps(bundle, ensure_ascii=False,
    sort_keys=True, indent=2)`` would, without its pure-Python encoder.

    A box summary per (metric, treatment), read from ``summaries`` (``summarize``'s
    rows for every matrix with observations), then a scatter entry per metric pair
    with the rows where both are present; cells pair by position across matrices.
    """
    # a treatment's row follows its metric's global row, so a treatment named
    # like the global scope keeps its own statistics
    stats = {(row.metric, row.scope): row.stats for row in summaries}
    names = sorted(matrices)
    boxplots = {metric: {treatment: _box_summary(stats[metric, treatment], column)
                         for treatment, column in _columns(matrices[metric])}
                for metric in names}
    flat = [matrices[name].values.reshape(-1) for name in names]
    present = [~np.isnan(values) for values in flat]
    cells = [_json_cells(values) for values in flat]  # each series encoded once
    annotation = {(e.series_a, e.series_b): e for e in correlations}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{\n  "boxplots": ' + _json(boxplots, 1) + ',\n  "scatter": ')
        separator = "[\n    "
        for i, a in enumerate(names):
            for j, b in enumerate(names[i + 1:], i + 1):
                mask = present[i] & present[j]
                entry = annotation.get((a, b)) or annotation.get((b, a))
                handle.write(separator + _SCATTER_HEAD.format(
                    _json(entry and entry.adjusted_p), _json(a), _json(b)))
                # the points go out a chunk at a time, never as one string
                head = "[\n        [\n          "  # until the first point is written
                for start, x, y in zip(range(0, mask.size, _SLICE_ROWS), cells[i], cells[j]):
                    keep = mask[start:start + _SLICE_ROWS].tolist()
                    points = _POINT_SEP.join(map(_VALUE_SEP.join, compress(
                        zip(x.split(","), y.split(",")), keep)))
                    if points:
                        handle.write(head + points)
                        head = _POINT_SEP
                handle.write(("\n        ]\n      ]" if head == _POINT_SEP else "[]")
                             + _SCATTER_TAIL.format(_json(entry and entry.rho)))
                separator = ",\n    "
        handle.write("\n  ]\n}\n" if len(names) > 1 else "[]\n}\n")


def emit_stats_report(batteries: list[MetricBattery], path: str | Path) -> None:
    """Machine-readable test battery: per-metric omnibus plus pairwise entries."""
    payload = {battery.metric: asdict(battery) for battery in batteries}
    Path(path).write_text(_json(payload) + "\n", encoding="utf-8")
