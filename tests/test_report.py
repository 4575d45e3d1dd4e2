"""Aggregation rows, CSV/JSON emission determinism, and the outlier rule."""

import csv
import hashlib
import json
import math
import tempfile
import tracemalloc
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bteval import report
from bteval.cli import EXIT_OK
from bteval.corpus import parse_corpus
from bteval.metrics import score_pair
from bteval.config import RunConfig
from bteval.jsonio import config_from_json
from bteval.pipeline import run_experiment
from bteval.segmentation import default_lexicon
from bteval.stats import (
    CorrelationEntry,
    DescriptiveStats,
    MetricBattery,
    PairwiseComparison,
    StatsError,
    StatTestResult,
    descriptive_stats,
    run_metric_battery,
)
from bteval.report import (
    SummaryRow,
    _box_summary,
    _columns,
    emit_correlations_csv,
    emit_pairwise_csv,
    emit_plot_data,
    emit_summaries_csv,
    metric_correlations,
    summarize,
    summarize_all,
)

from conftest import make_matrix, run_cli, write_config, write_jsonl, write_matrix


def fake_battery(metric, significant_pairs):
    pairwise = [
        PairwiseComparison(a, b, z=3.0, raw_p=0.001, adjusted_p=0.003, mean_difference=diff)
        for a, b, diff in significant_pairs
    ]
    result = StatTestResult("friedman", 40.0, 4, 1e-8, pairwise)
    return MetricBattery(metric, result, alpha=0.05, correction="benjamini_hochberg")


# ---------------------------------------------------------------- summarize

def test_summarize_single_cell():
    rows = summarize(make_matrix(np.full((1, 1, 1), 0.5)))
    assert rows[0].scope == "global"
    assert rows[0].stats.count == 1
    assert rows[0].stats.mean == 0.5
    assert rows[0].stats.std == 0.0  # count-1 convention, flagged by count == 1


def test_summarize_balanced_counts():
    rng = np.random.default_rng(0)
    rows = summarize(make_matrix(rng.random((89, 5, 3))))
    assert rows[0].stats.count == 1335
    assert all(row.stats.count == 267 for row in rows[1:])
    assert len(rows) == 6


def test_summarize_is_order_invariant():
    rng = np.random.default_rng(1)
    values = rng.random((10, 3, 2))
    base = summarize(make_matrix(values))
    permuted = summarize(make_matrix(values[rng.permutation(10)]))
    for a, b in zip(base, permuted):
        assert a.stats == b.stats


def test_summarize_skips_missing_values():
    values = np.full((2, 2, 2), 0.5)
    values[0, 0, 0] = np.nan
    rows = summarize(make_matrix(values))
    assert rows[0].stats.count == 7


# ---------------------------------------------------------------- CSV golden

def test_summaries_csv_golden(tmp_path):
    matrix = make_matrix(np.array([[[0.2, 0.4], [0.8, 0.6]],
                                   [[0.3, 0.5], [0.9, 0.7]]]), treatments=["m1", "m2"])
    path = tmp_path / "summaries.csv"
    emit_summaries_csv(summarize_all({"bleu": matrix}), path)
    expected = (
        "metric,scope,count,mean,std,min,q25,median,q75,max\n"
        "bleu,global,8,0.5500,0.2449,0.2000,0.3750,0.5500,0.7250,0.9000\n"
        "bleu,m1,4,0.3500,0.1291,0.2000,0.2750,0.3500,0.4250,0.5000\n"
        "bleu,m2,4,0.7500,0.1291,0.6000,0.6750,0.7500,0.8250,0.9000\n"
    )
    assert path.read_text(encoding="utf-8") == expected


def test_pairwise_csv_table_shape(tmp_path):
    # four metrics with six significant pairs each, edit-rate with none
    six = [("a", "d", 0.0712), ("a", "e", 0.0659), ("b", "d", 0.0810),
           ("b", "e", 0.0757), ("c", "d", 0.0774), ("c", "e", 0.0722)]
    batteries = [fake_battery(m, six) for m in ("bleu", "bleu_unif", "chrf",
                                                "semantic_similarity")]
    batteries.append(fake_battery("ter", []))
    path = tmp_path / "pairwise.csv"
    emit_pairwise_csv(batteries, path)
    with path.open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    counts = {}
    for row in rows:
        counts[row["metric"]] = counts.get(row["metric"], 0) + 1
    assert counts == {"bleu": 6, "bleu_unif": 6, "chrf": 6, "semantic_similarity": 6}
    assert "ter" not in counts
    assert rows[0]["mean_difference"] == "0.0712"
    assert all(row["significant"] == "true" for row in rows)


def test_pairwise_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_pairwise_csv([], path)
    assert path.read_text(encoding="utf-8") == (
        "metric,model_a,model_b,mean_difference,adjusted_p,significant\n"
    )


def test_csv_reemission_is_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    matrices = {m: make_matrix(rng.random((6, 3, 2)), metric=m)
                for m in ("bleu", "chrf")}
    rows = summarize_all(matrices)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_summaries_csv(rows, first)
    emit_summaries_csv(rows, second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_numbers_are_half_even_4dp(tmp_path):
    rng = np.random.default_rng(9)
    matrix = make_matrix(rng.random((5, 2, 2)))
    path = tmp_path / "s.csv"
    emit_summaries_csv(summarize(matrix), path)
    raw_rows = summarize(matrix)
    with path.open(encoding="utf-8") as handle:
        parsed = list(csv.DictReader(handle))
    for row, source in zip(parsed, raw_rows):
        for field, value in (("mean", source.stats.mean), ("std", source.stats.std),
                             ("q75", source.stats.q75)):
            expected = Decimal(value).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN)
            assert Decimal(row[field]) == expected


# ---------------------------------------------------------------- plots

def summaries_of(matrices):
    """summarize's rows for every matrix with observations, as a run passes them."""
    return summarize_all({m: x for m, x in matrices.items() if x.observations().size})


def build_plot_bundle(matrices, correlations, summaries):
    """The plot bundle as one dict of Python lists: the reference that
    ``emit_plot_data`` must encode byte for byte."""
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


def emit_plot(matrices, correlations, path):
    emit_plot_data(matrices, correlations, summaries_of(matrices), path)


def plot_bundle(matrices, correlations):
    """The emitted plot_bundle.json, parsed."""
    return json.loads(emitted_plot_json(matrices, correlations))


def oracle_boxplots(matrices):
    """Box summaries recomputed from each column's own descriptive statistics."""
    boxplots = {}
    for metric in sorted(matrices):
        matrix, per_model = matrices[metric], {}
        for j, treatment in enumerate(matrix.treatment_ids):
            column = matrix.values[:, j, :].reshape(-1)
            column = column[~np.isnan(column)]
            if column.size:
                per_model[treatment] = _box_summary(descriptive_stats(column), column)
        boxplots[metric] = per_model
    return boxplots


def test_plot_bundle_identical_scores_zero_width():
    matrices = {"bleu": make_matrix(np.full((4, 2, 2), 0.6))}
    bundle = plot_bundle(matrices, [])
    box = bundle["boxplots"]["bleu"]["t0"]
    assert box["q25"] == box["median"] == box["q75"] == 0.6
    assert box["outliers"] == []


def test_plot_bundle_single_extreme_outlier():
    values = np.full((9, 1, 1), 0.5)
    values[3, 0, 0] = 0.9  # hand check: q25 = q75 = 0.5, fences collapse to 0.5
    matrices = {"bleu": make_matrix(values)}
    bundle = plot_bundle(matrices, [])
    assert bundle["boxplots"]["bleu"]["t0"]["outliers"] == [0.9]


def test_plot_bundle_outliers_match_iqr_rule_exactly():
    rng = np.random.default_rng(3)
    column = rng.normal(0.5, 0.1, size=(40, 1, 1))
    column[0, 0, 0] = 1.5
    matrices = {"bleu": make_matrix(column)}
    bundle = plot_bundle(matrices, [])
    box = bundle["boxplots"]["bleu"]["t0"]
    iqr = box["q75"] - box["q25"]
    low, high = box["q25"] - 1.5 * iqr, box["q75"] + 1.5 * iqr
    expected = sorted(float(v) for v in column.reshape(-1) if v < low or v > high)
    assert box["outliers"] == expected


def test_plot_bundle_has_ten_metric_pairs():
    rng = np.random.default_rng(4)
    matrices = {m: make_matrix(rng.random((5, 2, 2)), metric=m)
                for m in ("bleu", "bleu_unif", "chrf", "ter", "semantic_similarity")}
    correlations = metric_correlations(matrices)
    bundle = plot_bundle(matrices, correlations)
    assert len(bundle["scatter"]) == 10
    annotated = [s for s in bundle["scatter"] if s["rho"] is not None]
    assert len(annotated) == 10
    assert all(len(s["points"]) == 20 for s in bundle["scatter"])


def test_plot_bundle_emission_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    matrices = {m: make_matrix(rng.random((4, 2, 2)), metric=m) for m in ("bleu", "ter")}
    correlations = metric_correlations(matrices)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    emit_plot(matrices, correlations, a)
    emit_plot(matrices, correlations, b)
    assert a.read_bytes() == b.read_bytes()
    bundle = json.loads(a.read_text(encoding="utf-8"))
    assert set(bundle) == {"boxplots", "scatter"}


def reference_plot_json(matrices, correlations) -> bytes:
    bundle = build_plot_bundle(matrices, correlations, summaries_of(matrices))
    return (json.dumps(bundle, ensure_ascii=False, sort_keys=True, indent=2) + "\n").encode("utf-8")


def emitted_plot_json(matrices, correlations) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plot_bundle.json"
        emit_plot(matrices, correlations, path)
        return path.read_bytes()


# exponent reprs, signed zeros, the smallest subnormal; NaN marks a missing cell.
# Magnitudes stop at 1e300: near the float maximum, descriptive_stats' fsum
# overflows and raises before anything is emitted. Finite squared deviations
# can still sum past the float maximum, which the property test checks apart.
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1e-05, 5e-324, 1e300, -2.5e-08, math.nan]),
    st.floats(-1e300, 1e300),
)
P_VALUES = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 1e-05, 5e-324]), st.floats(0, 1))
# non-ASCII, quotes, backslashes, control characters and a line separator
NAMES = st.text(alphabet=st.sampled_from('aZ_é译"\\\n\t\x00\x1f\x7f\u2028 '), max_size=6)


@st.composite
def plot_inputs(draw):
    n, k, r = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    treatments = draw(st.lists(NAMES, min_size=k, max_size=k, unique=True))
    matrices = {}
    for metric in draw(st.lists(NAMES, max_size=4, unique=True)):
        values = draw(st.lists(SCORES, min_size=n * k * r, max_size=n * k * r))
        matrices[metric] = make_matrix(np.reshape(values, (n, k, r)), metric, treatments)
    names = sorted(matrices)
    correlations = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if draw(st.booleans()):
                rho, adjusted = draw(P_VALUES), draw(P_VALUES)
                correlations.append(CorrelationEntry(a, b, rho, adjusted, adjusted))
    return matrices, correlations


NAN = math.nan


@given(plot_inputs())
@example(({"a": make_matrix(np.array([[[0.0]], [[0.0]], [[2.8442255724327534e+154]]]), "a")},
          []))
# exponent reprs, -0.0, and a TER-style score above 1
@example(({"bleu": make_matrix([[[1e-05, -0.0]], [[5e-324, 1e+16]], [[0.5, -0.0]]], "bleu"),
           "ter": make_matrix([[[1.25, 0.0]], [[-0.0, 3.5]], [[1e-05, 2.0]]], "ter")},
          [CorrelationEntry("bleu", "ter", -0.5, 1e-05, 1e+16)]))
# each metric missing other cells, so every pair has its own mask; an all-NaN metric
@example(({"bleu": make_matrix([[[NAN, 0.25]], [[0.5, 0.75]], [[1.0, NAN]]], "bleu"),
           "chrf": make_matrix([[[0.1, NAN]], [[NAN, 0.3]], [[0.4, 0.6]]], "chrf"),
           "none": make_matrix(np.full((3, 1, 2), NAN), "none"),
           "ter": make_matrix([[[1.5, 0.2]], [[NAN, NAN]], [[0.7, 0.8]]], "ter")},
          [CorrelationEntry("bleu", "chrf", 1.0, 0.0, 0.0)]))
@settings(max_examples=300)
def test_emit_plot_data_matches_reference_encoder(inputs):
    matrices, correlations = inputs
    with np.errstate(over="ignore"):  # squared deviations of 1e300 overflow to inf
        try:
            summaries_of(matrices)
        except StatsError as exc:
            # no bundle has a std past the float maximum; `bteval report` exits 2 on it
            assert "sum past the largest float" in str(exc)
            return
        assert emitted_plot_json(matrices, correlations) == reference_plot_json(matrices, correlations)
        assert plot_bundle(matrices, correlations)["boxplots"] == oracle_boxplots(matrices)


def test_emit_plot_data_encodes_each_metric_once(monkeypatch, tmp_path):
    encode, calls = report._json_cells, []

    def counted(values):
        calls.append(values.size)
        return encode(values)

    dumps = json.dumps

    def no_point_lists(value, **kwargs):
        assert not (isinstance(value, list) and value and isinstance(value[0], list))
        return dumps(value, **kwargs)

    monkeypatch.setattr(report, "_json_cells", counted)
    monkeypatch.setattr(json, "dumps", no_point_lists)
    rng = np.random.default_rng(12)
    matrices = {m: make_matrix(rng.random((5, 2, 3)), metric=m)
                for m in ("bleu", "bleu_unif", "chrf", "ter", "semantic_similarity")}
    correlations = metric_correlations(matrices)
    emit_plot(matrices, correlations, tmp_path / "plot_bundle.json")
    monkeypatch.undo()
    assert calls == [30] * 5  # ten scatter pairs, five series encoded
    assert (tmp_path / "plot_bundle.json").read_bytes() == \
        reference_plot_json(matrices, correlations)


def test_emit_plot_data_streams_the_scatter_points(monkeypatch, tmp_path):
    writes = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        write = handle.write

        def recorded(text):
            writes.append(len(text.encode("utf-8")))
            return write(text)

        handle.write = recorded
        return handle

    rng = np.random.default_rng(27)
    matrices = {}
    for m in ("bleu", "chrf", "ter"):
        values = rng.random((500, 8, 5))
        values[rng.random(values.shape) < 0.05] = math.nan  # each pair has its own rows
        matrices[m] = make_matrix(values, metric=m)
    correlations = metric_correlations(matrices)
    monkeypatch.setattr(report, "open", recording_open, raising=False)
    emit_plot(matrices, correlations, tmp_path / "plot_bundle.json")
    monkeypatch.undo()
    assert sum(writes) > 4 * 2 ** 20  # several MiB of points, ...
    assert max(writes) <= 2 ** 20  # ... none of them written at once
    assert (tmp_path / "plot_bundle.json").read_bytes() == \
        reference_plot_json(matrices, correlations)


def traced_peak(call) -> int:
    """Bytes traced at the peak of ``call()``, beyond those live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def five_metrics_with_missing_cells():
    """Five 1000x8x5 matrices with 5% of cells missing, so each pair has its own rows."""
    rng, matrices = np.random.default_rng(28), {}
    for m in ("bleu", "bleu_unif", "chrf", "semantic_similarity", "ter"):
        values = rng.random((1000, 8, 5))
        values[rng.random(values.shape) < 0.05] = math.nan
        matrices[m] = make_matrix(values, metric=m)
    return matrices


def test_emit_plot_data_peak_memory_stays_within_five_inputs(tmp_path):
    # each series is held as JSON text in chunks, and only one chunk's cells are
    # split at a time: no Python str per float for the whole series
    matrices = five_metrics_with_missing_cells()
    correlations, summaries = metric_correlations(matrices), summaries_of(matrices)
    path = tmp_path / "plot_bundle.json"
    peak = traced_peak(lambda: emit_plot_data(matrices, correlations, summaries, path))
    assert peak <= 5 * sum(m.values.nbytes for m in matrices.values())
    assert path.read_bytes() == reference_plot_json(matrices, correlations)


def test_metric_correlations_peak_memory_stays_within_three_inputs():
    # the series are ranked one at a time, never stacked into one n x k grid
    matrices = five_metrics_with_missing_cells()
    peak = traced_peak(lambda: metric_correlations(matrices))
    assert peak <= 3 * sum(m.values.nbytes for m in matrices.values())


def test_emit_plot_data_matches_reference_encoder_on_edge_cases():
    quoted = 'q"\\ 译\x01'
    values = np.array([[[1e-05]], [[5e-324]], [[math.nan]]])
    matrices = {
        "a": make_matrix(values, "a", treatments=["é\n"]),
        quoted: make_matrix(np.array([[[0.5]], [[math.nan]], [[-0.0]]]), quoted, ["é\n"]),
        "z": make_matrix(np.array([[[math.nan]], [[1.0]], [[math.nan]]]), "z", ["é\n"]),
    }
    correlations = [CorrelationEntry("a", quoted, None, None, None),
                    CorrelationEntry("a", "z", 1e-05, 5e-324, 5e-324)]
    scatter = plot_bundle(matrices, correlations)["scatter"]
    assert sorted(len(entry["points"]) for entry in scatter) == [0, 1, 1]
    assert emitted_plot_json(matrices, correlations) == reference_plot_json(matrices, correlations)
    assert emitted_plot_json({}, []) == reference_plot_json({}, [])


def test_plot_bundle_treatment_named_global_keeps_its_own_box():
    values = np.stack([np.full((6, 2), 0.1), np.arange(12.0).reshape(6, 2)], axis=1)
    matrices = {"bleu": make_matrix(values, treatments=["a", "global"])}
    boxplots = plot_bundle(matrices, [])["boxplots"]
    assert boxplots == oracle_boxplots(matrices)
    assert boxplots["bleu"]["global"]["max"] == 11.0


def test_box_outliers_keep_input_order_of_signed_zeros():
    # q25 = q75 = 100, so every low value is an outlier; -0.0 and 0.0 tie, and
    # sorted() keeps them in input order
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.choice([-1.0, -0.0, 0.0, 1.0], 200), np.full(2000, 100.0)])
    rng.shuffle(values)
    expected = sorted(v for v in values.tolist() if v < 50)
    outliers = _box_summary(descriptive_stats(values), values)["outliers"]
    assert [(v, math.copysign(1.0, v)) for v in outliers] == \
        [(v, math.copysign(1.0, v)) for v in expected]


def test_metric_correlations_skip_signed_zero_and_infinite_columns():
    # -0.0 == 0.0 and inf == inf: each column is constant and has no rank signal
    zeros = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0]).reshape(4, 1, 2)
    rng = np.random.default_rng(8)
    matrices = {"bleu": make_matrix(zeros),
                "bleu_unif": make_matrix(np.full((4, 1, 2), math.inf), "bleu_unif"),
                "chrf": make_matrix(rng.random((4, 1, 2)), "chrf"),
                "ter": make_matrix(rng.random((4, 1, 2)), "ter")}
    assert [(e.series_a, e.series_b) for e in metric_correlations(matrices)] == [("chrf", "ter")]
    del matrices["ter"]
    assert metric_correlations(matrices) == []


def test_metric_correlations_skip_constant_columns(tmp_path):
    matrices = {
        "bleu": make_matrix(np.full((4, 2, 2), 1.0)),  # constant: no rank signal
        "chrf": make_matrix(np.random.default_rng(7).random((4, 2, 2)), metric="chrf"),
    }
    assert metric_correlations(matrices) == []
    path = tmp_path / "corr.csv"
    emit_correlations_csv([], path)
    assert path.read_text(encoding="utf-8") == "metric_a,metric_b,rho,raw_p,adjusted_p\n"


# ------------------------------------ the hand-listed encoders the emitters replaced

def oracle_fmt(value):
    return f"{value:.4f}"


def oracle_summaries_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("metric", "scope", "count", "mean", "std", "min", "q25", "median",
                         "q75", "max"))
        for row in rows:
            s = row.stats
            writer.writerow([
                row.metric, row.scope, s.count,
                oracle_fmt(s.mean), oracle_fmt(s.std), oracle_fmt(s.minimum), oracle_fmt(s.q25),
                oracle_fmt(s.median), oracle_fmt(s.q75), oracle_fmt(s.maximum),
            ])


def oracle_pairwise_csv(batteries, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("metric", "model_a", "model_b", "mean_difference", "adjusted_p",
                         "significant"))
        for battery in batteries:
            for pair in battery.significant_pairs:
                writer.writerow([
                    battery.metric, pair.treatment_a, pair.treatment_b,
                    oracle_fmt(pair.mean_difference), oracle_fmt(pair.adjusted_p), "true",
                ])


def oracle_correlations_csv(entries, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("metric_a", "metric_b", "rho", "raw_p", "adjusted_p"))
        for entry in entries:
            writer.writerow([
                entry.series_a, entry.series_b,
                oracle_fmt(entry.rho), oracle_fmt(entry.raw_p), oracle_fmt(entry.adjusted_p),
            ])


def oracle_scoring_dict(config):
    return {
        "bleu_weights": list(config.bleu_weights),
        "bleu_unif_weights": list(config.bleu_unif_weights),
        "smoothing_epsilon": config.smoothing_epsilon,
        "chrf_max_n": config.chrf_max_n,
        "chrf_beta": config.chrf_beta,
        "level": config.level,
    }


def oracle_vector_dict(vector):
    return {
        "bleu": vector.bleu,
        "bleu_unif": vector.bleu_unif,
        "chrf": vector.chrf,
        "ter": vector.ter,
        "semantic_similarity": vector.semantic_similarity,
    }


def same_bytes(emit, oracle, *inputs):
    with tempfile.TemporaryDirectory() as tmp:
        got, expected = Path(tmp) / "got.csv", Path(tmp) / "expected.csv"
        emit(*inputs, got)
        oracle(*inputs, expected)
        return got.read_bytes() == expected.read_bytes()


labels = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
csv_floats = st.one_of(st.floats(), st.floats().map(np.float64),
                       st.sampled_from([-0.0, math.nan, np.float64(-0.0), np.float64(math.nan),
                                        0.00005, 0.00015, -0.00005]))
summary_rows = st.builds(
    SummaryRow, labels, labels,
    st.builds(DescriptiveStats, st.integers(0, 10 ** 6), *[csv_floats] * 7))
pairwise_batteries = st.builds(
    lambda metric, pairs: MetricBattery(metric, StatTestResult("friedman", 9.0, 2, 0.01, [
        PairwiseComparison(a, b, 2.0, 0.01, adj, diff) for a, b, adj, diff in pairs]),
        0.05, "benjamini_hochberg"),
    labels, st.lists(st.tuples(labels, labels, st.one_of(csv_floats, st.floats(0.0, 0.05)),
                               csv_floats), max_size=4))
correlation_entries = st.builds(CorrelationEntry, labels, labels, csv_floats, csv_floats,
                                csv_floats)


@given(st.lists(summary_rows, max_size=5))
@settings(max_examples=100)
def test_summaries_csv_matches_hand_listed_writer(rows):
    assert same_bytes(emit_summaries_csv, oracle_summaries_csv, rows)


@given(st.lists(pairwise_batteries, max_size=4))
@settings(max_examples=100)
def test_pairwise_csv_matches_hand_listed_writer(batteries):
    assert same_bytes(emit_pairwise_csv, oracle_pairwise_csv, batteries)


@given(st.lists(correlation_entries, max_size=5))
@settings(max_examples=100)
def test_correlations_csv_matches_hand_listed_writer(entries):
    assert same_bytes(emit_correlations_csv, oracle_correlations_csv, entries)


RUN_CORPUS = [
    {"id": "S1", "domain": "chemistry", "text": "化学工程领域的研究与分析。", "variant": "simplified"},
    {"id": "S2", "domain": "chemistry", "text": "元素观点：物质由元素组成。", "variant": "simplified"},
    {"id": "S3", "domain": "physics", "text": "物理学研究物质运动的规律。", "variant": "simplified"},
]


def test_run_artifacts_match_hand_listed_encoders(tmp_path):
    corpus_path = write_jsonl(tmp_path / "corpus.jsonl", RUN_CORPUS)
    data = {"corpus": str(corpus_path), "repetitions": 2, "master_seed": 3,
            "backends": [{"id": "same", "kind": "mock", "model_name": "identity"},
                         {"id": "noisy", "kind": "mock", "model_name": "noise",
                          "drop_prob": 0.3, "swap_prob": 0.2}],
            "scoring": {"smoothing_epsilon": 0.1, "chrf_max_n": 4}}
    config_path = write_config(tmp_path / "run.json", data)
    out = tmp_path / "run"
    assert run_cli("run", "--config", config_path, "--out", out).code == EXIT_OK

    config = config_from_json(RunConfig, data, "run config")
    matrices, _, manifest = run_experiment(parse_corpus(corpus_path), config)
    design = matrices["bleu"].design
    written = (out / "manifest.json").read_text(encoding="utf-8")
    expected = {
        "corpus_name": manifest.corpus_name,
        "corpus_sha256": manifest.corpus_sha256,
        "backend_ids": ["same", "noisy"],
        "design": {"n": design.n, "k": design.k, "r": design.r},
        "scoring": oracle_scoring_dict(config.scoring),
        "master_seed": 3,
        "timestamp": json.loads(written)["timestamp"],
        "prompt_variants": manifest.prompt_variants,
        "verbatim_threshold": manifest.verbatim_threshold,
        "traditional_threshold": manifest.traditional_threshold,
    }
    assert written == json.dumps(expected, ensure_ascii=False, indent=2) + "\n"

    summaries = summarize_all(matrices)
    correlations = metric_correlations(matrices)
    batteries = [run_metric_battery(matrices[name]) for name in sorted(matrices)]
    for name, emitted, oracle in (("summaries.csv", summaries, oracle_summaries_csv),
                                  ("pairwise_tests.csv", batteries, oracle_pairwise_csv),
                                  ("correlations.csv", correlations, oracle_correlations_csv)):
        oracle(emitted, tmp_path / name)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    assert correlations and len(summaries) == 5 * 3


def test_score_stdout_matches_hand_listed_encoder(tmp_path):
    original, candidate = "化学工程领域的研究与分析。", "化学领域的分析与研究。"
    (tmp_path / "a.txt").write_text(original, encoding="utf-8")
    (tmp_path / "b.txt").write_text(candidate, encoding="utf-8")
    code, out, _ = run_cli("score", tmp_path / "a.txt", tmp_path / "b.txt")
    vector = score_pair(original, candidate, default_lexicon())
    assert code == EXIT_OK
    assert out == json.dumps(oracle_vector_dict(vector), ensure_ascii=False) + "\n"


# ------------------------------------------------- golden bytes of `bteval report`

def golden_matrices():
    """Three 30x3x2 grids from integer formulas: an outlier, TER-style scores above 1,
    one missing repetition per metric (a different cell each) and one cell missing
    in every metric."""
    i, j, r = np.meshgrid(np.arange(30), np.arange(3), np.arange(2), indexing="ij")
    values = {
        "bleu": ((i * 7 + j * 11 + r * 3) % 13) / 12,
        "chrf": ((i * 5 + j * 3 + r * 7) % 11) / 7,
        "ter": ((i * i + j * 5 + r) % 19) / 9,
    }
    values["bleu"][0, 0, 0] = 4.0
    values["bleu"][3, 1, 1] = math.nan
    values["chrf"][5, 0, 0] = math.nan
    values["ter"][7, 2, 1] = math.nan
    for grid in values.values():
        grid[10, 2, :] = math.nan
    return {metric: make_matrix(grid, metric, ["model-a", "model-b", "model-c"],
                                [f"s{b:02d}" for b in range(30)])
            for metric, grid in values.items()}


# sha256 of each artifact as the per-pair plot-bundle encoder wrote it, so any change
# to these artifacts' bytes fails here
GOLDEN_SHA256 = {
    "summaries.csv": "961d1eab7df9ff9600ec3e45624c067cbaa845976e9a84e7e6ebef5ae72023b8",
    "correlations.csv": "d0fe27f3af9b29335f53ab6a4033115a93ee24fcaf5051ddb99f1bbc433991e9",
    "plot_bundle.json": "ace8ab789b33073f4c1e30732f35116c979380f5db6030944df81dc997545aa8",
}


def test_report_artifacts_match_golden_bytes(tmp_path):
    for metric, matrix in golden_matrices().items():
        write_matrix(tmp_path / f"matrix_{metric}.json", matrix)
    out = tmp_path / "report"
    assert run_cli("report", tmp_path, "--out", out).code == EXIT_OK
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256} == GOLDEN_SHA256
