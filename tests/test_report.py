"""Aggregation rows, CSV/JSON emission determinism, and the outlier rule."""

import csv
import json
import math
import tempfile
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from bteval.stats import (
    CorrelationEntry,
    ExperimentDesign,
    MetricBattery,
    PairwiseComparison,
    ScoreMatrix,
    StatTestResult,
    descriptive_stats,
)
from bteval.report import (
    _box_summary,
    build_plot_bundle,
    emit_correlations_csv,
    emit_pairwise_csv,
    emit_plot_data,
    emit_summaries_csv,
    metric_correlations,
    summarize,
    summarize_all,
)


def make_matrix(values, metric="bleu", treatments=None):
    values = np.asarray(values, dtype=float)
    n, k, r = values.shape
    return ScoreMatrix(
        design=ExperimentDesign(n=n, k=k, r=r),
        metric=metric,
        values=values,
        block_ids=[f"b{i}" for i in range(n)],
        treatment_ids=treatments or [f"t{j}" for j in range(k)],
    )


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


def plot_bundle(matrices, correlations):
    return build_plot_bundle(matrices, correlations, summaries_of(matrices))


def emit_plot(matrices, correlations, path):
    emit_plot_data(matrices, correlations, summaries_of(matrices), path)


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
    bundle = plot_bundle(matrices, correlations)
    return (json.dumps(bundle, ensure_ascii=False, sort_keys=True, indent=2) + "\n").encode("utf-8")


def emitted_plot_json(matrices, correlations) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plot_bundle.json"
        emit_plot(matrices, correlations, path)
        return path.read_bytes()


# exponent reprs, signed zeros, the smallest subnormal; NaN marks a missing cell.
# Magnitudes stop at 1e300: near the float maximum, descriptive_stats' fsum
# overflows and raises before anything is emitted.
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


@given(plot_inputs())
@settings(max_examples=300, deadline=None)
def test_emit_plot_data_matches_reference_encoder(inputs):
    matrices, correlations = inputs
    with np.errstate(over="ignore"):  # squared deviations of 1e300 overflow to inf
        assert emitted_plot_json(matrices, correlations) == reference_plot_json(matrices, correlations)
        assert plot_bundle(matrices, correlations)["boxplots"] == oracle_boxplots(matrices)


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


def test_metric_correlations_skip_constant_columns(tmp_path):
    matrices = {
        "bleu": make_matrix(np.full((4, 2, 2), 1.0)),  # constant: no rank signal
        "chrf": make_matrix(np.random.default_rng(7).random((4, 2, 2)), metric="chrf"),
    }
    assert metric_correlations(matrices) == []
    path = tmp_path / "corr.csv"
    emit_correlations_csv([], path)
    assert path.read_text(encoding="utf-8") == "metric_a,metric_b,rho,raw_p,adjusted_p\n"
