"""Rank statistics against exact enumeration, closed forms, and scipy oracles."""

import itertools
import json
import math
import random
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

from bteval import jsonio, stats as stats_module, tails
from bteval.report import emit_stats_report
from bteval.stats import (
    BENJAMINI_HOCHBERG,
    BONFERRONI,
    NO_CORRECTION,
    ExperimentDesign,
    MetricBattery,
    PairwiseComparison,
    ScoreMatrix,
    StatsError,
    StatTestResult,
    _block_ranks,
    adjust_p,
    benjamini_hochberg,
    cell_means,
    descriptive_stats,
    dunn_posthoc,
    friedman,
    levene,
    prepare_cell_means,
    run_metric_battery,
    shapiro_wilk,
    spearman_battery,
)


# ---------------------------------------------------------------- oracles

def oracle_friedman_statistic(grid):
    """Independent statistic: explicit per-block sorted-position ranks (no ties)."""
    n, k = len(grid), len(grid[0])
    rank_sums = [0.0] * k
    for row in grid:
        order = sorted(range(k), key=lambda j: row[j])
        for position, j in enumerate(order, start=1):
            rank_sums[j] += position
    return 12.0 / (n * k * (k + 1)) * sum(s * s for s in rank_sums) - 3.0 * n * (k + 1)


def permutation_p(grid):
    """Exact permutation distribution over all within-block rearrangements."""
    n, k = len(grid), len(grid[0])
    observed = oracle_friedman_statistic(grid)
    perms = list(itertools.permutations(range(k)))
    count = 0
    total = 0
    for combo in itertools.product(perms, repeat=n):
        permuted = [[grid[i][combo[i][j]] for j in range(k)] for i in range(n)]
        if oracle_friedman_statistic(permuted) >= observed - 1e-9:
            count += 1
        total += 1
    return count / total


def oracle_friedman(grid):
    """friedman's formula with the tie term counted directly: t^3 - t per distinct
    value of each block, as np.unique groups them."""
    grid = np.asarray(grid, dtype=float)
    n, k = grid.shape
    rank_sums = _block_ranks(grid).sum(axis=0)
    classic = 12.0 / (n * k * (k + 1)) * float((rank_sums ** 2).sum()) - 3.0 * n * (k + 1)
    ties = 0.0
    for row in grid:
        _, counts = np.unique(row, return_counts=True)
        ties += float((counts ** 3 - counts).sum())
    correction = 1.0 - ties / (n * k * (k * k - 1))
    if correction <= 0.0:
        return 0.0, 1.0
    statistic = classic / correction
    if statistic <= 0.0:
        return max(statistic, 0.0), 1.0
    return statistic, tails.chi2_sf(statistic, k - 1)


def oracle_matrix_values(data):
    """The serialized grid decoded one value at a time: null is NaN."""
    return np.array(
        [[[math.nan if v is None else float(v) for v in cell] for cell in block]
         for block in data["values"]],
        dtype=float,
    )


def oracle_rank_with_ties(values):
    """Per-element tie runs over a stable argsort, one run at a time."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise StatsError("cannot rank an empty list")
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks.tolist()


def oracle_spearman(x, y):
    """Per-pair Spearman from float lists and the loop oracle's ranks."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise StatsError("inputs must have equal length")
    n = len(xs)
    if n < 3:
        raise StatsError("spearman needs at least 3 points")
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise StatsError("constant input: rho undefined")
    rx = np.array(oracle_rank_with_ties(xs))
    ry = np.array(oracle_rank_with_ties(ys))
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return rho, 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, 2.0 * tails.t_sf(abs(t), n - 2)


def oracle_spearman_battery(series):
    """Per-pair oracle Spearman, then one joint BH adjustment: (a, b, rho, raw p, adjusted p)."""
    names = list(series)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    results = [oracle_spearman(series[a], series[b]) for a, b in pairs]
    adjusted = benjamini_hochberg([p for _, p in results])
    return [(a, b, rho, p, adj) for (a, b), (rho, p), adj in zip(pairs, results, adjusted)]


# heavy ties: few distinct values, signed zeros and NaN among them
TIED = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.nan])


# ---------------------------------------------------------------- ranking

def row_ranks(values) -> list[float]:
    """_block_ranks of one block."""
    return _block_ranks(np.array([values], dtype=float))[0].tolist()


def test_block_ranks_examples():
    assert row_ranks([0.1, 0.3, 0.2]) == [1, 3, 2]
    assert row_ranks([0.5, 0.5]) == [1.5, 1.5]
    assert row_ranks([2, 2, 2]) == [2, 2, 2]


@given(st.lists(TIED, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_block_ranks_of_one_row_match_loop_oracle(values):
    assert row_ranks(values) == oracle_rank_with_ties(values)


@given(st.integers(1, 8).flatmap(
    lambda k: st.lists(st.lists(TIED, min_size=k, max_size=k), min_size=1, max_size=12)))
@settings(max_examples=300, deadline=None)
def test_block_ranks_match_loop_oracle_per_row(grid):
    ranks = _block_ranks(np.array(grid))
    assert ranks.shape == (len(grid), len(grid[0]))
    assert [row.tolist() for row in ranks] == [oracle_rank_with_ties(row) for row in grid]


def test_block_ranks_transient_memory_stays_within_six_inputs():
    # the ranks are 1x; every n x k temporary beside them is freed before the next.
    # Distinct values are the costliest grid: one tie run per cell.
    grid = np.random.default_rng(27).random((5, 100_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _block_ranks(grid)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 6 * grid.nbytes


def test_block_ranks_signed_zeros_and_nan_runs():
    # -0.0 == 0.0 ties; each NaN is its own run, after every number
    assert row_ranks([0.0, -0.0, math.nan, -1.0, math.nan]) == [2.5, 2.5, 4.0, 1.0, 5.0]


# ---------------------------------------------------------------- friedman

def test_friedman_hand_case():
    grid = [[0.1, 0.2, 0.3]] * 4  # identical ordering: rank sums 4, 8, 12
    result = friedman(grid)
    assert result.statistic == pytest.approx(8.0, abs=1e-12)
    assert result.df == 2
    assert result.p_value == pytest.approx(math.exp(-4.0), abs=5e-4)  # 0.0183


def test_friedman_constant_blocks():
    result = friedman([[0.4, 0.4, 0.4]] * 5)
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_friedman_matches_scipy_with_ties():
    rng = np.random.default_rng(5)
    grid = np.round(rng.random((12, 4)), 1)  # coarse values force ties
    mine = friedman(grid)
    ref_stat, ref_p = sps.friedmanchisquare(*[grid[:, j] for j in range(4)])
    assert mine.statistic == pytest.approx(ref_stat, abs=1e-10)
    assert mine.p_value == pytest.approx(ref_p, abs=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_friedman_tail_agrees_with_permutation_oracle(seed):
    # continuous grids pushed into the significance tail, where the
    # chi-square approximation is the advertised surrogate for enumeration
    rng = np.random.default_rng(seed)
    n = 4 + seed % 3
    grid = rng.normal(0, 0.02, size=(n, 3)) + np.array([0.0, 0.25, 0.5])
    result = friedman(grid)
    if result.p_value <= 0.10:
        assert abs(result.p_value - permutation_p(grid.tolist())) <= 0.02


def test_friedman_invariant_monotone_block_transform():
    rng = np.random.default_rng(11)
    grid = rng.random((9, 4))
    transformed = np.array([np.exp(3 * row) + i for i, row in enumerate(grid)])
    assert friedman(grid).statistic == pytest.approx(
        friedman(transformed).statistic, abs=1e-9
    )


def test_friedman_invariant_block_permutation():
    rng = np.random.default_rng(12)
    grid = rng.random((8, 3))
    shuffled = grid[rng.permutation(8)]
    assert friedman(grid).statistic == pytest.approx(friedman(shuffled).statistic)


TIE_HEAVY = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0.5, 1.0, 2.0]),
                     st.floats(allow_nan=False))


@st.composite
def tie_heavy_grids(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, 6))
    return draw(st.lists(st.lists(TIE_HEAVY, min_size=k, max_size=k), min_size=n, max_size=n))


@given(tie_heavy_grids())
@example([[0.0, -0.0, 0.0], [math.inf, math.inf, math.inf], [-0.0, -0.0, 0.0]])  # all tied
@example([[-math.inf, 0.0, math.inf], [math.inf, -0.0, 0.0]])
@settings(max_examples=300, deadline=None)
def test_friedman_tie_term_from_ranks_equals_counted_ties(grid):
    result = friedman(grid)
    assert (result.statistic, result.p_value) == oracle_friedman(grid)


def test_friedman_nan_mean_rejected():
    with pytest.raises(StatsError, match="NaN"):
        friedman([[0.1, 0.2, math.nan], [0.3, 0.1, 0.2]])


@pytest.mark.parametrize("test", [friedman, dunn_posthoc], ids=["friedman", "dunn_posthoc"])
@pytest.mark.parametrize("grid, message", [
    ([[1.0, math.nan], [2.0, 3.0]], "cell means must not be NaN"),
    ([1.0, 2.0, 3.0], "expects an n x k grid"),
    ([[1.0, 2.0, 3.0]], "requires n >= 2 and k >= 2"),
    ([[1.0], [2.0], [3.0]], "requires n >= 2 and k >= 2"),
], ids=["nan-cell", "1-d", "n=1", "k=1"])
def test_rank_tests_reject_a_grid_they_cannot_rank(test, grid, message):
    # a NaN cell would reach stats_report.json as NaN, which is not RFC 8259 JSON
    with pytest.raises(StatsError, match=f"^{re.escape(f'{test.__name__} {message}')}$"):
        test(np.array(grid))


# ---------------------------------------------------------------- dunn

def test_dunn_identical_pair_is_null():
    grid = np.array([[0.5, 0.5, 0.9]] * 6)
    pairs = dunn_posthoc(grid, treatment_ids=["a", "b", "c"])
    ab = next(p for p in pairs if {p.treatment_a, p.treatment_b} == {"a", "b"})
    assert ab.z == pytest.approx(0.0)
    assert ab.raw_p == pytest.approx(1.0)


def test_dunn_z_negates_under_pair_swap():
    rng = np.random.default_rng(3)
    grid = rng.random((10, 3))
    pairs = dunn_posthoc(grid, treatment_ids=["a", "b", "c"])
    swapped = dunn_posthoc(grid[:, [1, 0, 2]], treatment_ids=["b", "a", "c"])
    original_ab = next(p for p in pairs if p.treatment_a == "a")
    swapped_ba = next(p for p in swapped if p.treatment_a == "b" and p.treatment_b == "a")
    assert original_ab.z == pytest.approx(-swapped_ba.z)


def test_dunn_k2_matches_sign_formula_and_permutation_oracle():
    rng = np.random.default_rng(17)
    for n in (6, 7, 8):
        grid = rng.normal(0, 1, size=(n, 2)) + np.array([0.0, 1.4])
        pair = dunn_posthoc(grid, treatment_ids=["a", "b"])[0]
        ranks = np.array([oracle_rank_with_ties(row) for row in grid])
        direct_z = (ranks[:, 0].mean() - ranks[:, 1].mean()) * math.sqrt(n)
        assert pair.z == pytest.approx(direct_z, abs=1e-12)
        # exact two-sided permutation p over all 2^n within-block flips
        observed = abs(ranks[:, 0].mean() - ranks[:, 1].mean())
        hits = 0
        for flips in itertools.product((False, True), repeat=n):
            flipped = np.array([row[::-1] if f else row for row, f in zip(ranks, flips)])
            if abs(flipped[:, 0].mean() - flipped[:, 1].mean()) >= observed - 1e-12:
                hits += 1
        perm_p = hits / 2 ** n
        if perm_p <= 0.10:
            assert abs(pair.raw_p - perm_p) <= 0.08


def test_dunn_mean_difference_tracks_table_shape():
    # two treatments depressed by ~0.07, mirroring the published BLEU deltas
    rng = np.random.default_rng(2024)
    names = ["claude", "deepseek", "gemini", "grok", "gpt45"]
    offsets = np.array([0.5935, 0.6033, 0.5997, 0.5223, 0.5275])
    grid = rng.normal(0, 0.05 / math.sqrt(3), size=(89, 5)) + offsets
    pairs = dunn_posthoc(grid, treatment_ids=names)
    claude_grok = next(p for p in pairs
                       if {p.treatment_a, p.treatment_b} == {"claude", "grok"})
    assert claude_grok.mean_difference == pytest.approx(0.0712, abs=0.02)
    significant = {frozenset((p.treatment_a, p.treatment_b))
                   for p in pairs if p.adjusted_p < 0.05}
    expected = {frozenset((x, y)) for x in ("claude", "deepseek", "gemini")
                for y in ("grok", "gpt45")}
    assert significant == expected


# ---------------------------------------------------------------- adjustments

def test_benjamini_hochberg_worked_example():
    assert benjamini_hochberg([0.01, 0.02, 0.04]) == pytest.approx([0.03, 0.03, 0.04])


def test_benjamini_hochberg_trivials():
    assert benjamini_hochberg([0.2]) == [0.2]
    assert benjamini_hochberg([0.3, 0.3, 0.3]) == pytest.approx([0.3, 0.3, 0.3])
    assert benjamini_hochberg([]) == []


def monotonize_step_up(sorted_values):
    """The step-up regularization alone: running min from the largest down."""
    out = list(sorted_values)
    for i in range(len(out) - 2, -1, -1):
        out[i] = min(out[i], out[i + 1])
    return out


def test_benjamini_hochberg_properties():
    # note: BH(BH(p)) != BH(p) in general (m/j re-inflates); the idempotent
    # part is the monotone step-up regularization, plus constant vectors,
    # which are the only full fixed points
    rng = random.Random(88)
    for _ in range(300):
        ps = [rng.random() for _ in range(rng.randint(1, 25))]
        adjusted = benjamini_hochberg(ps)
        assert all(a >= p - 1e-15 for a, p in zip(adjusted, ps))  # pointwise >= input
        assert all(a <= 1.0 for a in adjusted)
        order = sorted(range(len(ps)), key=lambda i: ps[i])
        sorted_adjusted = [adjusted[i] for i in order]
        assert sorted_adjusted == sorted(sorted_adjusted)  # order preserving
        # already-adjusted monotone output: re-monotonizing changes nothing
        assert monotonize_step_up(sorted_adjusted) == sorted_adjusted
    constant = [0.42] * 7
    assert benjamini_hochberg(benjamini_hochberg(constant)) == pytest.approx(
        benjamini_hochberg(constant)
    )


def test_benjamini_hochberg_matches_scipy():
    rng = random.Random(19)
    ps = [rng.random() for _ in range(40)]
    expected = sps.false_discovery_control(ps, method="bh")
    assert benjamini_hochberg(ps) == pytest.approx(list(expected), abs=1e-12)


def test_benjamini_hochberg_rejects_out_of_range():
    with pytest.raises(StatsError):
        benjamini_hochberg([0.5, 1.5])


def test_bonferroni():
    assert adjust_p([0.01, 0.4], BONFERRONI) == [0.02, 0.8]
    assert adjust_p([0.9, 0.9], BONFERRONI) == [1.0, 1.0]


@pytest.mark.parametrize("correction", [BENJAMINI_HOCHBERG, BONFERRONI, NO_CORRECTION])
def test_adjust_p_checks_range_and_returns_floats(correction):
    for bad in ([0.5, 1.5], [-0.1]):
        with pytest.raises(StatsError, match=r"must lie in \[0, 1\]"):
            adjust_p(bad, correction)
    adjusted = adjust_p(np.array([0.25, 0.5]), correction)
    assert all(type(p) is float for p in adjusted)
    assert adjust_p([], correction) == []


@pytest.mark.parametrize("correction", [BENJAMINI_HOCHBERG, BONFERRONI, NO_CORRECTION])
def test_adjust_p_rejects_nan(correction):
    # NaN fails both p < 0 and p > 1; Benjamini-Hochberg returned [0.01, 0.01] here
    with pytest.raises(StatsError, match=r"must lie in \[0, 1\]"):
        adjust_p([math.nan, 0.01], correction)


def test_adjust_p_none_is_identity_and_unknown_name_rejected():
    assert adjust_p([0.3, 0.01, 1.0], NO_CORRECTION) == [0.3, 0.01, 1.0]
    with pytest.raises(StatsError, match="unknown correction"):
        adjust_p([0.5], "holm")


# ---------------------------------------------------------------- spearman

def spearman_pair(x, y) -> tuple[float, float]:
    """rho and raw p of spearman_battery on the one pair (x, y)."""
    [entry] = spearman_battery({"x": x, "y": y}, NO_CORRECTION)
    return entry.rho, entry.raw_p


def test_spearman_monotone_extremes():
    rho, p = spearman_pair([1, 2, 3], [10, 20, 30])
    assert rho == 1.0 and p == 0.0
    rho, p = spearman_pair([1, 2, 3], [30, 20, 10])
    assert rho == -1.0 and p == 0.0


def test_spearman_equals_rank_pearson_and_scipy():
    rng = np.random.default_rng(23)
    x = rng.random(60)
    y = 0.6 * x + 0.4 * rng.random(60)
    rho, p = spearman_pair(x, y)
    ref = sps.spearmanr(x, y)
    assert rho == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, abs=1e-9)
    # rank invariance
    rho_ranked, _ = spearman_pair(row_ranks(x), row_ranks(y))
    assert rho_ranked == pytest.approx(rho, abs=1e-12)


def test_spearman_large_sample_correlation_band():
    # bivariate normal tuned so the rank correlation sits near 0.67
    rng = np.random.default_rng(67)
    n = 445
    pearson = 2 * math.sin(0.67 * math.pi / 6)
    cov = [[1, pearson], [pearson, 1]]
    xy = rng.multivariate_normal([0, 0], cov, size=n)
    rho, p = spearman_pair(xy[:, 0], xy[:, 1])
    assert rho == pytest.approx(0.67, abs=0.08)
    assert p < 1e-6


def test_spearman_errors():
    with pytest.raises(StatsError):
        spearman_pair([1, 2], [1, 2])
    with pytest.raises(StatsError):
        spearman_pair([1, 2, 3], [1, 2])
    with pytest.raises(StatsError, match="constant"):
        spearman_pair([1, 1, 1], [1, 2, 3])


def test_spearman_battery_adjusts_jointly():
    rng = np.random.default_rng(9)
    series = {name: rng.random(30).tolist() for name in "abcd"}
    entries = spearman_battery(series)
    assert len(entries) == 6  # C(4,2)
    assert all(e.adjusted_p >= e.raw_p - 1e-15 for e in entries)


SERIES_VALUES = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
EQUAL_LENGTH_SERIES = st.integers(3, 40).flatmap(lambda n: st.dictionaries(
    st.sampled_from("abcde"), st.lists(SERIES_VALUES, min_size=n, max_size=n),
    min_size=2, max_size=5))
# short, tied, possibly constant or unequal series: the error cases
SMALL_SERIES = st.dictionaries(
    st.sampled_from("abcd"), st.lists(st.sampled_from([0.0, 1.0, 2.0]), max_size=5), max_size=4)


@given(st.one_of(EQUAL_LENGTH_SERIES, SMALL_SERIES))
@settings(max_examples=400, deadline=None)
def test_spearman_battery_matches_per_pair_spearman(series):
    try:
        expected = oracle_spearman_battery(series)
    except StatsError as exc:
        with pytest.raises(StatsError, match=f"^{re.escape(str(exc))}$"):
            spearman_battery(series)
        return
    got = [(e.series_a, e.series_b, e.rho, e.raw_p, e.adjusted_p) for e in spearman_battery(series)]
    assert got == expected
    arrays = {name: np.array(values) for name, values in series.items()}
    assert spearman_battery(arrays) == spearman_battery(series)
    assert ([spearman_pair(series[a], series[b]) for a, b, *_ in got]
            == [(e[2], e[3]) for e in expected])


@pytest.mark.parametrize("series, message", [
    ({"a": [1, 2, 3], "b": [5, 5, 5]}, "constant input"),
    ({"a": [1, 2, 3], "b": [1, 2, 3, 4]}, "equal length"),
    ({"a": [1, 2], "b": [2, 1]}, "at least 3 points"),
    # the first bad pair decides: (a, b) has unequal lengths before c is constant
    ({"a": [1, 2, 3], "b": [1, 2], "c": [4, 4, 4]}, "equal length"),
    ({"a": [math.nan, 1, 2, 5], "b": [1, 2, 3, 4]}, "NaN"),
    # a NaN series is not reported as constant, nor a NaN beside a constant series
    ({"a": [math.nan] * 3, "b": [1, 2, 3]}, "NaN"),
    ({"a": [1, 1, 1], "b": [1, 2, math.nan]}, "NaN"),
])
def test_spearman_battery_errors(series, message):
    with pytest.raises(StatsError, match=message):
        spearman_battery(series)


def test_spearman_battery_ranks_each_series_once(monkeypatch):
    shapes = []
    monkeypatch.setattr(stats_module, "_block_ranks",
                        lambda grid: shapes.append(grid.shape) or _block_ranks(grid))
    rng = np.random.default_rng(9)
    spearman_battery({name: rng.random(30) for name in "abcd"})
    assert shapes == [(1, 30)] * 4  # once per series, never once per pair


def test_spearman_battery_with_fewer_than_two_series_is_empty():
    assert spearman_battery({}) == []
    assert spearman_battery({"a": [1, 1]}) == []  # never checked: no pair


def test_unknown_correction_rejected_by_both_adjusted_tests():
    rng = np.random.default_rng(9)
    series = {name: rng.random(30).tolist() for name in "abc"}
    with pytest.raises(StatsError, match="unknown correction"):
        spearman_battery(series, correction="holm")
    with pytest.raises(StatsError, match="unknown correction"):
        dunn_posthoc(rng.random((10, 3)), correction="holm")


# ---------------------------------------------------------------- shapiro-wilk

def test_shapiro_constant_sample_rejected():
    with pytest.raises(StatsError, match="variance"):
        shapiro_wilk([1.0, 1.0, 1.0, 1.0])


def test_shapiro_range_rejected():
    with pytest.raises(StatsError):
        shapiro_wilk([1.0, 2.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(StatsError, match="finite"):
            shapiro_wilk([1.0, 2.0, bad, 3.0, 5.0])


def test_shapiro_polynomial_sums_left_to_right():
    # a u = 1/sqrt(n) whose left-to-right sum differs from the exactly rounded
    # one, which Python 3.12's compensated sum() comes close to
    u = 1.0 / math.sqrt(6)
    terms = [c * u ** (i + 1) for i, c in enumerate(stats_module._SW_C1)]
    assert stats_module._sw_poly(stats_module._SW_C1, u).hex() == "0x1.19ba09dc2a541p-6"
    assert math.fsum(terms).hex() == "0x1.19ba09dc2a540p-6"


def test_shapiro_matches_scipy():
    rng = np.random.default_rng(41)
    for n in (4, 7, 11, 12, 35, 200, 5000):
        sample = rng.normal(size=n)
        mine = shapiro_wilk(sample)
        ref = sps.shapiro(sample)
        assert mine.statistic == pytest.approx(ref.statistic, abs=1e-7)
        assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-5)


def test_shapiro_separates_normal_from_exponential():
    normal_ok = 0
    exponential_caught = 0
    for seed in range(100):
        rng = random.Random(seed)
        normal = [rng.gauss(0, 1) for _ in range(50)]
        exponential = [rng.expovariate(1.0) for _ in range(50)]
        if shapiro_wilk(normal).p_value > 0.05:
            normal_ok += 1
        if shapiro_wilk(exponential).p_value < 0.05:
            exponential_caught += 1
    assert normal_ok >= 90
    assert exponential_caught >= 90


# ---------------------------------------------------------------- levene

def test_levene_identical_groups_null():
    result = levene([[2.0, 2.0, 2.0], [5.0, 5.0]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_levene_detects_spread_difference():
    result = levene([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    # hand computation: medians 2 and 20, deviations (1,0,1) and (10,0,10),
    # SS_between = 54, SS_within = 606/9, F = 54 / ((606/9) / 4)
    assert result.statistic == pytest.approx(54.0 * 4.0 * 9.0 / 606.0, abs=1e-9)
    ref = sps.levene([1.0, 2.0, 3.0], [10.0, 20.0, 30.0], center="median")
    assert result.statistic == pytest.approx(ref.statistic, abs=1e-10)
    assert result.p_value == pytest.approx(ref.pvalue, abs=1e-10)


def test_levene_duplicated_group_is_symmetric_null():
    group = [1.0, 4.0, 9.0, 2.0]
    result = levene([group, list(group)])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)


def test_levene_rejects_small_groups():
    with pytest.raises(StatsError):
        levene([[1.0], [2.0, 3.0]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(StatsError, match="finite"):
            levene([[1.0, 2.0, bad], [3.0, 4.0, 5.0]])


# ---------------------------------------------------------------- descriptive

def test_descriptive_examples():
    stats = descriptive_stats([0.0, 1.0])
    assert stats.mean == 0.5 and stats.minimum == 0.0 and stats.maximum == 1.0
    single = descriptive_stats([0.7])
    assert single.count == 1 and single.std == 0.0 and single.mean == 0.7


def test_descriptive_matches_spreadsheet_oracle():
    rng = random.Random(1335)
    values = [rng.random() for _ in range(1335)]
    stats = descriptive_stats(values)
    # independent spreadsheet-style computation
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    ordered = sorted(values)

    def quantile(p):
        pos = (n - 1) * p
        lo, hi = int(math.floor(pos)), int(math.ceil(pos))
        return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])

    assert stats.count == 1335
    assert stats.mean == pytest.approx(mean, abs=1e-9)
    assert stats.std == pytest.approx(math.sqrt(variance), abs=1e-9)
    assert stats.q25 == pytest.approx(quantile(0.25), abs=1e-9)
    assert stats.median == pytest.approx(quantile(0.50), abs=1e-9)
    assert stats.q75 == pytest.approx(quantile(0.75), abs=1e-9)
    assert stats.minimum == ordered[0] and stats.maximum == ordered[-1]


@pytest.mark.parametrize("values, quartiles", [
    ([1.0, math.inf, math.inf], (math.inf, math.inf, math.inf)),
    ([math.inf, math.inf, math.inf], (math.inf, math.inf, math.inf)),
    ([-math.inf, -math.inf, 1.0], (-math.inf, -math.inf, -math.inf)),
    ([-math.inf, 1.0, 2.0, 3.0, 4.0], (1.0, 2.0, 3.0)),
], ids=["inf-shared", "all-inf", "-inf-below-finite", "-inf-minimum"])
def test_descriptive_quantiles_at_an_infinity(values, quartiles):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf would warn and give NaN
        stats = descriptive_stats(values)
    assert (stats.q25, stats.median, stats.q75) == quartiles


def test_descriptive_finite_quantiles_unchanged():
    # the interpolation adds 0.0 between equal neighbours, so -0.0 reports as 0.0
    stats = descriptive_stats([-0.0, -0.0, -0.0])
    assert all(math.copysign(1.0, q) == 1.0 for q in (stats.q25, stats.median, stats.q75))
    values = [0.1, 0.7, 0.2, 0.9, 0.3]
    stats = descriptive_stats(values)
    ordered = sorted(values)
    assert stats.q25 == ordered[1] + 0.0 * (ordered[1] - ordered[1])
    assert stats.q75 == ordered[3] + 0.0 * (ordered[3] - ordered[3])
    stats = descriptive_stats(values[:4])
    ordered = sorted(values[:4])
    assert stats.q25 == ordered[0] + 0.75 * (ordered[1] - ordered[0])
    assert stats.median == ordered[1] + 0.5 * (ordered[2] - ordered[1])


def test_descriptive_empty_rejected():
    with pytest.raises(StatsError):
        descriptive_stats([])


def test_descriptive_opposite_infinities_rejected():
    with pytest.raises(StatsError, match=r"both \+inf and -inf"):
        descriptive_stats([math.inf, 0.5, -math.inf])


def test_descriptive_single_infinity_has_nan_std_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf is NaN, not a RuntimeWarning
        stats = descriptive_stats([math.inf, 1.0])
    assert stats.mean == math.inf and math.isnan(stats.std)


@given(st.lists(st.one_of(st.sampled_from([-0.0, 1e-05, 5e-324, 1e200, -1e300]),
                          st.floats(-1e300, 1e300)), min_size=1, max_size=30))
@example([0.3578680612554048, -0.3578680612554048])  # libm pow(x, 2) != x * x here
@example([-0.0, -0.0, 2.8442255724327534e+154])  # squared deviations sum past the float max
@example([1e200, -1e200])  # one square past the float range: std is inf, not an error
@settings(max_examples=300, deadline=None)
def test_descriptive_mean_and_std_match_numpy_scalar_sums(values):
    # exact sums over numpy scalars: a square past the float range is inf, not an error
    arr = np.asarray(values, dtype=float)
    mean = math.fsum(arr) / arr.size
    with np.errstate(over="ignore"):
        try:
            std = math.sqrt(math.fsum((v - mean) ** 2 for v in arr) / (arr.size - 1)) if arr.size > 1 else 0.0
        except OverflowError:
            # finite squared deviations summing past the largest float have no std
            with pytest.raises(StatsError):
                descriptive_stats(values)
            return
        got = descriptive_stats(values)
    assert (got.mean, got.std) == (mean, std)


# ---------------------------------------------------------------- matrices

def make_matrix(values, metric="bleu"):
    values = np.asarray(values, dtype=float)
    n, k, r = values.shape
    return ScoreMatrix(
        design=ExperimentDesign(n=n, k=k, r=r),
        metric=metric,
        values=values,
        block_ids=[f"b{i}" for i in range(n)],
        treatment_ids=[f"t{j}" for j in range(k)],
    )


def test_cell_means_examples():
    matrix = make_matrix([[[0.2, 0.4, 0.6], [0.8119, 0.2123, 0.6778]],
                          [[0.1, 0.1, 0.1], [0.5, 0.5, 0.5]]])
    means = cell_means(matrix)
    assert means[0, 0] == pytest.approx(0.4)
    assert means[0, 1] == pytest.approx(0.5673, abs=0.01)  # published three-round mean
    single = make_matrix(np.full((2, 2, 1), 0.3))
    assert cell_means(single).tolist() == [[0.3, 0.3], [0.3, 0.3]]


def test_cell_means_rejects_empty_cell():
    values = np.full((2, 2, 2), 0.5)
    values[0, 1, :] = np.nan
    with pytest.raises(StatsError, match="no observations"):
        cell_means(make_matrix(values))


def test_prepare_cell_means_imputes_with_audit():
    values = np.full((3, 3, 2), 0.5)
    values[1, 2, :] = np.nan
    values[1, 0, :] = 0.2
    grid, audit = prepare_cell_means(make_matrix(values))
    assert grid.shape == (3, 3)
    assert grid[1, 2] == pytest.approx((0.2 + 0.5) / 2)  # block mean
    assert audit == ["imputed block mean 0.350000 for (b1, t2)"]


def test_prepare_cell_means_leaves_the_warning_filters_alone():
    # catch_warnings swaps the process-wide filter list, so no caller may use it concurrently
    values = np.array([[[0.25, 0.5, 0.75], [0.5, np.nan, 1.0], [0.0, 0.25, 0.5]],
                       [[0.5, 0.5, 0.5], [1.0, 0.5, np.nan], [np.nan, np.nan, np.nan]],
                       [[0.0, 0.0, 0.75], [0.75, 0.75, 0.75], [0.5, np.nan, 0.0]]])
    expected = [[0.5, 0.75, 0.25], [0.5, 0.75, 0.625], [0.25, 0.75, 0.25]]
    with mock.patch.object(warnings, "catch_warnings", side_effect=AssertionError("not thread-safe")):
        grid, audit = prepare_cell_means(make_matrix(values))
        battery = run_metric_battery(make_matrix(values))
    assert grid.tolist() == expected
    assert audit == battery.audit == ["imputed block mean 0.625000 for (b1, t2)"]
    assert battery.friedman.statistic == friedman(np.array(expected)).statistic


@pytest.mark.parametrize("shape", [(2000, 8, 5), (89, 5, 3), (7, 3, 1), (50, 4, 10)])
def test_prepare_cell_means_equal_nanmean_bit_for_bit(shape):
    rng = np.random.default_rng(7)
    values = rng.random(shape)
    values[rng.random(shape) < 0.3] = np.nan
    values[:, 0, 0] = rng.random(shape[0])  # no block is empty
    values[0, 1] = np.nan  # an empty cell, imputed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = np.nanmean(values, axis=2)
    grid = prepare_cell_means(make_matrix(values))[0]
    observed = ~np.isnan(expected)
    assert observed.sum() < expected.size and np.array_equal(grid[observed], expected[observed])


def test_prepare_cell_means_rejects_an_empty_block():
    values = np.full((3, 2, 2), 0.5)
    values[2] = np.nan
    with pytest.raises(StatsError, match="block b2 has no observations at all"):
        prepare_cell_means(make_matrix(values))


def test_score_matrix_serialization_round_trip():
    values = np.random.default_rng(1).random((3, 2, 2))
    values[1, 0, 1] = np.nan
    matrix = make_matrix(values, metric="chrf")
    data = matrix.to_dict()
    assert data["design"] == {"n": 3, "k": 2, "r": 2}
    again = ScoreMatrix.from_dict(data)
    assert again.metric == "chrf"
    assert np.array_equal(again.values, matrix.values, equal_nan=True)
    assert again.block_ids == matrix.block_ids


@st.composite
def matrix_fields(draw):
    """A matrix's fields; in about half, the metric and ids are drawn from text
    that includes lone surrogates, which UTF-8 cannot encode."""
    n, k, r = (draw(st.integers(1, 3)) for _ in range(3))
    surrogates = st.sampled_from("\ud800\udbff\udc00\udfff")
    text = st.text(st.one_of(st.characters(), surrogates) if draw(st.booleans())
                   else st.characters(), max_size=4)
    # finite cells: to_dict has no strict JSON for inf, and from_dict refuses it
    cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.nan))
    values = draw(st.lists(cells, min_size=n * k * r, max_size=n * k * r))
    return {"design": ExperimentDesign(n, k, r), "metric": draw(text),
            "values": np.reshape(values, (n, k, r)),
            "block_ids": draw(st.lists(text, min_size=n, max_size=n, unique=True)),
            "treatment_ids": draw(st.lists(text, min_size=k, max_size=k, unique=True))}


@given(matrix_fields())
@settings(max_examples=200, deadline=None)
def test_score_matrix_the_constructor_accepts_round_trips_through_a_matrix_file(fields):
    try:
        matrix = ScoreMatrix(**fields)
    except StatsError:  # a lone surrogate
        return
    text = json.dumps(matrix.to_dict(), ensure_ascii=False)
    again = ScoreMatrix.from_dict(jsonio.loads(text))
    assert (again.metric, again.block_ids, again.treatment_ids) == (
        matrix.metric, matrix.block_ids, matrix.treatment_ids)
    assert again.values.tobytes() == matrix.values.tobytes()


@given(st.lists(st.one_of(st.none(), st.just(-0.0), st.integers(-2 ** 53, 2 ** 53),
                          st.floats(allow_nan=False)), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
@example([None, None, None, None, None, math.inf])
def test_score_matrix_from_dict_decodes_like_per_value_oracle(flat):
    data = {"metric": "bleu", "design": {"n": 1, "k": 2, "r": 3},
            "block_ids": ["b0"], "treatment_ids": ["t0", "t1"],
            "values": [[flat[:3], flat[3:]]]}
    expected = oracle_matrix_values(data)
    if np.isinf(expected).any():  # a JSON number such as 1e400 that overflowed
        with pytest.raises(ValueError, match="values must be finite"):
            ScoreMatrix.from_dict(data)
        return
    got = ScoreMatrix.from_dict(data).values
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_run_metric_battery_significant_path():
    rng = np.random.default_rng(55)
    values = rng.normal(0.6, 0.03, size=(20, 3, 2))
    values[:, 2, :] -= 0.2  # one clearly worse treatment
    battery = run_metric_battery(make_matrix(values))
    assert battery.friedman.p_value < 0.05
    sig = {frozenset((p.treatment_a, p.treatment_b)) for p in battery.significant_pairs}
    assert sig == {frozenset(("t0", "t2")), frozenset(("t1", "t2"))}


def test_run_metric_battery_null_path():
    values = np.full((5, 3, 2), 0.4)
    battery = run_metric_battery(make_matrix(values))
    assert battery.friedman.p_value == 1.0
    assert battery.significant_pairs == []
    assert battery.friedman.pairwise == []


# ------------------------------------------------ stats_report.json encoding

def oracle_test_result_dict(result):
    """The hand-listed encoder that ``asdict`` replaced; it omitted a ``None`` pairwise."""
    out = {
        "test_name": result.test_name,
        "statistic": result.statistic,
        "df": list(result.df) if isinstance(result.df, tuple) else result.df,
        "p_value": result.p_value,
    }
    if result.pairwise is not None:
        out["pairwise"] = [vars(entry).copy() for entry in result.pairwise]
    return out


def oracle_battery_dict(battery):
    return {
        "metric": battery.metric,
        "alpha": battery.alpha,
        "correction": battery.correction,
        "friedman": oracle_test_result_dict(battery.friedman),
        "audit": list(battery.audit),
    }


def oracle_stats_report(batteries) -> bytes:
    payload = {battery.metric: oracle_battery_dict(battery) for battery in batteries}
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    return text.encode("utf-8")


def emitted_stats_report(batteries) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stats_report.json"
        emit_stats_report(batteries, path)
        return path.read_bytes()


labels = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
report_floats = st.one_of(st.floats(), st.floats().map(np.float64),
                          st.sampled_from([-0.0, math.nan, np.float64(-0.0), np.float64(math.nan)]))


@st.composite
def batteries(draw):
    names = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    out = []
    for name in names:
        pairwise = [PairwiseComparison(draw(labels), draw(labels),
                                       *draw(st.lists(report_floats, min_size=4, max_size=4)))
                    for _ in range(draw(st.integers(0, 3)))]
        df = draw(st.one_of(st.none(), st.integers(1, 9),
                            st.tuples(st.integers(1, 9), st.integers(1, 99))))
        result = StatTestResult("friedman", draw(report_floats), df, draw(report_floats), pairwise)
        out.append(MetricBattery(name, result, draw(report_floats), BENJAMINI_HOCHBERG,
                                 draw(st.lists(labels, max_size=3))))
    return out


@given(batteries())
@settings(max_examples=100, deadline=None)
def test_stats_report_matches_hand_listed_encoder(generated):
    assert emitted_stats_report(generated) == oracle_stats_report(generated)


def test_stats_report_matches_hand_listed_encoder_on_run_batteries():
    rng = np.random.default_rng(55)
    values = rng.normal(0.6, 0.03, size=(20, 3, 2))
    values[:, 2, :] -= 0.2
    values[3, 1, :] = np.nan  # an imputed cell, so the audit is not empty
    significant = run_metric_battery(make_matrix(values, metric="bleu"))
    null = run_metric_battery(make_matrix(np.full((5, 3, 2), 0.4), metric="chrf"))
    assert significant.friedman.pairwise and null.friedman.pairwise == []
    assert significant.audit
    edge = MetricBattery("ter", StatTestResult("levene", np.float64(-0.0), (2, 12), math.nan, [
        PairwiseComparison("a", "b", np.float64(1.5), -0.0, math.nan, np.float64(-0.25))]),
        0.05, BONFERRONI)
    batteries = [significant, null, edge]
    assert emitted_stats_report(batteries) == oracle_stats_report(batteries)
