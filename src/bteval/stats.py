"""Rank-based significance analysis over block x treatment x repetition
score grids: Friedman omnibus test, Dunn pairwise z-tests with step-up or
Bonferroni adjustment, Spearman correlation, and the Shapiro-Wilk /
Brown-Forsythe diagnostics used to justify the non-parametric route.

Repetitions collapse to per-cell means before ranking; missing cells are
mean-imputed within their block (with an audit flag), keeping the design
balanced.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from . import tails
from .jsonio import check_fields, config_from_json

DEFAULT_ALPHA = 0.05

BENJAMINI_HOCHBERG = "benjamini_hochberg"
BONFERRONI = "bonferroni"
NO_CORRECTION = "none"


class StatsError(ValueError):
    """Degenerate or malformed statistical input."""


@dataclass(frozen=True)
class ExperimentDesign:
    n: int  # blocks (texts)
    k: int  # treatments (backends)
    r: int  # repetitions per cell

    def __post_init__(self) -> None:
        check_fields(self, StatsError, "design")
        # single-cell matrices are legal pipeline output; the rank tests
        # themselves insist on n >= 2 and k >= 2
        if self.n < 1 or self.k < 1 or self.r < 1:
            raise StatsError("design requires n >= 1, k >= 1, r >= 1")


@dataclass
class ScoreMatrix:
    """(block, treatment, repetition) grid of scores; NaN marks missing cells."""

    design: ExperimentDesign
    metric: str
    values: np.ndarray
    block_ids: list[str]
    treatment_ids: list[str]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        check_fields(self, StatsError, "matrix")
        expected = (self.design.n, self.design.k, self.design.r)
        if self.values.shape != expected:
            raise StatsError(f"values shape {self.values.shape} != design {expected}")
        if len(self.block_ids) != self.design.n or len(self.treatment_ids) != self.design.k:
            raise StatsError("label lengths must match the design")
        for name, ids in (("block_ids", self.block_ids), ("treatment_ids", self.treatment_ids)):
            if len(set(ids)) != len(ids):
                repeated = sorted({i for i in ids if ids.count(i) > 1})
                raise StatsError(f"{name} must be unique, found {repeated} more than once")

    def missing_fraction(self) -> float:
        return float(np.isnan(self.values).mean())

    def observations(self) -> np.ndarray:
        """All non-missing repetition-level scores, in grid order."""
        flat = self.values.reshape(-1)
        return flat[~np.isnan(flat)]

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "design": asdict(self.design),
            "block_ids": list(self.block_ids),
            "treatment_ids": list(self.treatment_ids),
            "values": np.where(np.isnan(self.values), None, self.values).tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreMatrix":
        design = config_from_json(ExperimentDesign, data["design"], "design")
        # np.array would read true as 1.0 and "0.5" as 0.5
        cells = set(map(type, chain.from_iterable(chain.from_iterable(data["values"]))))
        if not cells <= {int, float, type(None)}:
            raise TypeError("values must be numbers or null, "
                            f"found {sorted(t.__name__ for t in cells)}")
        try:
            values = np.array(data["values"], dtype=float)  # null decodes to NaN
        except OverflowError as exc:  # an integer past the float range
            raise ValueError(f"values must be finite: {exc}") from exc
        if np.isinf(values).any():
            raise ValueError("values must be finite: a number such as 1e400 overflowed to inf")
        return cls(design, data["metric"], values, data["block_ids"], data["treatment_ids"])


@dataclass(frozen=True)
class PairwiseComparison:
    treatment_a: str
    treatment_b: str
    z: float
    raw_p: float
    adjusted_p: float
    mean_difference: float


@dataclass
class StatTestResult:
    test_name: str
    statistic: float
    df: object  # int, tuple of ints, or None
    p_value: float
    pairwise: list[PairwiseComparison] | None = None


def cell_means(matrix: ScoreMatrix) -> np.ndarray:
    """n x k grid of per-cell repetition means, skipping missing values."""
    empty = np.argwhere(np.isnan(matrix.values).all(axis=2))
    if empty.size:
        b, t = empty[0]
        raise StatsError(
            f"cell ({matrix.block_ids[b]}, {matrix.treatment_ids[t]}) has no observations"
        )
    return prepare_cell_means(matrix)[0]


def prepare_cell_means(matrix: ScoreMatrix):
    """Cell means, each missing cell imputed with its block's mean; returns (grid, audit)."""
    counts = np.count_nonzero(~np.isnan(matrix.values), axis=2)  # nanmean, minus its empty-cell warning
    grid = np.divide(np.nansum(matrix.values, axis=2), counts,
                     out=np.full(counts.shape, np.nan), where=counts > 0)
    audit: list[str] = []
    for b in np.flatnonzero(np.isnan(grid).any(axis=1)):
        row = grid[b]
        missing = np.isnan(row)
        if missing.all():
            raise StatsError(f"block {matrix.block_ids[b]} has no observations at all")
        fill = row[~missing].mean()
        for t in np.flatnonzero(missing):
            audit.append(
                f"imputed block mean {fill:.6f} for "
                f"({matrix.block_ids[b]}, {matrix.treatment_ids[t]})"
            )
        row[missing] = fill
    return grid, audit


def _block_ranks(grid: np.ndarray) -> np.ndarray:
    """Ascending ranks 1..k along each row (block) of a 2-D float array; ties
    share the mean of their positions.

    Each NaN compares unequal to everything, so it forms its own tie run.
    """
    n, k = grid.shape
    order = np.argsort(grid, axis=1, kind="stable")
    ordered = np.take_along_axis(grid, order, axis=1)
    starts = np.ones((n, k), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    del ordered  # each n x k temporary is freed before the next is allocated
    # a sorted cell's run spans first..last: the nearest run start at or before
    # it, and the nearest run end (a cell followed by a start) at or after it
    positions = np.arange(k, dtype=float)
    first = np.zeros((n, k))
    np.copyto(first, positions, where=starts)
    np.maximum.accumulate(first, axis=1, out=first)
    last = np.full((n, k), k - 1.0)
    np.copyto(last[:, :-1], positions[:-1], where=starts[:, 1:])
    np.minimum.accumulate(last[:, ::-1], axis=1, out=last[:, ::-1])
    first += last  # a whole number, so halving it is exact: ranks are half-integers
    first /= 2.0
    first += 1.0
    np.put_along_axis(last, order, first, axis=1)  # last becomes the ranks
    return last


def _check_grid(name: str, means) -> np.ndarray:
    """means as a float n x k grid with n >= 2, k >= 2 and no NaN; otherwise a StatsError."""
    grid = np.asarray(means, dtype=float)
    if grid.ndim != 2:
        raise StatsError(f"{name} expects an n x k grid")
    n, k = grid.shape
    if n < 2 or k < 2:
        raise StatsError(f"{name} requires n >= 2 and k >= 2")
    if np.isnan(grid).any():
        raise StatsError(f"{name} cell means must not be NaN")
    return grid


def friedman(means) -> StatTestResult:
    """Friedman chi-square over an n x k grid of cell means.

    Uses the standard tie-correction divisor; a grid whose blocks are all
    fully tied yields statistic 0 and p = 1. A NaN mean has no rank.
    """
    grid = _check_grid("friedman", means)
    n, k = grid.shape
    ranks = _block_ranks(grid)
    rank_sums = ranks.sum(axis=0)
    classic = 12.0 / (n * k * (k + 1)) * float((rank_sums ** 2).sum()) - 3.0 * n * (k + 1)
    # Per block, mean ranks over tie runs of lengths t have sum of squares
    # k(k+1)(2k+1)/6 - sum(t^3 - t)/12; the ranks are half-integers, so the
    # tie term this gives is exact.
    ties = 2.0 * n * k * (k + 1) * (2 * k + 1) - 12.0 * float((ranks ** 2).sum())
    correction = 1.0 - ties / (n * k * (k * k - 1))
    if correction <= 0.0:
        return StatTestResult("friedman", 0.0, k - 1, 1.0)
    statistic = classic / correction
    if statistic <= 0.0:
        return StatTestResult("friedman", max(statistic, 0.0), k - 1, 1.0)
    return StatTestResult("friedman", statistic, k - 1, tails.chi2_sf(statistic, k - 1))


def adjust_p(p_values, correction: str = BENJAMINI_HOCHBERG) -> list[float]:
    """Multiple-comparison adjustment selected by name, order preserved.

    Benjamini-Hochberg is the step-up false-discovery-rate adjustment;
    Bonferroni multiplies each p-value by their count; none returns them as
    floats. Every correction checks that the p-values lie in [0, 1].
    """
    if correction not in (BENJAMINI_HOCHBERG, BONFERRONI, NO_CORRECTION):
        raise StatsError(f"unknown correction {correction!r}")
    ps = [float(p) for p in p_values]
    if any(not 0.0 <= p <= 1.0 for p in ps):
        raise StatsError("p-values must lie in [0, 1]")
    m = len(ps)
    if correction == NO_CORRECTION:
        return ps
    if correction == BONFERRONI:
        return [min(1.0, m * p) for p in ps]
    order = sorted(range(m), key=lambda i: ps[i])
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, min(1.0, m * ps[idx] / rank))
        adjusted[idx] = running
    return adjusted


def benjamini_hochberg(p_values) -> list[float]:
    """Step-up false-discovery-rate adjustment, order preserved."""
    return adjust_p(p_values, BENJAMINI_HOCHBERG)


def dunn_posthoc(
    means,
    correction: str = BENJAMINI_HOCHBERG,
    treatment_ids: list[str] | None = None,
) -> list[PairwiseComparison]:
    """All-pairs Dunn z-tests on mean within-block ranks.

    mean_difference is the difference of the pair's column means in means, the
    imputed cell-mean grid, not of the observation means the summary tables quote.
    """
    grid = _check_grid("dunn_posthoc", means)
    n, k = grid.shape
    if treatment_ids is None:
        treatment_ids = [f"t{i + 1}" for i in range(k)]
    mean_ranks = _block_ranks(grid).mean(axis=0)
    col_means = grid.mean(axis=0)
    scale = math.sqrt(k * (k + 1) / (6.0 * n))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    zs = [(mean_ranks[i] - mean_ranks[j]) / scale for i, j in pairs]
    raw = [2.0 * tails.normal_sf(abs(z)) for z in zs]
    adjusted = adjust_p(raw, correction)
    return [
        PairwiseComparison(
            treatment_a=treatment_ids[i],
            treatment_b=treatment_ids[j],
            z=z,
            raw_p=p,
            adjusted_p=adj,
            mean_difference=float(col_means[i] - col_means[j]),
        )
        for (i, j), z, p, adj in zip(pairs, zs, raw, adjusted)
    ]


def _spearman_ranked(rx: np.ndarray, ry: np.ndarray) -> tuple[float, float]:
    """Rho and its t-approximation p-value from two checked rank vectors."""
    n = rx.size
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    rho = float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return rho, 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, 2.0 * tails.t_sf(abs(t), n - 2)


@dataclass(frozen=True)
class CorrelationEntry:
    # field order is the column order of correlations.csv
    series_a: str
    series_b: str
    rho: float
    raw_p: float
    adjusted_p: float


def spearman_battery(series: dict, correction: str = BENJAMINI_HOCHBERG) -> list[CorrelationEntry]:
    """Spearman rho, with its t-approximation p-value (df = n - 2), over every
    unordered pair of named series, jointly adjusted.

    Pairs are checked in order, and the first bad pair raises; each series is
    then ranked once and shared by its pairs.
    """
    names = list(series)
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    arrays = [np.asarray(series[name], dtype=float) for name in names]
    has_nan = [np.isnan(a).any() for a in arrays]
    # constant when no value lies below another (-0.0 ties 0.0); NaN is caught first
    constant = [a.size > 0 and not a.min() < a.max() for a in arrays]
    for i, j in pairs:
        if arrays[i].size != arrays[j].size:
            raise StatsError("inputs must have equal length")
        if arrays[i].size < 3:
            raise StatsError("spearman needs at least 3 points")
        if has_nan[i] or has_nan[j]:
            raise StatsError("spearman inputs must not be NaN")
        if constant[i] or constant[j]:
            raise StatsError("constant input: rho undefined")
    # one row at a time: the same kernel on the same rows, with no stacked copy
    ranks = [_block_ranks(a.reshape(1, -1))[0] for a in arrays] if pairs else []
    results = [_spearman_ranked(ranks[i], ranks[j]) for i, j in pairs]
    adjusted = adjust_p([p for _, p in results], correction)
    return [
        CorrelationEntry(names[i], names[j], rho, p, adj)
        for (i, j), (rho, p), adj in zip(pairs, results, adjusted)
    ]


# Shapiro-Wilk W via the Royston AS R94 approximation.
_SW_C1 = (0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.042981, -0.293762, -1.752461, 5.682633, -3.582633)


def _sw_poly(coeffs, u: float) -> float:
    """The terms c_i * u^(i+1) added left to right, which sum() on Python >= 3.12 does not do."""
    total = 0.0
    for i, c in enumerate(coeffs):
        total += c * u ** (i + 1)
    return total


def shapiro_wilk(sample) -> StatTestResult:
    xs = sorted(float(v) for v in sample)
    n = len(xs)
    if n < 3 or n > 5000:
        raise StatsError("shapiro_wilk supports 3 <= n <= 5000")
    if not all(map(math.isfinite, xs)):
        raise StatsError("shapiro_wilk needs finite values")
    if xs[0] == xs[-1]:
        raise StatsError("zero variance sample")

    # imported here: no run path calls shapiro_wilk, and statistics costs 4-6 ms to import
    from statistics import NormalDist
    ppf = NormalDist().inv_cdf
    m = np.array([ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    msq = float(m @ m)
    u = 1.0 / math.sqrt(n)
    weights = m / math.sqrt(msq)
    a_n = weights[-1] + _sw_poly(_SW_C1, u)
    if n > 5:
        a_n1 = weights[-2] + _sw_poly(_SW_C2, u)
        phi = (msq - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (1.0 - 2.0 * a_n ** 2 - 2.0 * a_n1 ** 2)
        a = m / math.sqrt(phi)
        a[-1], a[-2] = a_n, a_n1
        a[0], a[1] = -a_n, -a_n1
    elif n > 3:
        phi = (msq - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n ** 2)
        a = m / math.sqrt(phi)
        a[-1] = a_n
        a[0] = -a_n
    else:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])

    arr = np.array(xs)
    numerator = float(a @ arr) ** 2
    denominator = float(((arr - arr.mean()) ** 2).sum())
    w = numerator / denominator

    if n == 3:
        p = 1.90985931710274 * (math.asin(math.sqrt(w)) - 1.04719755119660)
        p = min(1.0, max(0.0, p))
        return StatTestResult("shapiro_wilk", w, None, p)
    if n <= 11:
        g = -2.273 + 0.459 * n
        y = -math.log(g - math.log1p(-w))
        mu = 0.5440 - 0.39978 * n + 0.025054 * n ** 2 - 0.0006714 * n ** 3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n ** 2 - 0.0020322 * n ** 3)
    else:
        ln_n = math.log(n)
        y = math.log1p(-w)
        mu = -1.5861 - 0.31082 * ln_n - 0.083751 * ln_n ** 2 + 0.0038915 * ln_n ** 3
        sigma = math.exp(-0.4803 - 0.082676 * ln_n + 0.0030302 * ln_n ** 2)
    z = (y - mu) / sigma
    return StatTestResult("shapiro_wilk", w, None, tails.normal_sf(z))


def levene(groups) -> StatTestResult:
    """Brown-Forsythe variant: one-way F on median-centered absolute deviations."""
    data = [np.asarray(g, dtype=float) for g in groups]
    k = len(data)
    if k < 2:
        raise StatsError("levene needs at least 2 groups")
    if any(g.size < 2 for g in data):
        raise StatsError("every group needs at least 2 values")
    if not all(np.isfinite(g).all() for g in data):
        raise StatsError("levene needs finite values")
    devs = [np.abs(g - np.median(g)) for g in data]
    sizes = np.array([d.size for d in devs])
    total = int(sizes.sum())
    group_means = np.array([d.mean() for d in devs])
    grand = float(np.concatenate(devs).mean())
    ss_between = float((sizes * (group_means - grand) ** 2).sum())
    ss_within = float(sum(((d - d.mean()) ** 2).sum() for d in devs))
    df = (k - 1, total - k)
    if ss_within == 0.0:
        if ss_between == 0.0:
            return StatTestResult("levene", 0.0, df, 1.0)
        return StatTestResult("levene", math.inf, df, 0.0)
    statistic = (ss_between / df[0]) / (ss_within / df[1])
    return StatTestResult("levene", statistic, df, tails.f_sf(statistic, *df))


@dataclass(frozen=True)
class DescriptiveStats:
    # field order is the column order of summaries.csv after metric and scope
    count: int
    mean: float
    std: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float


def descriptive_stats(values) -> DescriptiveStats:
    """Sample statistics with n-1 std and linearly interpolated quartiles.

    A single value reports std 0.0; count == 1 flags the convention.
    Accumulation uses exact summation so results are bit-identical under
    any permutation of the observations.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise StatsError("empty input")
    n = int(arr.size)
    try:
        mean = math.fsum(arr.tolist()) / n
        if n > 1:
            # libm pow, as Python's ** (x * x can differ in the last bit); a square
            # past the float range is inf, and an inf mean leaves NaN deviations
            with np.errstate(over="ignore", invalid="ignore"):
                squares = np.float_power(arr - mean, 2)
            std = math.sqrt(math.fsum(squares.tolist()) / (n - 1))
        else:
            std = 0.0
    except OverflowError as exc:
        # fsum raises when finite values sum past the largest float
        raise StatsError(
            f"values or their squared deviations sum past the largest float: {exc}") from exc
    except ValueError as exc:
        # fsum raises on inf + -inf, which has no sum
        raise StatsError(f"values hold both +inf and -inf: {exc}") from exc
    ordered = np.sort(arr)

    def quantile(p: float) -> float:
        pos = (n - 1) * p
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if math.isinf(ordered[lo]):
            # -inf, or inf shared with the upper neighbour: where inf - inf has no value
            return float(ordered[lo])
        return float(ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]))

    return DescriptiveStats(
        count=n,
        mean=mean,
        std=std,
        minimum=float(ordered[0]),
        q25=quantile(0.25),
        median=quantile(0.50),
        q75=quantile(0.75),
        maximum=float(ordered[-1]),
    )


@dataclass
class MetricBattery:
    """Friedman + conditional Dunn post-hoc for one metric's score matrix."""

    metric: str
    friedman: StatTestResult
    alpha: float
    correction: str
    audit: list[str] = field(default_factory=list)

    @property
    def significant_pairs(self) -> list[PairwiseComparison]:
        if self.friedman.pairwise is None:
            return []
        return [p for p in self.friedman.pairwise if p.adjusted_p < self.alpha]


def run_metric_battery(
    matrix: ScoreMatrix,
    alpha: float = DEFAULT_ALPHA,
    correction: str = BENJAMINI_HOCHBERG,
) -> MetricBattery:
    """The omnibus-then-posthoc procedure for one metric."""
    grid, audit = prepare_cell_means(matrix)
    result = friedman(grid)
    if result.p_value < alpha:
        result.pairwise = dunn_posthoc(grid, correction, list(matrix.treatment_ids))
    else:
        result.pairwise = []
    return MetricBattery(matrix.metric, result, alpha, correction, audit)
