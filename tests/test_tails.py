"""Tail-probability primitives against independent high-precision oracles."""

import math
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from bteval import tails

mp.mp.dps = 40

CHI2_GRID = [(x, df) for df in (1, 2, 3, 4, 10, 30, 88, 534)
             for x in (0.05, 0.5, 1.0, 2.0, 5.0, 8.0, 20.0, 60.0, 150.0)]
T_GRID = [(t, df) for df in (1, 2, 5, 30, 87, 443, 1333)
          for t in (0.0, 0.2, 0.5, 1.0, 2.0, 3.5, 6.0, 12.0)]
F_GRID = [(f, d1, d2) for d1, d2 in ((1, 10), (2, 20), (4, 440), (5, 100), (10, 5))
          for f in (0.05, 0.5, 1.0, 2.5, 4.0, 10.0)]
Z_GRID = [-8.0, -4.0, -2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0, 4.0, 8.0]


@pytest.mark.parametrize("x,df", CHI2_GRID)
def test_chi2_sf_matches_series_oracle(x, df):
    expected = float(mp.gammainc(df / 2, x / 2, mp.inf, regularized=True))
    assert tails.chi2_sf(x, df) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("z", Z_GRID)
def test_normal_sf_matches_erfc_oracle(z):
    expected = float(0.5 * mp.erfc(z / mp.sqrt(2)))
    assert tails.normal_sf(z) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("t,df", T_GRID)
def test_t_sf_matches_beta_oracle(t, df):
    expected = float(mp.betainc(df / 2, mp.mpf(1) / 2, 0, df / (df + t * t),
                                regularized=True) / 2)
    assert tails.t_sf(t, df) == pytest.approx(expected, abs=1e-8)
    assert tails.t_sf(-t, df) == pytest.approx(1.0 - expected, abs=1e-8)


@pytest.mark.parametrize("f,d1,d2", F_GRID)
def test_f_sf_matches_beta_oracle(f, d1, d2):
    expected = float(mp.betainc(d2 / 2, d1 / 2, 0, d2 / (d2 + d1 * f), regularized=True))
    assert tails.f_sf(f, d1, d2) == pytest.approx(expected, abs=1e-8)


def test_gamma_series_cf_switchover_continuity():
    # both branches meet at x = a + 1 without a jump
    for a in (0.5, 1.0, 3.5, 44.0):
        x = a + 1.0
        below = tails.reg_upper_gamma(a, x - 1e-9)
        above = tails.reg_upper_gamma(a, x + 1e-9)
        assert below == pytest.approx(above, abs=1e-7)


def test_erf_symmetry_and_complement():
    # erfc(-x) = 2 - erfc(x), i.e. erf is odd and erf + erfc = 1
    assert tails.erfc(0.0) == 1.0
    for x in (0.3, 1.0, 2.5):
        assert tails.erfc(-x) + tails.erfc(x) == pytest.approx(2.0, abs=1e-12)
        assert tails.normal_sf(-x) + tails.normal_sf(x) == pytest.approx(1.0, abs=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        tails.chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        tails.reg_inc_beta(1.0, 1.0, 1.5)


def test_edge_values():
    assert tails.chi2_sf(0.0, 5) == 1.0
    assert tails.f_sf(0.0, 2, 10) == 1.0
    assert tails.reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert tails.reg_inc_beta(2.0, 3.0, 1.0) == 1.0
    assert math.isclose(tails.normal_sf(0.0), 0.5)
    assert math.isnan(tails.erfc(math.nan)) and math.isnan(tails.normal_sf(math.nan))


# The evaluators as they stood before one modified-Lentz routine served both continued
# fractions, kept verbatim: the oracle that every tail stays bit-for-bit the same.
_MAX_ITER = 500
_EPS = 1e-15
_TINY = 1e-300


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized gamma P(a, x) by power series; converges fast for x < a + 1."""
    if x <= 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    """Upper regularized gamma Q(a, x) by modified Lentz continued fraction; for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def reg_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), computed on whichever side converges."""
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), switching to the symmetric tail when x > (a+1)/(a+2)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


LOG_UNIFORM = st.floats(math.log(1e-3), math.log(1e4)).map(math.exp)
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310])
SHAPE = st.one_of(LOG_UNIFORM, st.integers(1, 5000).map(float), SPECIAL)


@st.composite
def tail_cases(draw):
    """(a, b, x, y): shapes, a gamma argument at or beside the a + 1 switchover, and a
    beta argument at or beside the (a + 1) / (a + b + 2) one."""
    a, b = draw(SHAPE), draw(SHAPE)
    x = draw(st.one_of(st.sampled_from([a + 1.0 - 1e-9, a + 1.0, a + 1.0 + 1e-9]),
                       LOG_UNIFORM, SPECIAL))
    y = draw(st.one_of(st.just((a + 1.0) / (a + b + 2.0)),
                       st.floats(0.0, 1.0), SPECIAL))
    return a, b, x, y


def outcome(function, *args):
    """The exact bits of function(*args), or the name of the exception it raises."""
    try:
        return function(*args).hex()
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__


# statistics of the seed-7 89x5x3 noise-mock run: Friedman's chi-square on 4 df,
# Spearman's t on 1333 df, and Dunn's z at the smallest and largest pair
@example((4.0, 0.5, 341.23146067415746, 0.5))
@example((4.0, 0.5, 320.85393258426984, 0.5))
@example((1333.0, 0.5, 313.62796695486986, 1333.0 / (1333.0 + 313.62796695486986 ** 2)))
@example((1333.0, 0.5, 59.71751685181473, 1333.0 / (1333.0 + 59.71751685181473 ** 2)))
@example((0.5, 0.5, 2.796868232525866, 0.5))
@example((0.5, 0.5, 16.259759385701223, 0.5))
@given(tail_cases())
@settings(max_examples=400, deadline=None)
def test_tails_are_bit_identical_to_the_pre_lentz_oracle(case):
    a, b, x, y = case
    calls = [("reg_upper_gamma", (a, x)), ("reg_inc_beta", (a, b, y)),
             ("reg_inc_beta", (b, a, y)), ("erfc", (x,)), ("erfc", (-x,)),
             ("normal_sf", (x,)), ("normal_sf", (-x,)), ("chi2_sf", (x, a)),
             ("t_sf", (x, a)), ("t_sf", (-x, a)), ("f_sf", (x, a, b))]
    got = [outcome(getattr(tails, name), *args) for name, args in calls]
    # the distribution tails are unchanged; under the oracle primitives they are the old ones
    with mock.patch.object(tails, "reg_upper_gamma", reg_upper_gamma), \
            mock.patch.object(tails, "reg_inc_beta", reg_inc_beta):
        expected = [outcome(getattr(tails, name), *args) for name, args in calls]
    assert got == expected


def test_off_zero_lifts_only_near_zero_values_and_passes_nan():
    assert tails._off_zero(0.0) == tails._off_zero(-1e-301) == tails._TINY
    assert tails._off_zero(-2e-300) == -2e-300 and tails._off_zero(math.inf) == math.inf
    assert math.isnan(tails._off_zero(math.nan))
