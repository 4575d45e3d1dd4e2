"""Tail-probability primitives against independent high-precision oracles."""

import math

import mpmath as mp
import pytest

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
