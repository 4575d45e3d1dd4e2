"""Tail probabilities for the chi-square, normal, t, and F distributions.

Everything is built from three primitives: the regularized upper
incomplete gamma function (series below the a+1 switchover, Lentz continued
fraction above), the complementary error function (that gamma at a = 1/2,
and 2 - erfc(-x) below zero), and the regularized incomplete beta function
(continued fraction, with the symmetry switch at x = (a+1)/(a+2)). Accuracy
is roughly 1e-12 over the parameter ranges a rank test ever produces.
"""

from __future__ import annotations

import math

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


def erfc(x: float) -> float:
    if x < 0.0:
        return 2.0 - erfc(-x)
    return 1.0 if x == 0.0 else reg_upper_gamma(0.5, x * x)  # NaN stays NaN


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


def chi2_sf(x: float, df: float) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    return reg_upper_gamma(df / 2.0, x / 2.0)


def normal_sf(z: float) -> float:
    """Upper-tail probability of the standard normal distribution."""
    return 0.5 * erfc(z / math.sqrt(2.0))


def t_sf(t: float, df: float) -> float:
    """Upper-tail probability of Student's t distribution."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    p = 0.5 * reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))
    return p if t >= 0.0 else 1.0 - p


def f_sf(f: float, df1: float, df2: float) -> float:
    """Upper-tail probability of the F distribution."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    return reg_inc_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))
