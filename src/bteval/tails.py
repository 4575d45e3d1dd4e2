"""Tail probabilities for the chi-square, normal, t, and F distributions.

Everything is built from three primitives: the regularized upper
incomplete gamma function (series below the a+1 switchover, continued
fraction above), the complementary error function (that gamma at a = 1/2,
and 2 - erfc(-x) below zero), and the regularized incomplete beta function
(continued fraction, with the symmetry switch at x = (a+1)/(a+2)). One
modified Lentz evaluator serves both continued fractions. Accuracy is
roughly 1e-12 over the parameter ranges a rank test ever produces.
"""

from __future__ import annotations

import math

_MAX_ITER = 500
_EPS = 1e-15
_TINY = 1e-300


def _off_zero(v: float) -> float:
    """v, or _TINY where it is too close to zero to divide by; NaN passes through."""
    return _TINY if abs(v) < _TINY else v


def _lentz(h: float, c: float, d: float, steps) -> float:
    """A continued fraction by the modified Lentz method (Thompson & Barnett 1986).

    ``h``, ``c`` and ``d`` are the method's start values. Each step of ``steps``
    is a tuple of ``(a, b)`` partial terms, and convergence is tested after a
    step's last term.
    """
    for step in steps:
        for a, b in step:
            d = 1.0 / _off_zero(b + a * d)
            c = _off_zero(b + a / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _gamma_series(a: float, x: float) -> float:
    """The power series of P(a, x) over its prefactor; converges fast for x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total


def _gamma_cf(a: float, x: float) -> float:
    """The continued fraction of Q(a, x) over its prefactor; for x >= a + 1."""
    def steps(b):
        for i in range(1, _MAX_ITER):
            b += 2.0  # a running sum: b0 + 2*i rounds differently
            yield ((-i * (i - a), b),)

    b = x + 1.0 - a
    return _lentz(1.0 / b, 1.0 / _TINY, 1.0 / b, steps(b))


def reg_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), computed on whichever side converges."""
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    front = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        return 1.0 - front * _gamma_series(a, x)
    return front * _gamma_cf(a, x)


def erfc(x: float) -> float:
    if x < 0.0:
        return 2.0 - erfc(-x)
    return 1.0 if x == 0.0 else reg_upper_gamma(0.5, x * x)  # NaN stays NaN


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta; an even and an odd term per step."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    steps = (((m * (b - m) * x / ((qam + 2 * m) * (a + 2 * m)), 1.0),
              (-(a + m) * (qab + m) * x / ((a + 2 * m) * (qap + 2 * m)), 1.0))
             for m in range(1, _MAX_ITER))
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    return _lentz(d, 1.0, d, steps)


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
