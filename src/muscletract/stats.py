"""Statistical comparison of sampling methods.

The two-tailed t-test p-values run on a self-contained Student-t CDF built
from the regularized incomplete beta function (Lentz continued fraction;
absolute error well below 1e-10), so no external statistics dependency is
needed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DegenerateDistributionError

log = logging.getLogger(__name__)

_MAX_ITER = 400
_EPS = 1e-16
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz's method for the incomplete beta continued fraction.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
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
            return h
    return h


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_tailed_p(t: float, df: int) -> float:
    """Two-tailed p-value of a Student-t statistic with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return betainc_regularized(df / 2.0, 0.5, x)


def _values(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if not np.isfinite(arr).all():
        raise DegenerateDistributionError(f"{name} contain non-finite entries")
    return arr


def _paired(a, b) -> tuple[np.ndarray, np.ndarray]:
    va, vb = _values(a, "first sample"), _values(b, "second sample")
    if len(va) != len(vb):
        raise ArityError(f"paired samples differ in length: {len(va)} vs {len(vb)}")
    if len(va) < 2:
        raise ArityError("paired samples need at least 2 cases")
    return va, vb


@dataclass
class TTestResult:
    t: float
    p: float | None


def t_paired(a, b) -> TTestResult:
    """Two-tailed paired t-test: t = mean(d) / (sd(d)/sqrt(n)), df = n - 1.

    Identical lists give t = 0, p = 1. A nonzero mean difference with zero
    variance gives t = +-inf and p None: no p-value is fabricated.
    """
    va, vb = _paired(a, b)
    d = va - vb
    n = len(d)
    sd = float(d.std(ddof=1))
    mean = float(d.mean())
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0)
        return TTestResult(math.copysign(math.inf, mean), None)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t, t_two_tailed_p(t, n - 1))


@dataclass
class BlandAltman:
    """Agreement summary: mean difference and the 1.96*sd limits of
    agreement."""

    mean_diff: float
    loa_low: float
    loa_high: float


def bland_altman(a, b) -> BlandAltman:
    va, vb = _paired(a, b)
    mean_diff = float(va.mean()) - float(vb.mean())
    sd = float((va - vb).std(ddof=1))
    return BlandAltman(mean_diff, mean_diff - 1.96 * sd, mean_diff + 1.96 * sd)


def percent_diff(a, b) -> float:
    """Mean of 100 * (a - b) / b over paired cases; zero-b cases are excluded
    and logged, and with none left the result is NaN."""
    va, vb = _paired(a, b)
    ok = vb != 0.0
    if not ok.all():
        log.warning("percent_diff: excluded %d case(s) with zero reference value", int((~ok).sum()))
    if not ok.any():
        return math.nan
    return float((100.0 * (va[ok] - vb[ok]) / vb[ok]).mean())
