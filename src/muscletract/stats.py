"""Statistical comparison of sampling methods.

The two-tailed t-test p-values run on a self-contained Student-t CDF built
from the regularized incomplete beta function (Lentz continued fraction;
absolute error well below 1e-10), so no external statistics dependency is
needed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DegenerateDistributionError

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


def t_cdf(t: float, df: int) -> float:
    p = t_two_tailed_p(t, df)
    return 1.0 - p / 2.0 if t > 0 else p / 2.0


def t_quantile(p: float, df: int) -> float:
    """Inverse t CDF by bisection on t_cdf (sufficient for CI bands)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    lo, hi = -1e3, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    df: int
    p: float | None
    degenerate: bool = False


def t_paired(a, b) -> TTestResult:
    """Two-tailed paired t-test: t = mean(d) / (sd(d)/sqrt(n)), df = n - 1.

    Identical lists give t = 0, p = 1. Nonzero mean difference with zero
    variance is flagged degenerate; no p-value is fabricated.
    """
    va, vb = _paired(a, b)
    d = va - vb
    n = len(d)
    sd = float(d.std(ddof=1))
    mean = float(d.mean())
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, n - 1, 1.0)
        return TTestResult(math.copysign(math.inf, mean), n - 1, None, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t, n - 1, t_two_tailed_p(t, n - 1))


@dataclass
class BlandAltman:
    """Agreement summary: mean difference, its spread, the 1.96*sd limits of
    agreement, and the 95% CI of the mean difference (t-based), plus the
    per-case (mean, diff) pairs."""

    mean_diff: float
    sd_diff: float
    loa_low: float
    loa_high: float
    ci_low: float
    ci_high: float
    means: np.ndarray
    diffs: np.ndarray


def bland_altman(a, b) -> BlandAltman:
    va, vb = _paired(a, b)
    diffs = va - vb
    means = (va + vb) / 2.0
    mean_diff = float(va.mean()) - float(vb.mean())
    sd = float(diffs.std(ddof=1))
    n = len(diffs)
    half_ci = t_quantile(0.975, n - 1) * sd / math.sqrt(n) if sd > 0 else 0.0
    return BlandAltman(
        mean_diff=mean_diff,
        sd_diff=sd,
        loa_low=mean_diff - 1.96 * sd,
        loa_high=mean_diff + 1.96 * sd,
        ci_low=mean_diff - half_ci,
        ci_high=mean_diff + half_ci,
        means=means,
        diffs=diffs,
    )


def percent_diff(a, b) -> float:
    """Mean of 100 * (a - b) / b over paired cases; zero-b cases are excluded
    with a warning."""
    va, vb = _paired(a, b)
    ok = vb != 0.0
    if not ok.all():
        warnings.warn(
            f"percent_diff: excluded {int((~ok).sum())} case(s) with zero reference value",
            RuntimeWarning,
            stacklevel=2,
        )
    if not ok.any():
        raise DegenerateDistributionError("no cases with nonzero reference value")
    return float((100.0 * (va[ok] - vb[ok]) / vb[ok]).mean())
