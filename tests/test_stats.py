import math

import mpmath
import numpy as np
import pytest

from muscletract.errors import ArityError, DegenerateDistributionError
from muscletract.stats import (
    BlandAltman,
    bland_altman,
    betainc_regularized,
    percent_diff,
    skewness,
    t_one_sample,
    t_paired,
    t_two_tailed_p,
)

mpmath.mp.dps = 40


def quadrature_two_tailed_p(t, df):
    """Numerical integration of the Student-t density (independent oracle)."""
    df = mpmath.mpf(df)
    norm = mpmath.gamma((df + 1) / 2) / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))

    def pdf(x):
        return norm * (1 + x * x / df) ** (-(df + 1) / 2)

    tail = mpmath.quad(pdf, [abs(t), mpmath.inf])
    return float(2 * tail)


def moment_skewness(values):
    """Direct moment-formula oracle in plain Python."""
    n = len(values)
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values) / n
    m3 = sum((v - mean) ** 3 for v in values) / n
    return (m3 / m2**1.5) * math.sqrt(n * (n - 1)) / (n - 2)


class TestSkewness:
    def test_symmetric_zero(self):
        assert skewness([-1.0, 0.0, 1.0]) == 0.0

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-5, 5, 20)
        assert skewness(-x) == -skewness(x)

    def test_matches_moment_oracle(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        assert skewness(values) == pytest.approx(moment_skewness(values), abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            skewness([2.0, 2.0, 2.0])
        with pytest.raises(DegenerateDistributionError):
            skewness([1.0, 2.0])


class TestTTestPValues:
    FIXED_DATASETS = [
        (0.5, 4), (1.0, 4), (2.0, 4), (3.5, 4),
        (0.7, 9), (1.3, 9), (2.4, 9), (4.1, 9),
        (0.2, 11), (1.9, 11), (2.8, 11), (5.5, 11),
        (0.9, 19), (1.7, 19), (3.3, 19), (6.0, 19),
        (1.1, 30), (2.2, 30), (0.05, 2), (8.0, 2),
    ]

    def test_matches_quadrature_oracle(self):
        for t, df in self.FIXED_DATASETS:
            want = quadrature_two_tailed_p(t, df)
            assert t_two_tailed_p(t, df) == pytest.approx(want, abs=1e-10)
            assert t_two_tailed_p(-t, df) == pytest.approx(want, abs=1e-10)

    def test_matches_mpmath_betainc(self):
        for t, df in self.FIXED_DATASETS:
            x = df / (df + t * t)
            want = float(mpmath.betainc(df / 2, 0.5, 0, x, regularized=True))
            assert betainc_regularized(df / 2, 0.5, x) == pytest.approx(want, abs=1e-12)

    def test_p_of_zero_is_one(self):
        for df in (1, 5, 30):
            assert abs(t_two_tailed_p(0.0, df) - 1.0) < 1e-10

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t = float(rng.uniform(-10, 10))
            df = int(rng.integers(1, 50))
            assert 0.0 <= t_two_tailed_p(t, df) <= 1.0


class TestPairedT:
    def test_identical_lists(self):
        res = t_paired([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0
        assert res.p == 1.0
        assert res.df == 2
        assert not res.degenerate

    def test_constant_nonzero_difference_degenerate(self):
        res = t_paired([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0])
        assert res.degenerate
        assert math.isinf(res.t)
        assert res.p is None

    def test_fixed_ten_pairs_against_quadrature(self):
        a = [12.1, 10.3, 14.2, 11.8, 13.0, 9.7, 12.5, 11.1, 10.9, 13.6]
        b = [11.4, 10.9, 13.1, 11.2, 12.2, 10.5, 11.8, 11.5, 10.1, 12.9]
        res = t_paired(a, b)
        d = np.array(a) - np.array(b)
        want_t = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
        assert res.t == pytest.approx(want_t, rel=1e-12)
        assert res.p == pytest.approx(quadrature_two_tailed_p(want_t, 9), abs=1e-8)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(0, 1, 12), rng.normal(0.4, 1, 12)
        r1, r2 = t_paired(a, b), t_paired(b, a)
        assert r1.t == -r2.t
        assert r1.p == r2.p

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(0, 1, 10), rng.normal(0.2, 1, 10)
        r1, r2 = t_paired(a, b), t_paired(a + 100.0, b + 100.0)
        assert r1.t == pytest.approx(r2.t, rel=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ArityError):
            t_paired([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ArityError):
            t_paired([1.0], [2.0])


class TestOneSampleT:
    def test_symmetric_about_mu0(self):
        assert t_one_sample([1.0, 2.0, 3.0], 2.0).t == 0.0

    def test_far_mu0_significant(self):
        rng = np.random.default_rng(5)
        x = rng.normal(10.0, 1.0, 12)
        res = t_one_sample(x, 10.0 - 4 * x.std(ddof=1))
        assert res.t > 0
        assert res.p < 0.05

    def test_r2_list_against_quadrature(self):
        x = [0.93, 0.95, 0.97]
        res = t_one_sample(x, 0.9)
        v = np.array(x)
        want_t = (v.mean() - 0.9) / (v.std(ddof=1) / math.sqrt(3))
        assert res.t == pytest.approx(want_t, rel=1e-12)
        assert res.p == pytest.approx(quadrature_two_tailed_p(want_t, 2), abs=1e-8)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(3.0, 1.0, 15)
        r1 = t_one_sample(x, 2.5)
        r2 = t_one_sample(x + 50.0, 52.5)
        assert r1.t == pytest.approx(r2.t, rel=1e-9)


class TestBlandAltman:
    def test_identical_lists_collapse(self):
        ba = bland_altman([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert ba.mean_diff == 0.0
        assert ba.sd_diff == 0.0
        assert ba.loa_low == ba.loa_high == 0.0
        assert ba.ci_low == ba.ci_high == 0.0

    def test_constant_offset(self):
        ba = bland_altman([3.0, 4.0, 5.0], [1.0, 2.0, 3.0])
        assert ba.mean_diff == pytest.approx(2.0)
        assert ba.sd_diff == 0.0

    def test_fields_match_direct_recomputation(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(10, 2, 14), rng.normal(9, 2, 14)
        ba = bland_altman(a, b)
        d = a - b
        assert ba.mean_diff == a.mean() - b.mean()
        assert ba.sd_diff == pytest.approx(d.std(ddof=1), rel=1e-12)
        assert ba.loa_low == pytest.approx(ba.mean_diff - 1.96 * ba.sd_diff, rel=1e-12)
        assert ba.loa_high == pytest.approx(ba.mean_diff + 1.96 * ba.sd_diff, rel=1e-12)
        assert np.array_equal(ba.diffs, d)
        assert np.array_equal(ba.means, (a + b) / 2)

    def test_mean_diff_identity_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = rng.normal(0, 3, 9), rng.normal(1, 3, 9)
            ba = bland_altman(a, b)
            assert ba.mean_diff == a.mean() - b.mean()

    def test_loa_brackets_mean(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(0, 1, 20), rng.normal(0, 1, 20)
        ba = bland_altman(a, b)
        assert ba.loa_low <= ba.mean_diff <= ba.loa_high
        assert ba.ci_low <= ba.mean_diff <= ba.ci_high
        # limits of agreement are wider than the CI of the mean for n > 1
        assert ba.loa_high - ba.loa_low > ba.ci_high - ba.ci_low


class TestPercentDiff:
    def test_equal_is_zero(self):
        assert percent_diff([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_ten_percent(self):
        b = np.array([2.0, 4.0, 8.0])
        assert percent_diff(1.1 * b, b) == pytest.approx(10.0, rel=1e-12)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(12)
        a, b = rng.uniform(5, 10, 8), rng.uniform(5, 10, 8)
        want = float(np.mean(100 * (a - b) / b))
        assert percent_diff(a, b) == pytest.approx(want, rel=1e-12)

    def test_zero_reference_excluded_with_warning(self):
        with pytest.warns(RuntimeWarning):
            got = percent_diff([1.0, 2.0, 3.0], [0.0, 2.0, 3.0])
        assert got == 0.0
