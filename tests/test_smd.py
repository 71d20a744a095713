import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from smdmeta.numkernel import DomainError, RandomStream
from smdmeta.qstat import MetaBatch
from smdmeta.smd import (ArmSummary, Study, b_factor, g_variance, hedges_g,
                         j_factor, sample_g)


class TestJFactor:
    def test_m2(self):
        assert j_factor(2) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)

    def test_m10(self):
        expect = gamma_fn(5.0) / (math.sqrt(5.0) * gamma_fn(4.5))
        assert j_factor(10) == pytest.approx(expect, rel=1e-12)
        assert j_factor(10) == pytest.approx(0.9227456, abs=1e-7)

    def test_monotone_increasing_below_one(self):
        vals = [j_factor(m) for m in range(2, 400)]
        assert all(0 < v < 1 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_m_approximation_quality(self):
        for m in range(20, 2000, 37):
            assert abs(j_factor(m) - (1 - 3 / (4 * m - 1))) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            j_factor(1)
        with pytest.raises(DomainError):
            b_factor(1)

    def test_j_and_b_match_50_digit_values(self):
        # b = 1 - (m-2)/(m J^2) is about 1/(2m): in double precision that
        # form keeps only ~16 - log10(2m) digits, so compare to mpmath
        ms = [*range(3, 3001), *np.geomspace(3001, 1e7, 60).astype(int)]
        with mpmath.workdps(50):
            for m in map(int, ms):
                x = mpmath.mpf(m)
                j = mpmath.exp(mpmath.loggamma(x / 2) - mpmath.log(x / 2) / 2
                               - mpmath.loggamma((x - 1) / 2))
                b = 1 - (x - 2) / (x * j * j)
                assert abs(j_factor(m) / j - 1) <= 2e-14, m
                assert abs(b_factor(m) / b - 1) <= 5e-12, m

    def test_b_at_m2_is_one(self):
        assert b_factor(2) == 1.0


class TestGVariance:
    def test_zero_g(self):
        assert g_variance(0.0, 10, 10) == pytest.approx(0.2, abs=1e-14)

    def test_plugin_case(self):
        j2 = j_factor(18) ** 2
        expect = 0.2 + (1 - 16 / (18 * j2))
        assert g_variance(1.0, 10, 10) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.2309, abs=2e-4)

    def test_increasing_in_abs_g(self):
        vals = [g_variance(g, 7, 12) for g in (0.0, 0.4, -0.9, 1.5, -2.5)]
        assert vals == sorted(vals)
        assert all(v >= 19 / 84 for v in vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            g_variance(1.0, 2, 2)


class TestHedgesG:
    def test_equal_means_zero(self):
        s = hedges_g(ArmSummary(8, 3.0, 1.1), ArmSummary(9, 3.0, 0.9))
        assert s.g == 0.0

    def test_unit_case(self):
        s = hedges_g(ArmSummary(10, 1.0, 1.0), ArmSummary(10, 0.0, 1.0))
        assert s.g == pytest.approx(j_factor(18), rel=1e-12)
        assert s.g == pytest.approx(0.9577, abs=2e-4)
        assert s.v2 == pytest.approx(g_variance(s.g, 10, 10), rel=1e-14)

    def test_scale_equivariance(self):
        a = hedges_g(ArmSummary(12, 2.0, 1.0), ArmSummary(15, 1.0, 1.2))
        b = hedges_g(ArmSummary(12, 2.0, 2.0), ArmSummary(15, 1.0, 2.4))
        assert b.g == pytest.approx(a.g / 2, rel=1e-12)

    def test_degenerate_variance(self):
        with pytest.raises(DomainError):
            hedges_g(ArmSummary(5, 1.0, 0.0), ArmSummary(5, 0.0, 0.0))


class TestStudy:
    def test_validation(self):
        with pytest.raises(DomainError):
            Study(1, 10, 0.0, 1.0)
        with pytest.raises(DomainError):
            Study(10, 10, 0.0, 0.0)

    @pytest.mark.parametrize("g, v2", [(math.nan, 1.0), (math.inf, 1.0),
                                       (0.0, math.inf), (0.0, math.nan)])
    def test_rejects_non_finite(self, g, v2):
        with pytest.raises(DomainError):
            Study(10, 10, g, v2)

    @pytest.mark.parametrize("mean, sd", [(math.nan, 1.0), (-math.inf, 1.0),
                                          (0.0, math.inf), (0.0, math.nan)])
    def test_arm_rejects_non_finite(self, mean, sd):
        with pytest.raises(DomainError):
            ArmSummary(10, mean, sd)

    def test_effective_size(self):
        # a batch's effective sizes n_t n_c / (n_t + n_c), one per study
        two = MetaBatch.of((Study(5, 15, 0.0, 1.0), Study(5, 15, 0.0, 1.0)))
        assert two.eff_n == pytest.approx([3.75, 3.75])
        # matches n q (1 - q) for q = n_c / n
        n, q = 20, 0.75
        n_t = math.ceil((1 - q) * n)
        two = MetaBatch.of([Study(n_t, n - n_t, 0.0, 1.0)] * 2)
        assert two.eff_n == pytest.approx([n * q * (1 - q)] * 2)


class TestSampleG:
    def test_reproducible(self):
        s = RandomStream(3, 8)
        assert sample_g(s.generator(), 10, 10, 0.7) == \
            sample_g(s.generator(), 10, 10, 0.7)

    @pytest.mark.parametrize("n_t,n_c", [(10, 10), (3, 9)])
    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0])
    def test_unbiased(self, n_t, n_c, delta):
        gen = RandomStream(101, hash((n_t, n_c, delta)) % 2**32).generator()
        n = 100_000
        draws = np.array([sample_g(gen, n_t, n_c, delta).g for _ in range(n)])
        se = draws.std(ddof=1) / math.sqrt(n)
        assert draws.mean() == pytest.approx(delta, abs=4 * se)

    def test_variance_populated(self):
        s = sample_g(RandomStream(4, 4).generator(), 6, 14, 0.2)
        assert s.v2 == pytest.approx(g_variance(s.g, 6, 14), rel=1e-14)
