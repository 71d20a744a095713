import math

import numpy as np
import pytest

from smdmeta.effect import (
    ci_hksj,
    ci_ssw_kdb,
    ci_z,
    effect_iv,
    effect_ssw,
    ssw_variance,
)
from smdmeta.numkernel import normal_quantile, t_quantile
from smdmeta.qstat import MetaInput
from smdmeta.smd import Study
from smdmeta.tau2 import Tau2Result, corrected_expected_q, tau2_dl, tau2_kdb


def meta(gs, v2s, n=20):
    n_t = n // 2
    return MetaInput(tuple(Study(n_t, n - n_t, g, v) for g, v in zip(gs, v2s)))


def kdb_at(tau2):
    return Tau2Result(tau2, "KDB", "interior")


def kdb_of(data):
    return tau2_kdb(data, corrected_expected_q(data))


TWO = meta([0.0, 2.0], [1.0, 1.0])


class TestEffectIV:
    def test_equal_variance_average(self):
        r = effect_iv(TWO, Tau2Result(0.7, "DL", "interior"))
        assert r.value == pytest.approx(1.0, rel=1e-14)

    def test_hand_case(self):
        data = meta([0.0, 1.0], [1.0, 3.0])
        r = effect_iv(data, Tau2Result(1.0, "MP", "interior"))
        assert r.value == pytest.approx(1 / 3, rel=1e-14)
        assert r.variance == pytest.approx(4 / 3, rel=1e-14)

    def test_weight_rescaling_invariance(self):
        data = meta([0.2, 0.9, -0.3], [0.5, 1.0, 2.0])
        a = effect_iv(data, Tau2Result(0.0, "DL", "truncated_at_zero"))
        scaled = meta([0.2, 0.9, -0.3], [1.5, 3.0, 6.0])
        b = effect_iv(scaled, Tau2Result(0.0, "DL", "truncated_at_zero"))
        assert b.value == pytest.approx(a.value, rel=1e-12)


class TestSSW:
    def test_plain_average_when_sizes_equal(self):
        r = effect_ssw(TWO, kdb_at(0.0))
        assert r.value == pytest.approx(1.0, rel=1e-14)

    def test_weighting_by_effective_size(self):
        data = MetaInput((Study(6, 6, 1.0, 0.2), Study(42, 42, 2.0, 0.2)))
        r = effect_ssw(data, kdb_at(0.0))
        assert r.value == pytest.approx((3 * 1.0 + 21 * 2.0) / 24, rel=1e-14)

    def test_point_never_depends_on_variances_or_tau2(self):
        a = MetaInput((Study(6, 6, 1.0, 0.2), Study(42, 42, 2.0, 0.2)))
        b = MetaInput((Study(6, 6, 1.0, 5.0), Study(42, 42, 2.0, 0.01)))
        assert effect_ssw(a, kdb_at(0.0)).value == \
            effect_ssw(b, kdb_at(3.0)).value

    def test_default_variance_uses_kdb(self):
        data = meta([0.1, 0.8, -0.2, 1.4], [0.3, 0.5, 0.4, 0.6])
        kdb = kdb_of(data).value
        r = effect_ssw(data, kdb_of(data))
        assert r.variance == pytest.approx(ssw_variance(data, kdb), rel=1e-12)


class TestSSWVariance:
    def test_hand_case(self):
        data = MetaInput((Study(6, 6, 0.0, 0.2), Study(42, 42, 0.0, 0.2)))
        assert ssw_variance(data, 0.0) == pytest.approx(90 / 576, rel=1e-14)

    def test_linear_in_tau2(self):
        data = MetaInput((Study(6, 6, 0.0, 0.2), Study(42, 42, 0.0, 0.2)))
        en2 = (3.0**2 + 21.0**2) / 24.0**2
        d = 0.75
        assert ssw_variance(data, d) - ssw_variance(data, 0.0) == \
            pytest.approx(d * en2, rel=1e-12)


class TestCiZ:
    def test_hand_case(self):
        ci = ci_z(TWO, effect_iv(TWO, tau2_dl(TWO)))
        assert tau2_dl(TWO).value == pytest.approx(1.0)
        assert ci.center == pytest.approx(1.0)
        assert ci.half_width == pytest.approx(1.959964, abs=1e-6)

    def test_level_quantile(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


class TestCiHKSJ:
    def test_df1_half_width(self):
        ci = ci_hksj(TWO, effect_iv(TWO, Tau2Result(1.0, "DL", "interior")))
        assert ci.center == pytest.approx(1.0)
        assert ci.half_width == pytest.approx(t_quantile(0.975, 1), rel=1e-10)
        assert ci.half_width == pytest.approx(12.7062, abs=1e-4)
        assert ci.method == "HKSJ"

    def test_degenerate_flagged(self):
        flat = meta([0.4, 0.4, 0.4], [1.0, 0.5, 2.0])
        ci = ci_hksj(flat, effect_iv(flat, tau2_dl(flat)))
        assert ci.half_width == 0.0
        assert "degenerate" in ci.flags

    def test_equal_variance_half_width_free_of_tau2(self):
        data = meta([0.1, 0.9, -0.5, 1.2], [0.8, 0.8, 0.8, 0.8])
        a = ci_hksj(data, effect_iv(
            data, Tau2Result(0.0, "DL", "truncated_at_zero")))
        b = ci_hksj(data, effect_iv(data, Tau2Result(2.5, "KDB", "interior")))
        assert a.half_width == pytest.approx(b.half_width, rel=1e-12)
        assert b.method == "HKSJ-KDB"


class TestCiSSWKDB:
    def test_center_and_width(self):
        data = meta([0.1, 0.8, -0.2, 1.4], [0.3, 0.5, 0.4, 0.6])
        kdb = kdb_of(data)
        ci = ci_ssw_kdb(data, effect_ssw(data, kdb))
        assert ci.center == pytest.approx(effect_ssw(data, kdb).value)
        assert ci.half_width == pytest.approx(
            t_quantile(0.975, data.k - 1)
            * math.sqrt(ssw_variance(data, kdb.value)),
            rel=1e-10)

    def test_zero_tau2_collapse(self):
        data = meta([0.2, 0.2, 0.2], [0.4, 0.4, 0.4])
        ci = ci_ssw_kdb(data, effect_ssw(data, kdb_of(data)))
        assert ci.half_width == pytest.approx(
            t_quantile(0.975, 2) * math.sqrt(ssw_variance(data, 0.0)),
            rel=1e-10)


class TestShiftEquivariance:
    def test_points_and_intervals_shift(self):
        rng = np.random.default_rng(51)
        gs = list(rng.standard_normal(5))
        v2s = list(rng.uniform(0.2, 1.5, 5))
        c = 1.75
        a = meta(gs, v2s)
        b = meta([g + c for g in gs], v2s)
        dl_a, dl_b = tau2_dl(a), tau2_dl(b)
        assert dl_b.value == pytest.approx(dl_a.value, abs=1e-12)
        assert effect_iv(b, dl_b).value - effect_iv(a, dl_a).value == \
            pytest.approx(c, abs=1e-12)
        assert effect_ssw(b, kdb_at(0.0)).value \
            - effect_ssw(a, kdb_at(0.0)).value == \
            pytest.approx(c, abs=1e-12)
        iv_a, iv_b = effect_iv(a, dl_a), effect_iv(b, dl_b)
        za, zb = ci_z(a, iv_a), ci_z(b, iv_b)
        assert zb.center - za.center == pytest.approx(c, abs=1e-12)
        assert zb.half_width == pytest.approx(za.half_width, abs=1e-12)
        ha, hb = ci_hksj(a, iv_a), ci_hksj(b, iv_b)
        assert hb.center - ha.center == pytest.approx(c, abs=1e-12)
        assert hb.half_width == pytest.approx(ha.half_width, abs=1e-12)
