import math

import numpy as np
import pytest

import oracles
from batch_of_one import row
from smdmeta import effect
from smdmeta.numkernel import normal_quantile, t_quantile
from smdmeta.qstat import MetaBatch
from smdmeta.simlab import estimate_all
from smdmeta.smd import Study
from smdmeta.tau2 import Tau2Result


def meta(gs, v2s, n=20):
    n_t = n // 2
    return MetaBatch.of([Study(n_t, n - n_t, g, v) for g, v in zip(gs, v2s)])


def kdb_at(tau2):
    return Tau2Result(tau2, "interior")


def of_one(function, *level):
    """The `*_batch` row `function` as a function of one input and its one
    prerequisite."""
    return lambda data, prerequisite: row(function, data, [prerequisite],
                                          *level)


iv_row, ssw_row = of_one(effect.effect_iv_batch), of_one(
    effect.effect_ssw_batch)
z_row, ssw_kdb_row = (of_one(function, 0.95) for function in (
    effect.ci_z_batch, effect.ci_ssw_kdb_batch))


def hksj_at(data, tau2):
    """The HKSJ row of one input around its IV mean at tau2."""
    return row(effect.ci_hksj_batch, data, [tau2], [iv_row(data, tau2)], 0.95)


def tau2_of(data, name):
    """The battery's tau^2 estimate `name` of one input."""
    (results, _), = estimate_all(data)
    return results["tau2_est", name]


def ssw_variance(data, tau2):
    """The SSW row's variance at tau2."""
    return ssw_row(data, kdb_at(tau2)).variance


TWO = meta([0.0, 2.0], [1.0, 1.0])


class TestEffectIV:
    def test_equal_variance_average(self):
        r = iv_row(TWO, Tau2Result(0.7, "interior"))
        assert r.value == pytest.approx(1.0, rel=1e-14)

    def test_hand_case(self):
        data = meta([0.0, 1.0], [1.0, 3.0])
        r = iv_row(data, Tau2Result(1.0, "interior"))
        assert r.value == pytest.approx(1 / 3, rel=1e-14)
        assert r.variance == pytest.approx(4 / 3, rel=1e-14)

    def test_weight_rescaling_invariance(self):
        data = meta([0.2, 0.9, -0.3], [0.5, 1.0, 2.0])
        a = iv_row(data, Tau2Result(0.0, "truncated_at_zero"))
        scaled = meta([0.2, 0.9, -0.3], [1.5, 3.0, 6.0])
        b = iv_row(scaled, Tau2Result(0.0, "truncated_at_zero"))
        assert b.value == pytest.approx(a.value, rel=1e-12)


class TestSSW:
    def test_plain_average_when_sizes_equal(self):
        r = ssw_row(TWO, kdb_at(0.0))
        assert r.value == pytest.approx(1.0, rel=1e-14)

    def test_weighting_by_effective_size(self):
        data = MetaBatch.of((Study(6, 6, 1.0, 0.2), Study(42, 42, 2.0, 0.2)))
        r = ssw_row(data, kdb_at(0.0))
        assert r.value == pytest.approx((3 * 1.0 + 21 * 2.0) / 24, rel=1e-14)

    def test_point_never_depends_on_variances_or_tau2(self):
        a = MetaBatch.of((Study(6, 6, 1.0, 0.2), Study(42, 42, 2.0, 0.2)))
        b = MetaBatch.of((Study(6, 6, 1.0, 5.0), Study(42, 42, 2.0, 0.01)))
        assert ssw_row(a, kdb_at(0.0)).value == \
            ssw_row(b, kdb_at(3.0)).value

    def test_default_variance_uses_kdb(self):
        data = meta([0.1, 0.8, -0.2, 1.4], [0.3, 0.5, 0.4, 0.6])
        (results, _), = estimate_all(data)
        kdb = results["tau2_est", "KDB"].value
        r = results["delta_est", "SSW"]
        assert r.variance == pytest.approx(oracles.ssw_variance(data, kdb),
                                           rel=1e-12)


class TestSSWVariance:
    def test_hand_case(self):
        data = MetaBatch.of((Study(6, 6, 0.0, 0.2), Study(42, 42, 0.0, 0.2)))
        assert ssw_variance(data, 0.0) == pytest.approx(90 / 576, rel=1e-14)

    def test_linear_in_tau2(self):
        data = MetaBatch.of((Study(6, 6, 0.0, 0.2), Study(42, 42, 0.0, 0.2)))
        en2 = (3.0**2 + 21.0**2) / 24.0**2
        d = 0.75
        assert ssw_variance(data, d) - ssw_variance(data, 0.0) == \
            pytest.approx(d * en2, rel=1e-12)


class TestCiZ:
    def test_hand_case(self):
        ci = z_row(TWO, iv_row(TWO, tau2_of(TWO, "DL")))
        assert tau2_of(TWO, "DL").value == pytest.approx(1.0)
        assert ci.center == pytest.approx(1.0)
        assert ci.half_width == pytest.approx(1.959964, abs=1e-6)

    def test_level_quantile(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


class TestCiHKSJ:
    def test_df1_half_width(self):
        ci = hksj_at(TWO, Tau2Result(1.0, "interior"))
        assert ci.center == pytest.approx(1.0)
        assert ci.half_width == pytest.approx(t_quantile(0.975, 1), rel=1e-10)
        assert ci.half_width == pytest.approx(12.7062, abs=1e-4)

    def test_degenerate_flagged(self):
        flat = meta([0.4, 0.4, 0.4], [1.0, 0.5, 2.0])
        ci = hksj_at(flat, tau2_of(flat, "DL"))
        assert ci.half_width == 0.0
        assert "degenerate" in ci.flags

    def test_equal_variance_half_width_free_of_tau2(self):
        data = meta([0.1, 0.9, -0.5, 1.2], [0.8, 0.8, 0.8, 0.8])
        a = hksj_at(data, Tau2Result(0.0, "truncated_at_zero"))
        b = hksj_at(data, Tau2Result(2.5, "interior"))
        assert a.half_width == pytest.approx(b.half_width, rel=1e-12)

    def test_battery_rows_wrap_iv_at_dl_and_kdb(self):
        # unequal variances, so DL and KDB weights give different intervals
        data = meta([0.1, 1.9, -1.5, 2.2, 0.3], [0.2, 0.5, 0.9, 1.4, 0.3])
        (results, failures), = estimate_all(data)
        assert failures == ()
        at_dl = hksj_at(data, tau2_of(data, "DL"))
        at_kdb = hksj_at(data, tau2_of(data, "KDB"))
        assert results["delta_cover", "HKSJ"] == at_dl
        assert results["delta_cover", "HKSJ-KDB"] == at_kdb
        assert at_dl != at_kdb


class TestCiSSWKDB:
    def test_center_and_width(self):
        data = meta([0.1, 0.8, -0.2, 1.4], [0.3, 0.5, 0.4, 0.6])
        kdb = tau2_of(data, "KDB")
        ci = ssw_kdb_row(data, ssw_row(data, kdb))
        assert ci.center == pytest.approx(ssw_row(data, kdb).value)
        assert ci.half_width == pytest.approx(
            t_quantile(0.975, data.k - 1)
            * math.sqrt(oracles.ssw_variance(data, kdb.value)),
            rel=1e-10)

    def test_zero_tau2_collapse(self):
        data = meta([0.2, 0.2, 0.2], [0.4, 0.4, 0.4])
        ci = ssw_kdb_row(data, ssw_row(data, tau2_of(data, "KDB")))
        assert ci.half_width == pytest.approx(
            t_quantile(0.975, 2) * math.sqrt(oracles.ssw_variance(data, 0.0)),
            rel=1e-10)


class TestShiftEquivariance:
    def test_points_and_intervals_shift(self):
        rng = np.random.default_rng(51)
        gs = list(rng.standard_normal(5))
        v2s = list(rng.uniform(0.2, 1.5, 5))
        c = 1.75
        a = meta(gs, v2s)
        b = meta([g + c for g in gs], v2s)
        dl_a, dl_b = tau2_of(a, "DL"), tau2_of(b, "DL")
        assert dl_b.value == pytest.approx(dl_a.value, abs=1e-12)
        assert iv_row(b, dl_b).value - iv_row(a, dl_a).value == \
            pytest.approx(c, abs=1e-12)
        assert ssw_row(b, kdb_at(0.0)).value \
            - ssw_row(a, kdb_at(0.0)).value == \
            pytest.approx(c, abs=1e-12)
        iv_a, iv_b = iv_row(a, dl_a), iv_row(b, dl_b)
        za, zb = z_row(a, iv_a), z_row(b, iv_b)
        assert zb.center - za.center == pytest.approx(c, abs=1e-12)
        assert zb.half_width == pytest.approx(za.half_width, abs=1e-12)
        ha, hb = hksj_at(a, dl_a), hksj_at(b, dl_b)
        assert hb.center - ha.center == pytest.approx(c, abs=1e-12)
        assert hb.half_width == pytest.approx(ha.half_width, abs=1e-12)
