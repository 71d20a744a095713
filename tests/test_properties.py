"""Property-based checks over randomized meta-analysis inputs."""

from hypothesis import given, settings, strategies as st

from smdmeta.effect import ci_hksj, ci_z, effect_iv, effect_ssw
from smdmeta.numkernel import chisq_cdf, chisq_quantile, mixture_cdf
from smdmeta.qstat import MetaInput, iv_weighted_mean, q_statistic
from smdmeta.smd import Study, j_factor
from smdmeta.tau2 import (
    Tau2Result,
    ci_qp,
    tau2_dl,
    tau2_jackson,
    tau2_mp,
    tau2_reml,
)


@st.composite
def meta_inputs(draw, k_max=8, equal_variances=False):
    k = draw(st.integers(2, k_max))
    gs = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
    if equal_variances:
        v = draw(st.floats(0.05, 4.0))
        v2s = [v] * k
    else:
        v2s = draw(st.lists(st.floats(0.05, 4.0), min_size=k, max_size=k))
    ns = draw(st.lists(st.integers(6, 60), min_size=k, max_size=k))
    studies = tuple(Study(n, n, g, v) for n, g, v in zip(ns, gs, v2s))
    return MetaInput(studies)


@given(meta_inputs(), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_q_monotone_nonincreasing(data, t1, t2):
    lo, hi = sorted((t1, t2))
    assert q_statistic(data, hi) <= q_statistic(data, lo) + 1e-9


@given(meta_inputs(), st.floats(-5.0, 5.0))
@settings(max_examples=150, deadline=None)
def test_q_location_invariant(data, shift):
    shifted = MetaInput(tuple(
        Study(s.n_t, s.n_c, s.g + shift, s.v2) for s in data.studies))
    q0 = q_statistic(data, 0.3)
    assert q_statistic(shifted, 0.3) == q0 or \
        abs(q_statistic(shifted, 0.3) - q0) <= 1e-9 * (1.0 + q0)


@given(meta_inputs())
@settings(max_examples=100, deadline=None)
def test_weighted_mean_within_range(data):
    fit = iv_weighted_mean(data, 0.7)
    assert min(data.g) - 1e-12 <= fit.mean <= max(data.g) + 1e-12


@given(meta_inputs(equal_variances=True))
@settings(max_examples=100, deadline=None)
def test_equal_variance_collapse(data):
    dl = tau2_dl(data).value
    assert abs(tau2_mp(data).value - dl) <= max(1e-6 * (1 + dl), 1e-8)
    assert abs(tau2_jackson(data).value - dl) <= 1e-10 * (1 + dl)


@given(meta_inputs())
@settings(max_examples=80, deadline=None)
def test_point_estimators_nonnegative_and_flagged(data):
    for fn in (tau2_dl, tau2_mp, tau2_reml, tau2_jackson):
        r = fn(data)
        assert r.value >= 0.0
        if r.status == "truncated_at_zero":
            assert r.value == 0.0


@given(meta_inputs())
@settings(max_examples=60, deadline=None)
def test_qp_interval_ordered_and_brackets_mp(data):
    ci = ci_qp(data)
    assert 0.0 <= ci.lo <= ci.hi
    mp = tau2_mp(data).value
    assert ci.lo - 1e-9 <= mp <= ci.hi + 1e-9


@given(meta_inputs(), st.floats(-4.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_effect_shift_equivariance(data, shift):
    shifted = MetaInput(tuple(
        Study(s.n_t, s.n_c, s.g + shift, s.v2) for s in data.studies))
    dl_a, dl_b = tau2_dl(data), tau2_dl(shifted)
    a, b = effect_iv(data, dl_a), effect_iv(shifted, dl_b)
    assert abs((b.value - a.value) - shift) <= 1e-9
    kdb = Tau2Result(0.0, "KDB", "truncated_at_zero")
    assert abs(effect_ssw(shifted, kdb).value
               - effect_ssw(data, kdb).value - shift) <= 1e-9
    za, zb = ci_z(data, a), ci_z(shifted, b)
    assert abs(zb.half_width - za.half_width) <= 1e-9
    ha, hb = ci_hksj(data, a), ci_hksj(shifted, b)
    assert abs(hb.half_width - ha.half_width) <= 1e-9 * (1.0 + ha.half_width)


@given(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=8),
       st.floats(0.1, 40.0))
@settings(max_examples=60, deadline=None)
def test_mixture_cdf_bounds_and_single_collapse(lams, x):
    p = mixture_cdf(x, lams)
    assert 0.0 <= p <= 1.0
    if len(lams) == 1:
        assert abs(p - chisq_cdf(x / lams[0], 1.0)) <= 1e-6


@given(st.floats(0.01, 0.99), st.floats(0.3, 80.0))
@settings(max_examples=150, deadline=None)
def test_chisq_quantile_roundtrip(p, df):
    assert abs(chisq_cdf(chisq_quantile(p, df), df) - p) <= 1e-8


@given(st.integers(2, 500))
@settings(max_examples=100, deadline=None)
def test_j_factor_in_unit_interval(m):
    v = j_factor(m)
    assert 0.0 < v < 1.0
    assert j_factor(m + 1) > v
