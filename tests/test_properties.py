"""Property-based checks over randomized meta-analysis inputs."""

from hypothesis import given, settings, strategies as st

from batch_of_one import q_at, row
from smdmeta import effect
from smdmeta.numkernel import chisq_cdf, chisq_quantile, mixture_cdf
from smdmeta.qstat import MetaBatch
from smdmeta.simlab import estimate_all
from smdmeta.smd import Study, j_factor
from smdmeta.tau2 import Tau2Result


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
    return MetaBatch.of(studies)


@given(meta_inputs(), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_q_monotone_nonincreasing(data, t1, t2):
    lo, hi = sorted((t1, t2))
    assert q_at(data, hi) <= q_at(data, lo) + 1e-9


@given(meta_inputs(), st.floats(-5.0, 5.0))
@settings(max_examples=150, deadline=None)
def test_q_location_invariant(data, shift):
    shifted = MetaBatch(data.arm_sizes, data.g + shift, data.v2)
    q0 = q_at(data, 0.3)
    assert q_at(shifted, 0.3) == q0 or \
        abs(q_at(shifted, 0.3) - q0) <= 1e-9 * (1.0 + q0)


@given(meta_inputs())
@settings(max_examples=100, deadline=None)
def test_weighted_mean_within_range(data):
    fit = row(effect.effect_iv_batch, data, [Tau2Result(0.7, "interior")])
    assert data.g.min() - 1e-12 <= fit.value <= data.g.max() + 1e-12


@given(meta_inputs(equal_variances=True))
@settings(max_examples=100, deadline=None)
def test_equal_variance_collapse(data):
    (results, _), = estimate_all(data)
    dl = results["tau2_est", "DL"].value
    assert abs(results["tau2_est", "MP"].value - dl) \
        <= max(1e-6 * (1 + dl), 1e-8)
    assert abs(results["tau2_est", "J"].value - dl) <= 1e-10 * (1 + dl)


@given(meta_inputs())
@settings(max_examples=80, deadline=None)
def test_point_estimators_nonnegative_and_flagged(data):
    (results, _), = estimate_all(data)
    for r in (results["tau2_est", name] for name in ("DL", "MP", "REML", "J")):
        assert r.value >= 0.0
        if r.status == "truncated_at_zero":
            assert r.value == 0.0


@given(meta_inputs())
@settings(max_examples=60, deadline=None)
def test_qp_interval_ordered_and_brackets_mp(data):
    (results, _), = estimate_all(data)
    ci = results["tau2_cover", "QP"]
    assert 0.0 <= ci.lo <= ci.hi
    mp = results["tau2_est", "MP"].value
    assert ci.lo - 1e-9 <= mp <= ci.hi + 1e-9


@given(meta_inputs(), st.floats(-4.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_effect_shift_equivariance(data, shift):
    shifted = MetaBatch(data.arm_sizes, data.g + shift, data.v2)
    dl_a, dl_b = (estimate_all(d)[0][0]["tau2_est", "DL"]
                  for d in (data, shifted))
    a = row(effect.effect_iv_batch, data, [dl_a])
    b = row(effect.effect_iv_batch, shifted, [dl_b])
    assert abs((b.value - a.value) - shift) <= 1e-9
    kdb = Tau2Result(0.0, "truncated_at_zero")
    assert abs(row(effect.effect_ssw_batch, shifted, [kdb]).value
               - row(effect.effect_ssw_batch, data, [kdb]).value - shift) \
        <= 1e-9
    za = row(effect.ci_z_batch, data, [a], 0.95)
    zb = row(effect.ci_z_batch, shifted, [b], 0.95)
    assert abs(zb.half_width - za.half_width) <= 1e-9
    ha = row(effect.ci_hksj_batch, data, [dl_a], [a], 0.95)
    hb = row(effect.ci_hksj_batch, shifted, [dl_b], [b], 0.95)
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


@given(st.integers(2, 10**7))
@settings(max_examples=100, deadline=None)
def test_j_factor_in_unit_interval(m):
    # the step J(m+1) - J(m), about 3/(4 m^2), is still ~70 ulps at 10^7
    v = j_factor(m)
    assert 0.0 < v < 1.0
    assert j_factor(m + 1) > v
