import inspect
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import erfinv

import oracles
from oracles import iv_weighted_mean, q_statistic, restricted_loglik
from smdmeta import tau2
from smdmeta.numkernel import (
    NonConvergenceError,
    chisq_cdf,
    chisq_quantile,
    mixture_cdf,
)
from smdmeta.qstat import BRACKET_CAP, MetaBatch
from smdmeta.simlab import estimate_all
from smdmeta.smd import Study, b_factor, g_variance, j_factor


def meta(gs, v2s, n=20):
    n_t = n // 2
    return MetaBatch.of([Study(n_t, n - n_t, g, v) for g, v in zip(gs, v2s)])


def random_meta(rng, k=None):
    k = k or int(rng.integers(2, 9))
    gs = rng.standard_normal(k) * rng.uniform(0.5, 2.0)
    v2s = rng.uniform(0.1, 3.0, k)
    return meta(list(gs), list(v2s))


def battery_row(kind, name):
    """The battery's (kind, name) result on one input, through
    `estimate_all`; a KeyError if that row failed."""
    return lambda data: estimate_all(data)[0][0][kind, name]


dl_of, mp_of, reml_of, j_of, kdb_of = (
    battery_row("tau2_est", name) for name in ("DL", "MP", "REML", "J", "KDB"))
qp_of, kdb_ci_of, bj_of, j_ci_of, pl_of = (
    battery_row("tau2_cover", name) for name in ("QP", "KDB", "BJ", "J", "PL"))


def expected_q(data, effect=None):
    """The corrected E[Q] row on one input, at the SSW mean or at effect."""
    return tau2.corrected_expected_q_batch(
        data, None if effect is None else np.array([effect]))[0]


SPREAD = meta([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
FLAT = meta([0.4, 0.4, 0.4], [1.0, 0.5, 2.0])


class TestDL:
    def test_truncates_when_q_matches_df(self):
        r = dl_of(meta([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0]))
        assert r.value == 0.0 and r.status == "truncated_at_zero"

    def test_closed_form(self):
        r = dl_of(SPREAD)
        assert r.value == pytest.approx(3.0, rel=1e-12)
        assert r.status == "interior"

    def test_homogeneous(self):
        assert dl_of(FLAT).value == 0.0


class TestMP:
    def test_hand_case(self):
        assert mp_of(SPREAD).value == pytest.approx(3.0, rel=1e-7)

    def test_truncation(self):
        r = mp_of(meta([0.0, 0.1], [1.0, 1.0]))
        assert r.value == 0.0 and r.status == "truncated_at_zero"

    def test_equals_dl_under_equal_variances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            v = float(rng.uniform(0.2, 2.0))
            data = meta(list(rng.standard_normal(k) * 2), [v] * k)
            dl, mp = dl_of(data), mp_of(data)
            assert mp.value == pytest.approx(dl.value, rel=1e-6, abs=1e-8)


class TestREML:
    def test_balanced_closed_form(self):
        assert reml_of(SPREAD).value == pytest.approx(3.0, rel=1e-7)

    def test_homogeneous(self):
        assert reml_of(FLAT).value == 0.0

    def test_score_equation_residual(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 10:
            data = random_meta(rng)
            r = reml_of(data)
            if r.status != "interior":
                continue
            fit = iv_weighted_mean(data, r.value)
            w2 = fit.weights ** 2
            fixed_point = float(
                (w2 * ((data.g[0] - fit.mean) ** 2 - data.v2[0])).sum()
            ) / float(w2.sum()) + 1.0 / fit.sum_w
            assert fixed_point == pytest.approx(r.value, abs=1e-6 * (1 + r.value))
            checked += 1

    def test_objective_is_maximized(self):
        rng = np.random.default_rng(13)
        data = random_meta(rng, k=6)
        r = reml_of(data)
        l_hat = restricted_loglik(data, r.value)
        grid = np.linspace(0.0, max(4 * r.value + 1.0, 2.0), 500)
        assert all(restricted_loglik(data, float(t)) <= l_hat + 1e-7
                   for t in grid)


class TestJackson:
    def test_hand_case(self):
        data = meta([0.0, 2.0], [1.0, 4.0])
        r = j_of(data)
        assert r.value == 0.0 and r.status == "truncated_at_zero"

    def test_homogeneous(self):
        assert j_of(FLAT).value == 0.0

    def test_equal_variance_collapse_to_dl(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            v = float(rng.uniform(0.2, 2.0))
            data = meta(list(rng.standard_normal(k) * 2), [v] * k)
            assert j_of(data).value == pytest.approx(
                dl_of(data).value, rel=1e-10, abs=1e-12)


def kdb_input(k, n, q, d):
    n_t = math.ceil((1 - q) * n)
    n_c = n - n_t
    return MetaBatch.of([Study(n_t, n_c, d, g_variance(d, n_t, n_c))
                         for _ in range(k)])


class TestCorrectedExpectedQ:
    def test_limits_to_k_minus_1(self):
        data = kdb_input(5, 10**6, 0.5, 0.5)
        assert expected_q(data) == pytest.approx(4.0, abs=1e-3)

    def test_reorder_invariance(self):
        studies = (Study(10, 10, 0.3, g_variance(0.3, 10, 10)),
                   Study(6, 14, -0.2, g_variance(-0.2, 6, 14)),
                   Study(25, 25, 1.1, g_variance(1.1, 25, 25)))
        a = expected_q(MetaBatch.of(studies))
        b = expected_q(MetaBatch.of(studies[::-1]))
        assert a == pytest.approx(b, rel=1e-10)

    def test_positive_across_plugins(self):
        data = kdb_input(5, 12, 0.75, 0.0)
        for d in (-6.0, -1.0, 0.0, 0.4, 2.0, 6.0):
            assert expected_q(data, effect=d) > 0

    def test_series_and_quadrature_branches_agree(self):
        # n=1800 sits above the branch threshold, n=900 below
        hi = expected_q(kdb_input(5, 1800, 0.5, 0.5))
        lo = expected_q(kdb_input(5, 900, 0.5, 0.5))
        # both are (K-1) - c/n + O(1/n^2): c estimated from either point
        c_hi = (4.0 - hi) * 1800
        c_lo = (4.0 - lo) * 900
        assert c_hi == pytest.approx(c_lo, rel=0.05)



def reference_series_moments(m, eff_n, jf, b, d):
    """The large-m moments with the hand-expanded coefficient table that
    repeated np.convolve replaced, kept as its oracle; keyed by (p, r)."""
    j2 = jf * jf
    lam2 = j2 * m / (m - 2)
    lam3 = j2 * m / (m - 3)
    lam4 = j2 * j2 * m * m / ((m - 2) * (m - 4))
    eg2 = lam2 * (1.0 / eff_n + d * d)
    eg3 = lam3 * (d ** 3 + 3.0 * d / eff_n)
    eg4 = lam4 * (d ** 4 + 6.0 * d * d / eff_n + 3.0 / eff_n ** 2)
    mu = [1.0, 0.0,
          eg2 - d * d,
          eg3 - 3 * d * eg2 + 2 * d ** 3,
          eg4 - 4 * d * eg3 + 6 * d * d * eg2 - 3 * d ** 4]
    a = 1.0 / eff_n
    w = 1.0 / (a + b * d * d)
    be = b * w
    c1 = -2.0 * d * be
    c2 = 4.0 * d * d * be * be - be
    c3 = 4.0 * d * be * be - 8.0 * d ** 3 * be ** 3
    c4 = be * be - 12.0 * d * d * be ** 3 + 16.0 * d ** 4 * be ** 4
    coef = {
        1: (1.0, c1, c2, c3, c4),
        2: (1.0, 2 * c1, 2 * c2 + c1 ** 2, 2 * c3 + 2 * c1 * c2,
            2 * c4 + 2 * c1 * c3 + c2 ** 2),
        3: (1.0, 3 * c1, 3 * c2 + 3 * c1 ** 2,
            3 * c3 + 6 * c1 * c2 + c1 ** 3,
            3 * c4 + 6 * c1 * c3 + 3 * c2 ** 2 + 3 * c1 ** 2 * c2),
        4: (1.0, 4 * c1, 4 * c2 + 6 * c1 ** 2,
            4 * c3 + 12 * c1 * c2 + 4 * c1 ** 3,
            4 * c4 + 12 * c1 * c3 + 6 * c2 ** 2 + 12 * c1 ** 2 * c2
            + c1 ** 4),
    }
    return {(p, r): w ** p * sum(coef[p][s] * mu[s + r] for s in range(5 - r))
            for p, r in tau2._MOMENT_KEYS}


def reference_corrected_expected_q(data, moments, effect):
    """The per-study assembly of E[Q] from nine buffers that the (K, 9)
    array code replaced, kept as its oracle.  `moments(n_t, n_c, d)` maps
    (p, r) to E[psi^p x^r]."""
    k = data.k
    ep, er, es, var_r, cov_rp, cov_r2p, e_rp2, var_p, t4 = np.empty((9, k))
    for i, (n_t, n_c) in enumerate(data.arm_sizes):
        mom = moments(n_t, n_c, effect)
        ep[i] = mom[(1, 0)]
        er[i] = mom[(1, 1)]
        es[i] = mom[(1, 2)]
        var_r[i] = mom[(2, 2)] - er[i] ** 2
        cov_rp[i] = mom[(2, 1)] - er[i] * ep[i]
        cov_r2p[i] = mom[(3, 2)] - mom[(2, 2)] * ep[i]
        e_rp2[i] = mom[(3, 1)] - 2.0 * ep[i] * mom[(2, 1)] + ep[i] ** 2 * er[i]
        var_p[i] = mom[(2, 0)] - ep[i] ** 2
        t4[i] = mom[(4, 2)] - 2.0 * ep[i] * mom[(3, 2)] + ep[i] ** 2 * mom[(2, 2)]
    w_tot = float(ep.sum())
    a1 = float(er.sum())
    v_r = float(var_r.sum())
    e_n = v_r + a1 * a1
    e_nd = float((cov_r2p + 2.0 * cov_rp * (a1 - er)).sum())
    c_sum = float(cov_rp.sum())
    c_sq = float((cov_rp ** 2).sum())
    e_nd2 = float((t4 + 2.0 * e_rp2 * (a1 - er)
                   + var_p * (v_r - var_r + (a1 - er) ** 2)).sum()) \
        + 2.0 * (c_sum * c_sum - c_sq)
    return float(es.sum()) - (e_n / w_tot - e_nd / w_tot ** 2
                              + e_nd2 / w_tot ** 3)


def series_args(n_t, n_c):
    m = n_t + n_c - 2
    return m, n_t * n_c / (n_t + n_c), j_factor(m), b_factor(m)


class TestCorrectedExpectedQOracle:
    def test_series_matches_hand_expanded_table(self):
        for n in np.geomspace(1002, 1e6, 25).astype(int):
            for q in (0.5, 0.75):
                n_t = math.ceil((1 - q) * n)
                args = series_args(n_t, int(n) - n_t)
                assert args[0] >= tau2._SERIES_DF_MIN
                for d in np.linspace(-6.0, 6.0, 9):
                    new = tau2._psi_x_moments_series(*args, float(d))
                    ref = reference_series_moments(*args, float(d))
                    np.testing.assert_allclose(
                        new, [ref[key] for key in tau2._MOMENT_KEYS],
                        rtol=1e-14, atol=0.0)

    def test_array_assembly_matches_per_study_loop(self, monkeypatch):
        # the oracle reads the rows the batched moment function returned for
        # the same call (a batch of one: (9, 1, K)); its m >= 1000 moments
        # come from the hand-expanded table instead
        batched = tau2._psi_moments
        rows = {}

        def moments(arm_sizes, d):
            out = batched(arm_sizes, d)
            rows.update(zip(arm_sizes, out[:, 0].T))
            return out

        monkeypatch.setattr(tau2, "_psi_moments", moments)

        def ref_moments(n_t, n_c, d):
            args = series_args(n_t, n_c)
            if args[0] >= tau2._SERIES_DF_MIN:
                return reference_series_moments(*args, d)
            return dict(zip(tau2._MOMENT_KEYS, rows[n_t, n_c]))

        rng = np.random.default_rng(17)
        arms = [(int(a), int(b)) for a, b in rng.integers(2, 300, (60, 2))]
        arms += [(int(a), int(b)) for a, b in rng.integers(500, 5000, (20, 2))]
        ks = [2, 3, 100] + [int(k) for k in rng.integers(2, 101, 237)]
        for i, k in enumerate(ks):
            if i % 2:  # distinct sizes, drawn study by study
                sizes = [arms[j] for j in rng.integers(len(arms), size=k)]
            else:  # a few sizes shared by all studies
                pool = [arms[j] for j in rng.integers(len(arms), size=3)]
                sizes = [pool[j] for j in rng.integers(3, size=k)]
            d = (0.0, 0.6, -1.4)[i % 3]
            gs = d + 0.3 * rng.standard_normal(k)
            data = MetaBatch.of([Study(a, b, float(g), g_variance(g, a, b))
                                 for (a, b), g in zip(sizes, gs)])
            new = expected_q(data, effect=d)
            ref = reference_corrected_expected_q(data, ref_moments, d)
            assert new == pytest.approx(ref, rel=1e-14, abs=0.0)


def reference_e_gj_psip_quad(j: int, p: int, m: int, eff_n: float, jf: float,
                             b: float, d: float) -> float:
    """E[g^j psi^p] by adaptive quadrature of the Laplace-transform
    representation: the route the fixed Gauss-Laguerre rule replaced, kept
    as its oracle."""
    kappa = jf * jf * m / eff_n
    c = math.sqrt(eff_n) * d
    a = 1.0 / eff_n
    rho = p - 0.5 * j
    log_pref = (0.5 * j * math.log(kappa) + rho * math.log(2.0)
                + math.lgamma(m / 2.0 + rho) - math.lgamma(m / 2.0)
                - math.lgamma(p))
    pref = math.exp(log_pref)
    bk = b * kappa
    mhalf_rho = m / 2.0 + rho

    def integrand(t: float) -> float:
        opb = 1.0 + 2.0 * bk * t
        mu = c / opb  # raw moments 0..2 of N(mu, 1/opb) below
        gj = (opb ** -0.5 * math.exp(-c * c * bk * t / opb)
              * (1.0, mu, mu * mu + 1.0 / opb)[j])
        return t ** (p - 1) * (1.0 + 2.0 * a * t) ** -mhalf_rho * gj

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, abserr = quad(integrand, 0.0, np.inf,
                           epsabs=1e-13, epsrel=1e-11, limit=400)
    if not math.isfinite(val) or abserr > 1e-7 * max(1.0, abs(val)):
        raise NonConvergenceError(
            f"moment quadrature for (j={j}, p={p}, m={m}, d={d}) achieved "
            f"only {abserr:g}", error_bound=abserr)
    return pref * val


def mpmath_e_gj_psip(j, p, m, eff_n, jf, b, d):
    """The same Laplace-transform integral in 30-digit mpmath arithmetic,
    split at multiples of the width of the integrand's peak."""
    with mpmath.workdps(30):
        m, eff_n, jf, b, d = map(mpmath.mpf, (m, eff_n, jf, b, d))
        kappa = jf * jf * m / eff_n
        c = mpmath.sqrt(eff_n) * d
        a = 1 / eff_n
        rho = p - mpmath.mpf(j) / 2
        pref = (kappa ** (mpmath.mpf(j) / 2) * 2 ** rho
                * mpmath.gamma(m / 2 + rho)
                / (mpmath.gamma(m / 2) * mpmath.gamma(p)))
        bk = b * kappa

        def integrand(t):
            opb = 1 + 2 * bk * t
            mu = c / opb
            return (t ** (p - 1) * (1 + 2 * a * t) ** -(m / 2 + rho)
                    * opb ** -0.5 * mpmath.exp(-c * c * bk * t / opb)
                    * (1, mu, mu * mu + 1 / opb)[j])

        width = 1 / (a * m + c * c * bk)
        return float(pref * mpmath.quad(
            integrand, [0, width, 64 * width, mpmath.inf]))


def laguerre_and_reference(n_t, n_c, d, reference):
    """The (3, 4) array E[g^j psi^p] from the fixed rule and from
    `reference(j, p, m, eff_n, jf, b, d)`."""
    m, eff_n, jf, b = series_args(n_t, n_c)
    got = tau2._e_gj_psip(*np.reshape([m, eff_n, jf, b], (4, 1, 1, 1)), d)[0]
    ref = np.array([[reference(j, p, m, eff_n, jf, b, d) for p in range(1, 5)]
                    for j in range(3)])
    return got, ref


class TestLaguerreMoments:
    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(29)
        arms = [(2, 2), (2, 3), (3, 3), (2, 4), (499, 499)]
        arms += [tuple(int(x) for x in rng.integers(2, 500, 2))
                 for _ in range(495)]
        for i, (n_t, n_c) in enumerate(arms):
            d = 0.0 if i % 7 == 0 else float(rng.uniform(-6.0, 6.0))
            got, ref = laguerre_and_reference(n_t, n_c, d,
                                              reference_e_gj_psip_quad)
            # E[g psi^p] is 0 at d = 0: measure it against the largest moment
            scale = np.maximum(np.abs(ref), 1e-12 * np.abs(ref).max())
            assert (np.abs(got - ref) <= 1e-10 * scale).all(), (n_t, n_c, d)

    @pytest.mark.parametrize("n_t,n_c", [(2, 2), (2, 3), (3, 3), (50, 50),
                                         (499, 499)])
    def test_matches_30_digit_quadrature_at_large_effects(self, n_t, n_c):
        # the adaptive route is off by 1.3e-5 at 3 + 3 arms and d = 50
        for d in (10.0, 20.0, 50.0):
            got, ref = laguerre_and_reference(n_t, n_c, d, mpmath_e_gj_psip)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_corrected_expected_q_matches_30_digit_moments(self):
        # near m = 1000 the raw-to-central conversion amplifies a raw moment
        # error about 1000-fold; the adaptive route's log-gamma prefactor was
        # 1.4e-9 off here
        d = 3.0
        central = {}
        for n_t, n_c in ((480, 490), (20, 25)):
            m, eff_n, jf, b = series_args(n_t, n_c)
            raw = [[mpmath.mpf(mpmath_e_gj_psip(j, p, m, eff_n, jf, b, d))
                    for p in range(1, 5)] for j in range(3)]
            with mpmath.workdps(30):
                central[n_t, n_c] = {
                    (p, r): float(sum(math.comb(r, j) * (-d) ** (r - j)
                                      * raw[j][p - 1] for j in range(r + 1)))
                    for p, r in tau2._MOMENT_KEYS}
        sizes = [(480, 490), (20, 25)] * 3
        gs = d + 0.3 * np.sin(np.arange(len(sizes)))
        data = MetaBatch.of([Study(a, b, float(g), g_variance(g, a, b))
                             for (a, b), g in zip(sizes, gs)])
        ref = reference_corrected_expected_q(
            data, lambda n_t, n_c, _: central[n_t, n_c], d)
        assert expected_q(data, effect=d) == \
            pytest.approx(ref, rel=1e-11, abs=0.0)


class TestKDB:
    def test_matches_mp_for_huge_n(self):
        gs = [0.1, 0.6, -0.2, 0.9, 0.4]
        n = 10**6
        data = MetaBatch.of([Study(n // 2, n // 2, g,
                                   g_variance(g, n // 2, n // 2))
                             for g in gs])
        kdb, mp = kdb_of(data), mp_of(data)
        assert kdb.value == pytest.approx(mp.value, rel=1e-3, abs=1e-9)

    def test_expected_q_keeps_its_digits_at_a_million_subjects(self):
        # K = 5 studies of 500,000 + 500,000 at g = 2: E[Q] is 3.999994 in
        # high precision; b as 1 - (m-2)/(m J^2) in doubles read 3.99453
        n = 500_000
        data = MetaBatch.of([Study(n, n, 2.0, g_variance(2.0, n, n))] * 5)
        assert expected_q(data) == pytest.approx(3.999994, abs=1e-6)

    def test_truncation(self):
        data = kdb_input(5, 20, 0.5, 0.5)  # all g equal -> Q == 0
        r = kdb_of(data)
        assert r.value == 0.0 and r.status == "truncated_at_zero"


class TestCiQP:
    def test_df1_endpoints(self):
        data = meta([0.0, 2.0], [1.0, 1.0])
        ci = qp_of(data)
        q975 = 2 * erfinv(0.975) ** 2
        q025 = 2 * erfinv(0.025) ** 2
        assert q_statistic(data, 0.0) < q975
        assert ci.lo == 0.0
        assert ci.hi == pytest.approx(2.0 / q025 - 1.0, rel=1e-6)

    def test_degenerate_all_equal(self):
        ci = qp_of(FLAT)
        assert ci.lo == 0.0 and ci.hi == 0.0

    def test_upper_beyond_cap_from_a_capped_first_bracket(self):
        # Q(0) max v^2 = 2e9 is past the 1e7 cap, and Q(1e7) = 0.2 is still
        # above the upper target chi2_2(0.025) = 0.051, as BJ also finds
        data = meta([1e3, -1e3, 0.0], [1e-3, 1e-3, 1.0])
        ci = qp_of(data)
        assert math.isinf(ci.hi) and ci.flags == ("upper-beyond-cap",)
        assert 0.0 < ci.lo < BRACKET_CAP and math.isinf(bj_of(data).hi)

    def test_contains_mp(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            data = random_meta(rng)
            mp = mp_of(data)
            ci = qp_of(data)
            assert ci.lo - 1e-9 <= mp.value <= ci.hi + 1e-9


class TestCiKDB:
    def test_near_qp_for_huge_n(self):
        n = 10**6
        gs = [0.0, 1e-3, -5e-4, 2e-3]
        data = MetaBatch.of([Study(n // 2, n // 2, g,
                                   g_variance(g, n // 2, n // 2))
                             for g in gs])
        a, b = kdb_ci_of(data), qp_of(data)
        assert a.lo == pytest.approx(b.lo, abs=1e-6)
        assert a.hi == pytest.approx(b.hi, abs=1e-6)

    def test_ordered_and_contains_kdb_point(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            data = random_meta(rng)
            ci = kdb_ci_of(data)
            assert ci.lo <= ci.hi
            kdb = kdb_of(data)
            assert ci.lo - 1e-9 <= kdb.value <= ci.hi + 1e-9


class TestCiBJ:
    def test_k2_equal_variance_closed_form(self):
        data = meta([0.0, 2.0], [1.0, 1.0])
        q_obs = q_statistic(data, 0.0)
        ci = bj_of(data)
        # single mixture coefficient (1 + tau2): chisq_1 inversion in closed form
        assert chisq_cdf(q_obs, 1.0) <= 0.975
        assert ci.lo == 0.0
        hi_exact = q_obs / chisq_quantile(0.025, 1.0) - 1.0
        assert ci.hi == pytest.approx(hi_exact, rel=1e-4)

    def test_eigenvalue_sum_is_df(self):
        # equal v^2 at tau2 = 0: coefficients of the Q mixture sum to K - 1
        k, v = 6, 0.7
        w = np.full(k, 1.0 / v)
        a = np.diag(w) - np.outer(w, w) / w.sum()
        droot = np.sqrt(np.full(k, v))
        lam = np.linalg.eigvalsh(a * np.outer(droot, droot))[::-1]
        assert lam[:k - 1].sum() == pytest.approx(k - 1, rel=1e-12)

    def test_matches_simulated_quadratic_form(self):
        # empirical CDF of Q at the solved endpoints recovers the levels
        rng = np.random.default_rng(31)
        data = meta([0.1, 0.9, -0.4, 1.8, 0.6], [0.3, 0.5, 0.8, 0.4, 1.1])
        ci = bj_of(data)
        g, v2 = data.g[0], data.v2[0]
        w = 1.0 / v2
        gbar = float((w * g).sum() / w.sum())
        q_obs = float((w * (g - gbar) ** 2).sum())
        for tau2, level in ((ci.lo, 0.975), (ci.hi, 0.025)):
            if tau2 == 0.0:
                continue
            sd = np.sqrt(v2 + tau2)
            z = rng.standard_normal((200_000, data.k)) * sd
            zbar = (w * z).sum(axis=1) / w.sum()
            q_sim = (w * (z - zbar[:, None]) ** 2).sum(axis=1)
            assert float((q_sim <= q_obs).mean()) == pytest.approx(level,
                                                                   abs=0.005)

    def test_all_equal_degenerate(self):
        ci = bj_of(FLAT)
        assert ci.lo == 0.0 and ci.hi == 0.0


class TestCiJackson:
    def test_equal_variance_matches_bj(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            k = int(rng.integers(2, 7))
            v = float(rng.uniform(0.3, 1.5))
            data = meta(list(rng.standard_normal(k) * 1.5), [v] * k)
            a, b = j_ci_of(data), bj_of(data)
            # identical up to the endpoint solver tolerance
            assert a.lo == pytest.approx(b.lo, rel=1e-4, abs=1e-5)
            assert a.hi == pytest.approx(b.hi, rel=1e-4, abs=1e-5)

    def test_all_equal_lo_zero(self):
        assert j_ci_of(FLAT).lo == 0.0

    def test_coefficients_past_one_over_eps_are_certified(self):
        # the J coefficients span ~1e110 at tau2 = 0, which no
        # eigendecomposition resolves.  Three studies carry 1e-112 of the
        # weight, so their c = 8.49e85 are coefficients to that accuracy,
        # at every tau2 <= 2^23: P(Q <= Q_obs = 2.5e66) is below
        # P(8.48e85 chi2_3 <= 2.5e66) < 1e-29, the interval is [0, 0], and
        # it does not hold 0.5
        for truth, expected in ((None, (0.0, 0.0)), (0.5, False)):
            with np.errstate(all="ignore"):
                _, j = tau2.fixed_weight_batch(OVERFLOWING_SEEDS, 0.95,
                                               truth)[0]
            assert (j if truth else (j.lo, j.hi)) == expected


# Both Satterthwaite seeds of both fixed-weight rows are NaN: the traces of
# the two-moment fit overflow to inf / inf.
OVERFLOWING_SEEDS = MetaBatch.of([
    Study(5, 3000, 7.8e-241, 1.7e-50), Study(2, 10, 8.8e20, 3.2e-50),
    Study(5, 600, -1.26, 7.2e171), Study(10, 600, -1.8e41, 7.2e171),
    Study(600, 2, 1.4e-19, 7.2e171)])


class TestSatterthwaiteSeed:
    def test_nan_seed_steps_out_from_one(self):
        walk = tau2._endpoint(0.025, math.nan)
        assert next(walk) == 0.0
        assert walk.send(0.5) == 1.0
        assert walk.send(0.5) == 1.05

    def test_overflowing_fit_gives_honest_failures(self):
        # the walks used to ask for the CDF at tau2 = nan
        with np.errstate(all="ignore"):
            seeds = tau2._satterthwaite_roots(
                1.0 / OVERFLOWING_SEEDS.v2, OVERFLOWING_SEEDS.v2,
                np.array([1.0]), np.array([0.025, 0.975]))
        assert np.isnan(seeds).all()
        _, failures = estimate_all(OVERFLOWING_SEEDS)[0]
        failures = dict(failures)
        assert failures["BJ"] == CAP_FAILURE
        assert "J-interval" not in failures  # [0, 0], as certified above


def spread_v2(k, seed):
    """K variances log-uniform over four decades, both ends included."""
    v2 = np.exp(np.random.default_rng(seed).uniform(math.log(1e-3),
                                                    math.log(10.0), k))
    v2[0], v2[-1] = 1e-3, 10.0
    return v2


class TestBJCoefficients:
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 30, 100])
    def test_affine_in_tau2_matches_dense_eigenvalues(self, k, monkeypatch):
        # the oracle's bj_of hands its coefficient function to the
        # inversion: take it (the batch matches the oracle bit for bit)
        monkeypatch.setattr(oracles, "_fixed_weight_interval",
                            lambda *args: args[-1])
        v2 = spread_v2(k, seed=k)
        gs = np.random.default_rng(k).standard_normal(k) * np.sqrt(v2 + 1.0)
        coefficients = oracles.ci_bj(meta(list(gs), list(v2)))
        assert (coefficients(0.0) == 1.0).all()
        w = 1.0 / v2
        a = np.diag(w) - np.outer(w, w) / w.sum()
        for t in (0.0, 1e-3, 1.0, 1e3, 2.0 ** 23):
            droot = np.sqrt(v2 + t)
            dense = np.linalg.eigvalsh(a * np.outer(droot, droot))[:0:-1]
            assert np.abs(coefficients(t) - dense).max() <= 1e-12 * dense[0]

    def test_no_linalg_call_and_one_cdf_per_row_and_tau2(self, monkeypatch):
        # the battery forms no matrix: every np.linalg function raises; and
        # the walks of a row evaluate each tau2's CDF once (a CDF's c is
        # its (row, tau2))
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for name in dir(np.linalg):
            if inspect.isfunction(getattr(np.linalg, name)):
                monkeypatch.setattr(np.linalg, name, refuse)
        asked = []
        original = tau2.mixture_cdfs

        def recorded(x, c, p, tol):
            asked.extend((row.tobytes(), key) for row, key in zip(
                c, x.tolist()))
            return original(x, c, p, tol)

        monkeypatch.setattr(tau2, "mixture_cdfs", recorded)
        for data in oracle_cases(10) + oracle_cases(100):
            asked.clear()
            estimate_all(data)
            assert len(set(asked)) == len(asked) > 1


@oracles.one_row
def reference_fixed_weight_interval(data, level, weights):
    """The doubling-plus-brentq inversion that the seeded root search
    replaced, kept as its oracle.  Returns (lo, hi, flags)."""
    alpha = 1.0 - level
    flags = []
    sum_w = float(weights.sum())
    gbar = float((weights * data.g).sum()) / sum_w
    q_obs = float((weights * (data.g - gbar) ** 2).sum())
    if q_obs <= 0.0:
        return 0.0, 0.0, ("degenerate",)
    a_mat = np.diag(weights) - np.outer(weights, weights) / sum_w

    def cdf_at(tau2):
        droot = np.sqrt(data.v2 + tau2)
        lam = np.linalg.eigvalsh(a_mat * np.outer(droot, droot))[::-1]
        lam = lam[:data.k - 1]
        return mixture_cdf(q_obs, lam[lam > 0.0], tol=1e-5)

    f_at_zero = cdf_at(0.0)

    def solve(target, hint):
        if f_at_zero <= target:
            return 0.0
        br_lo, f_lo = 0.0, f_at_zero
        br_hi = hint
        while True:
            f_hi = cdf_at(br_hi)
            if f_hi > f_lo + 32e-5 and "nonmonotone-cdf" not in flags:
                flags.append("nonmonotone-cdf")
            if f_hi < target:
                break
            br_lo, f_lo = br_hi, f_hi
            br_hi *= 2.0
            if br_hi > BRACKET_CAP:
                return math.inf
        return float(brentq(lambda t: cdf_at(t) - target, br_lo, br_hi,
                            xtol=1e-6, rtol=1e-5))

    hi = solve(alpha / 2.0, 1.0)
    lo = solve(1.0 - alpha / 2.0, hi if 0.0 < hi < math.inf else 1.0)
    if math.isinf(hi):
        flags.append("upper-beyond-cap")
    return lo, hi, tuple(flags)


def oracle_cases(k):
    """Seeded inputs from homogeneous to strongly heterogeneous, plus one
    whose upper endpoint lies beyond the bracket cap."""
    rng = np.random.default_rng(100 + k)
    cases = []
    for scale in (0.0, 0.3, 1.0, 3.0):
        v2s = rng.uniform(0.02, 0.6, k)
        gs = rng.standard_normal(k) * np.sqrt(v2s + scale)
        cases.append(meta(list(gs), list(v2s)))
    cases.append(meta([0.0] * (k - 1) + [3e4], [0.1] * k))
    return cases


# a BJ or J interval whose lower endpoint is past 2^23, at level 0.95
CAP_FAILURE = "CDF(8.38861e+06) still >= target 0.975"


class TestFixedWeightOracle:
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 30, 100])
    @pytest.mark.parametrize("method", ["BJ", "J"])
    def test_endpoints_match_doubling_search(self, k, method):
        fn, wfun, failure = {
            "BJ": (bj_of, lambda d: 1.0 / d.v2[0], "BJ"),
            "J": (j_ci_of, lambda d: 1.0 / np.sqrt(d.v2[0]), "J-interval"),
        }[method]
        for data in oracle_cases(k):
            lo, hi, flags = reference_fixed_weight_interval(data, 0.95,
                                                            wfun(data))
            if math.isinf(lo):  # both endpoints past the cap: a failure
                assert (failure, CAP_FAILURE) in estimate_all(data)[0][1]
                continue
            ci = fn(data)
            assert ci.flags == flags
            for ref, new in ((lo, ci.lo), (hi, ci.hi)):
                if math.isinf(ref):
                    assert new == ref
                else:
                    assert abs(new - ref) <= 2 * (1e-6 + 1e-5 * ref)

    def test_cap_case_flags_upper_beyond_cap(self):
        # at K = 100 only the upper endpoint is past 2^23
        ci = bj_of(oracle_cases(100)[-1])
        assert 0.0 < ci.lo < 2.0 ** 23 and math.isinf(ci.hi)
        assert ci.flags == ("upper-beyond-cap",)

    def test_lower_endpoint_past_the_cap_fails(self):
        # at K = 5 the CDF is still >= 0.975 at 2^23, so BJ and J fail there
        # as the Q-profile does at its cap, and print no [inf, inf]
        (results, failures), = estimate_all(oracle_cases(5)[-1])
        assert ("BJ", CAP_FAILURE) in failures
        assert ("J-interval", CAP_FAILURE) in failures
        assert ("QP", "Q(1e+07) still >= target 11.1433") in failures


class TestCiPL:
    def test_center_maximizes_likelihood_on_grid(self):
        rng = np.random.default_rng(41)
        data = random_meta(rng, k=7)
        r = reml_of(data)
        l_hat = restricted_loglik(data, r.value)
        grid = np.linspace(0.0, 4 * (r.value + 1.0), 1000)
        assert max(restricted_loglik(data, float(t)) for t in grid) \
            <= l_hat + 1e-7

    def test_all_equal_lo_zero(self):
        assert pl_of(FLAT).lo == 0.0

    def test_endpoints_on_likelihood_contour(self):
        rng = np.random.default_rng(43)
        data = meta(list(rng.standard_normal(6) * 1.4),
                    list(rng.uniform(0.2, 1.0, 6)))
        ci = pl_of(data)
        r = reml_of(data)
        l_hat = restricted_loglik(data, r.value)
        crit = chisq_quantile(0.95, 1.0)
        if ci.lo > 0.0:
            assert 2 * (l_hat - restricted_loglik(data, ci.lo)) == \
                pytest.approx(crit, abs=1e-5)
        assert 2 * (l_hat - restricted_loglik(data, ci.hi)) == \
            pytest.approx(crit, abs=1e-5)
        assert ci.lo <= r.value <= ci.hi


class TestHomogeneousInputs:
    def test_all_point_estimators_zero(self):
        for fn in (dl_of, mp_of, reml_of, j_of, kdb_of):
            assert fn(FLAT).value == 0.0

    def test_monotone_response_to_spread(self):
        base = np.array([-1.0, 0.2, 1.1, -0.4])
        v2s = [0.4, 0.8, 0.6, 1.0]
        for fn in (dl_of, mp_of, reml_of, j_of):
            prev = -1.0
            for c in (1.0, 1.5, 2.5):
                gbar = base.mean()
                gs = list(gbar + c * (base - gbar))
                val = fn(meta(gs, v2s)).value
                assert val >= prev - 1e-9
                prev = val
