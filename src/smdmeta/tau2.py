"""Point and interval estimators of the between-study variance tau^2.

Point estimators: DerSimonian-Laird (DL), Mandel-Paule (MP), restricted
maximum likelihood (REML), Jackson's fixed-weights moment estimator (J),
and the corrected-moment estimator (KDB) that equates Q to a first moment
corrected to O(1/n) for the SMD weight/estimate coupling, after Kulinskaya,
Dollinger and Bjorkestol (2011).

Interval estimators: Q-profile (QP), the corrected Q-profile (KDB),
Biggerstaff-Jackson (BJ) and Jackson (J) intervals based on the exact
chi-square-mixture distribution of a fixed-weights Q, and the REML-based
profile likelihood interval (PL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# unused here: bench/run.py --trace 1 wraps tau2.quad by name
from scipy.integrate import quad  # noqa: F401
from scipy.optimize import brentq
from scipy.special import gamma, gammainc, ndtri, poch, roots_laguerre

from .numkernel import (
    DomainError,
    NonConvergenceError,
    chisq_quantile,
    mixture_cdf,
)
from .qstat import (
    BRACKET_CAP,
    BracketCapExceeded,
    MetaInput,
    iv_weighted_mean,
    q_statistic,
    solve_q_equals,
)
from .smd import j_factor

# The Gauss-Laguerre moment branch runs below this df; the weight-expansion
# series (O(1/n^2) apart) avoids its raw-to-central cancellation at large n.
_SERIES_DF_MIN = 1000

# REML converges when a step moves tau2 by <= _REML_TOL (1 + tau2)
_REML_TOL = 1e-8
_REML_MAX_ITER = 200

# CDF tolerance while inverting the BJ/J mixture distribution over tau2;
# endpoint precision is set by brentq's xtol 1e-6 and rtol 1e-5 anyway.
# Bracketing steps out from the seed by _SEED_STEP, then 4x, 16x, ... that.
_MIX_TOL = 1e-5
_CAP_POINT = 2.0 ** math.floor(math.log2(BRACKET_CAP))
_SEED_GRID = np.geomspace(1e-6, _CAP_POINT, 64)
_SEED_STEP = 0.05


@dataclass(frozen=True)
class Tau2Result:
    value: float
    method: str
    status: str  # "interior" | "truncated_at_zero" | "max_iter"
    iterations: int = 0

    def __post_init__(self):
        if self.value < 0:
            raise DomainError("tau^2 estimate must be >= 0")
        if self.status == "truncated_at_zero" and self.value != 0.0:
            raise DomainError("truncated_at_zero implies value == 0")


@dataclass(frozen=True)
class Tau2Interval:
    lo: float
    hi: float  # math.inf when the upper endpoint exceeds the bracket cap
    method: str
    level: float = 0.95
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi:
            raise DomainError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must be in (0,1), got {self.level}")

    def contains(self, tau2: float) -> bool:
        return self.lo <= tau2 <= self.hi


# ---------------------------------------------------------------------------
# point estimators
# ---------------------------------------------------------------------------

def tau2_dl(data: MetaInput) -> Tau2Result:
    """DerSimonian-Laird moment estimator (closed form, truncated at zero)."""
    w = 1.0 / data.v2
    s1 = float(w.sum())
    s2 = float((w * w).sum())
    denom = s1 - s2 / s1
    if denom <= 0:
        raise DomainError("degenerate DL denominator; needs K >= 2")
    q0 = q_statistic(data, 0.0)
    raw = (q0 - (data.k - 1)) / denom
    if raw <= 0:
        return Tau2Result(0.0, "DL", "truncated_at_zero")
    return Tau2Result(raw, "DL", "interior")


def tau2_mp(data: MetaInput) -> Tau2Result:
    """Mandel-Paule estimator: solves Q(tau2) = K - 1."""
    root = solve_q_equals(data, float(data.k - 1))
    status = "truncated_at_zero" if root.status == "truncated" else "interior"
    return Tau2Result(root.value, "MP", status, root.iterations)


def restricted_loglik(data: MetaInput, tau2: float) -> float:
    """Restricted profile log-likelihood of tau2 (constants dropped)."""
    if tau2 < 0:
        raise DomainError(f"tau2 must be >= 0, got {tau2}")
    sigma2 = data.v2 + tau2
    fit = iv_weighted_mean(data, tau2)
    return -0.5 * (float(np.log(sigma2).sum()) + math.log(fit.sum_w)
                   + q_statistic(data, tau2))


def tau2_reml(data: MetaInput) -> Tau2Result:
    """REML via the damped fixed-point iteration

        tau2 <- max(0, sum w^2 ((g - mean)^2 - v^2) / sum w^2 + 1 / sum w),

    started at the DL estimate; steps that decrease the restricted
    log-likelihood are halved toward the current iterate.
    """
    t = tau2_dl(data).value
    l_cur = restricted_loglik(data, t)
    for it in range(1, _REML_MAX_ITER + 1):
        fit = iv_weighted_mean(data, t)
        w2 = fit.weights ** 2
        resid2 = (data.g - fit.mean) ** 2
        prop = float((w2 * (resid2 - data.v2)).sum()) / float(w2.sum()) \
            + 1.0 / fit.sum_w
        prop = max(0.0, prop)
        l_prop = restricted_loglik(data, prop)
        halvings = 0
        while l_prop < l_cur - 1e-13 and halvings < 30:
            prop = 0.5 * (prop + t)
            l_prop = restricted_loglik(data, prop)
            halvings += 1
        done = abs(prop - t) <= _REML_TOL * (1.0 + prop)
        t, l_cur = prop, l_prop
        if done:
            status = "truncated_at_zero" if t == 0.0 else "interior"
            return Tau2Result(t, "REML", status, it)
    return Tau2Result(t, "REML", "max_iter", _REML_MAX_ITER)


def tau2_jackson(data: MetaInput) -> Tau2Result:
    """Jackson's moment estimator with fixed weights u_i = 1/v_i.

    With U = sum u and c_i = u_i - u_i^2/U, E[Q_gen] = sum c_i (v_i^2 + tau2),
    so tau2 is estimated by (Q_gen - sum c_i v_i^2) / sum c_i, truncated at 0.
    """
    u = 1.0 / np.sqrt(data.v2)
    big_u = float(u.sum())
    gbar = float((u * data.g).sum()) / big_u
    q_gen = float((u * (data.g - gbar) ** 2).sum())
    c = u - u * u / big_u
    raw = (q_gen - float((c * data.v2).sum())) / float(c.sum())
    if raw <= 0:
        return Tau2Result(0.0, "J", "truncated_at_zero")
    return Tau2Result(raw, "J", "interior")


# ---------------------------------------------------------------------------
# corrected expected value of Q (the KDB moment target)
# ---------------------------------------------------------------------------
#
# Under homogeneity at a common effect d, each study contributes
#   g = sqrt(kappa) (Z + c) / sqrt(X),  kappa = J^2 m / ntilde,
#   c = sqrt(ntilde) d,  Z ~ N(0,1),  X ~ chi2_m,
# and the estimated-variance weight is psi(g) = 1/(a + b g^2) with
# a = 1/ntilde, b = 1 - (m-2)/(m J^2).  Because psi depends on g, K - 1
# misses the first moment of Q = sum psi_i (g_i - gbar)^2 by O(1/n).
#
# Through 1/(aX + b kappa (Z+c)^2)^p = (1/Gamma(p)) int t^{p-1} e^{-t(...)} dt,
# whose X- and Z-factors are closed-form, and t = s / (2a(1-s)),
#   E[g^j psi^p] = pref (2a)^{-p} int_0^1 s^{p-1} (1-s)^{alpha_j}
#                  e^{-(c^2 r/2) s/h} R_j(s) ds,
# with r = b J^2 m, h = 1 - s + r s, alpha_0 = alpha_2 = (m-1)/2,
# alpha_1 = m/2, R_0 = h^{-1/2}, R_1 = c h^{-3/2} and
# R_2 = (1 + c^2 (1-s)/h) h^{-3/2}.  Then 1 - s = e^{-v/beta_j}, with
# beta_j = alpha_j + 1 + c^2 r/2 matching both decay rates at s = 0, leaves
# e^{-v} times a smooth factor, and one fixed Gauss-Laguerre rule (Golub and
# Welsch 1969) is within 1e-14 of 30-digit values for m < 1000, |d| <= 50.
#
# E[Q] then follows from a second-order expansion of the ratio
# (sum psi x)^2 / sum psi around its mean, the only O(1/n^2) truncation left.

_LAGUERRE_X, _LAGUERRE_W = roots_laguerre(64)
# Gamma((m-1)/2) / Gamma(m/2) for m < _SERIES_DF_MIN by R(m+2) = R(m) (m-1)/m,
# within 2e-15 where a difference of log-gammas keeps only 1e-12
_GAMMA_RATIO = np.full(_SERIES_DF_MIN, np.nan)
_GAMMA_RATIO[2:4] = math.sqrt(math.pi), 2.0 / math.sqrt(math.pi)
for _m in range(2, _SERIES_DF_MIN - 2):
    _GAMMA_RATIO[_m + 2] = _GAMMA_RATIO[_m] * (_m - 1) / _m


def _e_gj_psip(m, eff_n, jf, b, d: float) -> np.ndarray:
    """E[g^j psi^p], j = 0..2, p = 1..4, as (S, 3, 4) from (S, 1, 1) args."""
    c = np.sqrt(eff_n) * d
    r = b * jf * jf * m
    half_c2r = 0.5 * c * c * r
    j, p = np.arange(3.0)[:, None], np.arange(1.0, 5.0)
    beta = (m + j % 2 + 1.0) / 2.0 + half_c2r  # alpha_j + 1 + c^2 r/2
    v = _LAGUERRE_X / beta
    s = -np.expm1(-v)
    one_s = np.exp(-v)
    h = one_s + r * s
    f = np.exp(np.log(_LAGUERRE_W) + half_c2r * (v - s / h) - 1.5 * np.log(h))
    f *= np.concatenate([h[:, :1], np.broadcast_to(c, h[:, 1:2].shape),
                         1.0 + c * c * one_s[:, 2:] / h[:, 2:]], axis=1)
    powers = np.stack([np.ones_like(s), s, s * s, s * s * s], axis=-2)
    integral = (powers @ f[..., None])[..., 0]  # (S, 3, 4): p - 1 = 0..3
    # pref (2a)^{-p} / beta_j, its gamma ratio as a rising factorial
    scale = ((jf * jf * m / (2.0 * eff_n)) ** (j / 2.0)
             * _GAMMA_RATIO[m.astype(int)] ** (j % 2))
    rising = poch((m - j % 2) / 2.0, p - j // 2)
    return scale * eff_n ** p * rising / (gamma(p) * beta) * integral


_MOMENT_KEYS = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
                (3, 1), (3, 2), (4, 2))


def _psi_x_moments_series(m, eff_n, jf, b, d):
    """Large-m branch: expand psi^p around x = 0 with exact central moments."""
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
    # coefficients of x^s in (psi/w)^p for s = 0..4: the p-th power of the
    # p = 1 series, truncated at x^4
    coef = {1: np.array([1.0, c1, c2, c3, c4])}
    for p in (2, 3, 4):
        coef[p] = np.convolve(coef[p - 1], coef[1])[:5]
    # truncate at total moment order 4; remainder is O(1/n^2) relative
    return [w ** p * sum(coef[p][s] * mu[s + r] for s in range(5 - r))
            for p, r in _MOMENT_KEYS]


def _psi_moments(arm_sizes, d: float) -> np.ndarray:
    """E[psi^p x^r] in _MOMENT_KEYS order, one row per (n_t, n_c) pair."""
    sizes, study = np.unique(arm_sizes, axis=0, return_inverse=True)
    n_t, n_c = sizes.T
    m = n_t + n_c - 2.0
    jf = np.array([j_factor(int(k)) for k in m])
    args = np.array([m, n_t * n_c / (n_t + n_c), jf,
                     1.0 - (m - 2) / (m * jf * jf)])
    series = m >= _SERIES_DF_MIN
    raw = _e_gj_psip(*args[:, ~series, None, None], d)
    out = np.empty((len(m), len(_MOMENT_KEYS)))
    out[~series] = np.stack([sum(math.comb(r, j) * (-d) ** (r - j)
                                 * raw[:, j, p - 1] for j in range(r + 1))
                             for p, r in _MOMENT_KEYS], axis=1)
    for i in np.flatnonzero(series):
        out[i] = _psi_x_moments_series(*args[:, i].tolist(), d)
    return out[study]


def corrected_expected_q(data: MetaInput, effect: float | None = None) -> float:
    """First moment of Q(0) corrected for the coupling between g and its
    estimated-variance weight, evaluated at a plug-in common effect.

    The plug-in defaults to the sample-size-weighted mean, which does not
    depend on the estimated variances.  Tends to K - 1 as all n_i grow.

    This is the homogeneity (tau^2 = 0) moment that Kulinskaya, Dollinger
    and Bjorkestol (2011, Biometrics 67:203) derive, so `tau2_kdb` and
    `ci_kdb` use the same value whatever tau^2 they test.
    """
    if effect is None:
        effect = float((data.eff_n * data.g).sum() / data.eff_n.sum())
    ep, er, es, e20, e21, e22, e31, e32, e42 = \
        _psi_moments(data.arm_sizes, effect).T
    var_r = e22 - er ** 2
    cov_rp = e21 - er * ep
    cov_r2p = e32 - e22 * ep
    e_rp2 = e31 - 2.0 * ep * e21 + ep ** 2 * er
    var_p = e20 - ep ** 2
    t4 = e42 - 2.0 * ep * e32 + ep ** 2 * e22
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
    expected = float(es.sum()) - (e_n / w_tot - e_nd / w_tot ** 2
                                  + e_nd2 / w_tot ** 3)
    if not (math.isfinite(expected) and expected > 0):
        raise NonConvergenceError(
            f"corrected E[Q] came out non-positive ({expected}) at "
            f"effect={effect}")
    return expected


def tau2_kdb(data: MetaInput, expected_q: float) -> Tau2Result:
    """Corrected-moment estimator: solves Q(tau2) = expected_q, the value of
    `corrected_expected_q(data)`.

    The target is the tau^2-free homogeneity moment of Kulinskaya,
    Dollinger and Bjorkestol (2011, Biometrics 67:203), used unchanged at
    every tau^2 the root search visits.
    """
    root = solve_q_equals(data, expected_q)
    status = "truncated_at_zero" if root.status == "truncated" else "interior"
    return Tau2Result(root.value, "KDB", status, root.iterations)


# ---------------------------------------------------------------------------
# interval estimators
# ---------------------------------------------------------------------------

def _q_profile(data: MetaInput, level: float, df: float,
               method: str) -> Tau2Interval:
    alpha = 1.0 - level
    flags: list[str] = []
    lo = solve_q_equals(data, chisq_quantile(1.0 - alpha / 2.0, df)).value
    try:
        hi = solve_q_equals(data, chisq_quantile(alpha / 2.0, df)).value
    except BracketCapExceeded:
        hi = math.inf
        flags.append("upper-beyond-cap")
    return Tau2Interval(lo, hi, method, level, tuple(flags))


def ci_qp(data: MetaInput, level: float = 0.95) -> Tau2Interval:
    """Q-profile interval: inverts Q(tau2) at chi-squared(K-1) quantiles."""
    return _q_profile(data, level, float(data.k - 1), "QP")


def ci_kdb(data: MetaInput, expected_q: float,
           level: float = 0.95) -> Tau2Interval:
    """Q-profile interval at fractional-df quantiles, df = expected_q, the
    value of `corrected_expected_q(data)`."""
    return _q_profile(data, level, expected_q, "KDB")


def _satterthwaite_roots(weights: np.ndarray, v2: np.ndarray, q_obs: float,
                         targets: np.ndarray) -> np.ndarray:
    """tau2 where the two-moment fit Q ~ c chi2_nu, c = tr(M^2)/tr(M) and
    nu = tr(M)^2/tr(M^2), puts P(Q <= q_obs) at each target.  With
    d = v^2 + tau2, tr(M) = sum (w - w^2/S) d and tr(M^2) =
    sum (w^2 - 2 w^3/S) d^2 + (sum w^2 d)^2/S^2 are quadratics in tau2."""
    s = float(weights.sum())
    w2 = weights * weights
    pw = np.vstack((np.ones_like(v2), v2, v2 * v2))
    a0, a1 = pw[:2] @ (weights - w2 / s)
    b0, b1, b2 = pw @ (w2 - 2.0 * w2 * weights / s)
    c0, c1 = pw[:2] @ w2
    t = _SEED_GRID
    tr1 = a1 + a0 * t
    tr2 = b2 + (2.0 * b1 + b0 * t) * t + ((c1 + c0 * t) / s) ** 2
    cdf = gammainc(0.5 * tr1 * tr1 / tr2, 0.5 * q_obs * tr1 / tr2)
    # interpolate the probit of the CDF, which is near-linear in log tau2
    z = ndtri(np.clip(cdf, 1e-15, 1.0 - 1e-15))
    return np.exp(np.interp(-ndtri(targets), -z, np.log(t)))


def _fixed_weight_interval(data: MetaInput, level: float, weights: np.ndarray,
                           method: str) -> Tau2Interval:
    """Invert the exact CDF of a fixed-weights Q over candidate tau2.

    Under the model, Q_obs = sum w (g - gbar_w)^2 is a quadratic form in the
    g's whose distribution at a given tau2 is a chi-square mixture with
    coefficients equal to the nonzero eigenvalues of
    D(tau2)^{1/2} A D(tau2)^{1/2}, A = diag(w) - w w'/sum w.

    Each endpoint is seeded by the two-moment (Satterthwaite) fit, bracketed
    by stepping the exact CDF out from the seed in growing steps, and solved
    by brentq, which finds the bracket ends' CDF values already computed.
    The upper endpoint is infinite if the CDF is still >= alpha/2 at 2^23.
    """
    alpha = 1.0 - level
    flags: list[str] = []
    sum_w = float(weights.sum())
    gbar = float((weights * data.g).sum()) / sum_w
    q_obs = float((weights * (data.g - gbar) ** 2).sum())
    if q_obs <= 0.0:
        return Tau2Interval(0.0, 0.0, method, level, ("degenerate",))
    a_mat = np.diag(weights) - np.outer(weights, weights) / sum_w
    known: dict[float, float] = {}

    def cdf_at(tau2: float) -> float:
        if tau2 not in known:
            droot = np.sqrt(data.v2 + tau2)
            # the K - 1 largest eigenvalues (the smallest is 0), descending:
            # Ruben's series sums them in this order
            lam = np.linalg.eigvalsh(a_mat * np.outer(droot, droot))[:0:-1]
            known[tau2] = mixture_cdf(q_obs, lam[lam > 0.0], tol=_MIX_TOL)
        return known[tau2]

    f_at_zero = cdf_at(0.0)

    def solve(target: float, seed: float) -> float:
        if f_at_zero <= target:
            return 0.0
        x, step = min(seed, _CAP_POINT), _SEED_STEP
        up = cdf_at(x) >= target
        prev, sign = x, (1.0 if up else -1.0)
        while (cdf_at(x) >= target) == up:
            if up and x >= _CAP_POINT:
                return math.inf
            prev, x = x, min(x * (1.0 + step) ** sign, _CAP_POINT)
            step *= 4.0
        return float(brentq(lambda t: cdf_at(t) - target, min(prev, x),
                            max(prev, x), xtol=1e-6, rtol=1e-5))

    targets = (alpha / 2.0, 1.0 - alpha / 2.0)
    seeds = _satterthwaite_roots(weights, data.v2, q_obs, np.array(targets))
    hi, lo = (solve(p, float(x)) for p, x in zip(targets, seeds))
    cdfs = [f for _, f in sorted(known.items())]
    if any(f1 > f0 + 32.0 * _MIX_TOL for f0, f1 in zip(cdfs, cdfs[1:])):
        flags.append("nonmonotone-cdf")
    if math.isinf(hi):
        flags.append("upper-beyond-cap")
    return Tau2Interval(lo, hi, method, level, tuple(flags))


def ci_bj(data: MetaInput, level: float = 0.95) -> Tau2Interval:
    """Biggerstaff-Jackson interval: exact CDF inversion of Q with
    inverse-variance weights w_i = 1/v_i^2."""
    return _fixed_weight_interval(data, level, 1.0 / data.v2, "BJ")


def ci_jackson(data: MetaInput, level: float = 0.95) -> Tau2Interval:
    """Jackson's interval: as BJ but with weights u_i = 1/v_i."""
    return _fixed_weight_interval(data, level, 1.0 / np.sqrt(data.v2), "J")


def ci_pl(data: MetaInput, reml: Tau2Result,
          level: float = 0.95) -> Tau2Interval:
    """Profile-likelihood interval around reml, the tau2_reml(data) estimate:

        { tau2 >= 0 : 2 (l(tau2_REML) - l(tau2)) <= chi2_{1; level} }.
    """
    crit = chisq_quantile(level, 1.0)
    center = reml.value
    l_hat = restricted_loglik(data, center)
    l_zero = restricted_loglik(data, 0.0)
    if l_zero > l_hat:
        # fixed point stopped short of the boundary maximum
        center, l_hat = 0.0, l_zero
    flags: list[str] = []

    def h(tau2: float) -> float:
        return 2.0 * (l_hat - restricted_loglik(data, tau2)) - crit

    if h(0.0) <= 0.0:
        lo = 0.0
    else:
        lo = float(brentq(h, 0.0, center, xtol=1e-10, rtol=1e-8))

    br_lo = center
    br = max(1.0, 2.0 * center)
    while h(br) <= 0.0:
        br_lo = br
        br *= 2.0
        if br > BRACKET_CAP:
            br = math.inf
            break
    if math.isinf(br):
        hi = math.inf
        flags.append("upper-beyond-cap")
    else:
        hi = float(brentq(h, br_lo, br, xtol=1e-10, rtol=1e-8))

    if abs(l_hat - l_zero) < 1e-12 and (math.isinf(br)
                                        or abs(l_hat - restricted_loglik(data, br)) < 1e-12):
        flags.append("flat-likelihood")
    return Tau2Interval(lo, hi, "PL", level, tuple(flags))
