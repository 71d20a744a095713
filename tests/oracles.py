"""The scalar estimators that the batched battery replaced, kept as its
oracle: one replicate and one target at a time, as they were before every
chunk of replicates became one MetaBatch, and the BJ and J intervals as they
were before a batch found them in lock-step, and REML and PL as they were
before their rows iterated in lock-step.  The batched code must match them
bit for bit.  Each takes a batch of one and reads its row 0, but
`simulate_batch`, the replicates as they were drawn one `sample_g` at a
time, each on a fresh generator.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import gamma, gammainc, ndtri, poch

from smdmeta.effect import EffectInterval, EffectResult
from smdmeta.numkernel import (
    DomainError,
    NonConvergenceError,
    RandomStream,
    chisq_quantile,
    derive_stream_id,
    mixture_cdf,
    normal_quantile,
    t_quantile,
)
from smdmeta.qstat import (
    _MAX_BISECT,
    _REL_TOL,
    BRACKET_CAP,
    BracketCapExceeded,
    MetaBatch,
    Tau2Result,
)
from smdmeta.simlab import study_sizes
from smdmeta.smd import b_factor, j_factor, sample_g
from smdmeta.tau2 import (
    _CAP_POINT,
    _LAGUERRE_W,
    _LAGUERRE_X,
    _MIX_TOL,
    _MOMENT_KEYS,
    _REML_MAX_ITER,
    _REML_TOL,
    _SEED_STEP,
    _SEED_GRID,
    _SERIES_DF_MIN,
    Tau2Interval,
)

oracle = sys.modules[__name__]


@dataclass(frozen=True)
class Row:
    """Row 0 of a batch of one, as the scalar code read one input: 1-D g,
    v2 and eff_n."""

    g: np.ndarray
    v2: np.ndarray
    eff_n: np.ndarray
    arm_sizes: tuple
    k: int


def one_row(fn):
    """fn on the Row of the batch of one passed as its first argument (a Row
    passes through)."""
    @functools.wraps(fn)
    def on_row(data, *args, **kwargs):
        if isinstance(data, MetaBatch):
            if len(data) != 1:
                raise ValueError(f"an oracle takes a batch of one, got "
                                 f"{len(data)} rows")
            data = Row(data.g[0], data.v2[0], data.eff_n, data.arm_sizes,
                       data.k)
        return fn(data, *args, **kwargs)

    return on_row


@dataclass(frozen=True)
class WeightedFit:
    """Weights, weighted mean, and total weight of one fit."""

    weights: np.ndarray
    mean: float
    sum_w: float


@one_row
def iv_weighted_mean(data: Row, tau2: float) -> WeightedFit:
    """Inverse-variance weighted mean with weights 1/(v_i^2 + tau2).

    numpy's pairwise summation keeps the K <= ~100 sums well conditioned.
    """
    if tau2 < 0:
        raise DomainError(f"tau2 must be >= 0, got {tau2}")
    w = 1.0 / (data.v2 + tau2)
    sum_w = float(w.sum())
    if not sum_w > 0.0:  # every weight underflowed
        raise NonConvergenceError(f"sum of weights is {sum_w} at tau2 = "
                                  f"{tau2:g}")
    return WeightedFit(weights=w, mean=float((w * data.g).sum()) / sum_w,
                       sum_w=sum_w)


@one_row
def _q_terms(data: Row, tau2: float) -> tuple[WeightedFit, np.ndarray]:
    """The fit at tau2 and the terms w_i (g_i - mean)^2 that sum to Q(tau2)."""
    fit = iv_weighted_mean(data, tau2)
    resid = data.g - fit.mean
    return fit, fit.weights * resid * resid


@one_row
def q_statistic(data: Row, tau2: float) -> float:
    """Generalized Cochran statistic Q(tau2) = sum w_i (g_i - mean)^2 with the
    mean recomputed at the same tau2.  Non-increasing in tau2."""
    return float(_q_terms(data, tau2)[1].sum())


@one_row
def solve_q_equals(data: Row, target: float) -> Tau2Result:
    """Solve Q(tau2) = target for tau2 >= 0 on the strictly decreasing branch.

    Returns tau2 = 0 with status "truncated_at_zero" when Q(0) <= target.
    Otherwise doubles from min(max(1, Q(0) max v^2), 1e7) to a bracket, or
    raises BracketCapExceeded past 1e7, and bisects until |Q - target| <= tol =
    1e-8 target.  Midpoints, stop rule and result are plain bisection's, but Q
    is evaluated only where monotonicity cannot decide: Newton on 1/Q and two
    probes find a < b with computed Q(a) > target + tol + margin and Q(b) <
    target - tol - margin, and midpoints <= a or >= b are passed.  A computed Q
    is within rho Q + S0 e^2 of the exact one: rho = (K + 6) eps (weights, sum
    of K nonnegative terms), e = (K + 1) eps max|g| (the mean), S0 = sum 1/v^2
    >= sum w.  margin = 4 rho target + 2 S0 e^2.
    """
    if not target > 0:
        raise DomainError(f"target must be > 0, got {target}")
    tol = _REL_TOL * target
    q_terms_at_zero = _q_terms(data, 0.0)
    e_mean = (data.k + 1) * np.finfo(float).eps * float(np.abs(data.g).max())
    margin = 4.0 * (data.k + 6) * np.finfo(float).eps * target \
        + 2.0 * q_terms_at_zero[0].sum_w * e_mean * e_mean
    a, b = 0.0, BRACKET_CAP  # no midpoint reaches either

    def evaluate(tau2: float) -> tuple[float, float]:
        nonlocal a, b
        fit, terms = _q_terms(data, tau2) if tau2 else q_terms_at_zero
        q = float(terms.sum())
        a = tau2 if q > target + tol + margin else a
        b = tau2 if q < target - tol - margin else b
        return q, -float((fit.weights * terms).sum())

    q, dq = evaluate(0.0)
    if q <= target:
        return Tau2Result(0.0, "truncated_at_zero")

    lo, hi = 0.0, min(max(1.0, q * float(data.v2.max())), BRACKET_CAP)
    while (q_hi := evaluate(hi))[0] >= target:
        lo, (q, dq) = hi, q_hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise BracketCapExceeded(
                f"Q({BRACKET_CAP:g}) still >= target {target:g}")

    # Newton on 1/Q from Q >= target does not overshoot where 1/Q is concave.
    # Its error squares: within 1e-4 target, probe at Q ~ target -+ 1.5 tol.
    x = lo
    for _ in range(8):
        if not dq < 0.0:
            break
        x_next = x + (target - q) / target * q / dq
        if abs(q - target) <= 1e-4 * target:
            for probe in (x_next - 1.5 * tol / dq, x_next + 1.5 * tol / dq):
                if a < probe < b:
                    evaluate(probe)
            break
        x = x_next if a < x_next < b else 0.5 * (a + b)
        q, dq = evaluate(x)

    for it in range(1, _MAX_BISECT + 1):
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            q = evaluate(mid)[0]
            if abs(q - target) <= tol:
                return Tau2Result(mid, "interior", it)
        if mid <= a or (mid < b and q > target):
            lo = mid
        else:
            hi = mid
    raise NonConvergenceError(
        f"bisection did not reach |Q - target| <= {tol:g} in {_MAX_BISECT} "
        f"steps; bracket [{lo:g}, {hi:g}]")


@one_row
def tau2_dl(data: Row) -> Tau2Result:
    """DerSimonian-Laird moment estimator (closed form, truncated at zero)."""
    fit, terms = _q_terms(data, 0.0)
    denom = fit.sum_w - float((fit.weights * fit.weights).sum()) / fit.sum_w
    if denom <= 0:
        raise DomainError("degenerate DL denominator; needs K >= 2")
    raw = (float(terms.sum()) - (data.k - 1)) / denom
    if raw <= 0:
        return Tau2Result(0.0, "truncated_at_zero")
    return Tau2Result(raw, "interior")


@one_row
def tau2_mp(data: Row) -> Tau2Result:
    """Mandel-Paule estimator: solves Q(tau2) = K - 1."""
    return solve_q_equals(data, float(data.k - 1))


@one_row
def _loglik_and_fit(data: Row, tau2: float):
    fit, q_terms = _q_terms(data, tau2)
    return -0.5 * (float(np.log(data.v2 + tau2).sum()) + math.log(fit.sum_w)
                   + float(q_terms.sum())), fit


@one_row
def restricted_loglik(data: Row, tau2: float) -> float:
    """Restricted profile log-likelihood of tau2 (constants dropped)."""
    return _loglik_and_fit(data, tau2)[0]


@one_row
def tau2_reml(data: Row, dl: Tau2Result) -> Tau2Result:
    """REML via the damped fixed-point iteration

        tau2 <- max(0, sum w^2 ((g - mean)^2 - v^2) / sum w^2 + 1 / sum w),

    started at dl, the tau2_dl(data) estimate; steps that decrease the
    restricted log-likelihood are halved toward the current iterate.
    """
    t = dl.value
    l_cur, fit = _loglik_and_fit(data, t)
    for it in range(1, _REML_MAX_ITER + 1):
        w2 = fit.weights ** 2
        sum_w2 = float(w2.sum())
        if not sum_w2 > 0:
            raise NonConvergenceError(f"sum w^2 underflowed at tau2 = {t:g}")
        resid2 = (data.g - fit.mean) ** 2
        prop = float((w2 * (resid2 - data.v2)).sum()) / sum_w2 \
            + 1.0 / fit.sum_w
        prop = max(0.0, prop)
        l_prop, fit_prop = _loglik_and_fit(data, prop)
        halvings = 0
        while l_prop < l_cur - 1e-13 and halvings < 30:
            prop = 0.5 * (prop + t)
            l_prop, fit_prop = _loglik_and_fit(data, prop)
            halvings += 1
        done = abs(prop - t) <= _REML_TOL * (1.0 + prop)
        t, l_cur, fit = prop, l_prop, fit_prop
        if done:
            status = "truncated_at_zero" if t == 0.0 else "interior"
            return Tau2Result(t, status, it)
    return Tau2Result(t, "max_iter", _REML_MAX_ITER)


@one_row
def tau2_jackson(data: Row) -> Tau2Result:
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
        return Tau2Result(0.0, "truncated_at_zero")
    return Tau2Result(raw, "interior")



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
    scale = ((jf * jf * m / (2.0 * eff_n)) ** (j // 2)
             / np.sqrt(eff_n) ** (j % 2))
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
    args = np.array([m, n_t * n_c / (n_t + n_c),
                     [j_factor(int(k)) for k in m],
                     [b_factor(int(k)) for k in m]])
    series = m >= _SERIES_DF_MIN
    raw = _e_gj_psip(*args[:, ~series, None, None], d)
    out = np.empty((len(m), len(_MOMENT_KEYS)))
    out[~series] = np.stack([sum(math.comb(r, j) * (-d) ** (r - j)
                                 * raw[:, j, p - 1] for j in range(r + 1))
                             for p, r in _MOMENT_KEYS], axis=1)
    for i in np.flatnonzero(series):
        out[i] = _psi_x_moments_series(*args[:, i].tolist(), d)
    return out[study]


@one_row
def corrected_expected_q(data: Row, effect: float | None = None) -> float:
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


@one_row
def tau2_kdb(data: Row, expected_q: float) -> Tau2Result:
    """Corrected-moment estimator: solves Q(tau2) = expected_q, the value of
    `corrected_expected_q(data)`.

    The target is the tau^2-free homogeneity moment of Kulinskaya,
    Dollinger and Bjorkestol (2011, Biometrics 67:203), used unchanged at
    every tau^2 the root search visits.
    """
    return solve_q_equals(data, expected_q)


@one_row
def _q_profile(data: Row, level: float, df: float) -> Tau2Interval:
    alpha = 1.0 - level
    flags: list[str] = []
    lo = solve_q_equals(data, chisq_quantile(1.0 - alpha / 2.0, df)).value
    try:
        hi = solve_q_equals(data, chisq_quantile(alpha / 2.0, df)).value
    except BracketCapExceeded:
        hi = math.inf
        flags.append("upper-beyond-cap")
    return Tau2Interval(lo, hi, level, tuple(flags))


@one_row
def ci_qp(data: Row, level: float = 0.95) -> Tau2Interval:
    """Q-profile interval: inverts Q(tau2) at chi-squared(K-1) quantiles."""
    return _q_profile(data, level, float(data.k - 1))


@one_row
def ci_kdb(data: Row, expected_q: float,
           level: float = 0.95) -> Tau2Interval:
    """Q-profile interval at fractional-df quantiles, df = expected_q, the
    value of `corrected_expected_q(data)`."""
    return _q_profile(data, level, expected_q)



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


@one_row
def _fixed_weight_interval(data: Row, level: float, weights: np.ndarray,
                           coefficients) -> Tau2Interval:
    """Invert the exact CDF of a fixed-weights Q over candidate tau2.

    Under the model, Q_obs = sum w (g - gbar_w)^2 is a quadratic form in the
    g's whose distribution at a given tau2 is a chi-square mixture with
    coefficients `coefficients(tau2)`: the nonzero eigenvalues, descending,
    of D(tau2)^{1/2} A D(tau2)^{1/2}, A = diag(w) - w w'/sum w.

    Each endpoint is seeded by the two-moment (Satterthwaite) fit, bracketed
    by stepping the exact CDF out from the seed in growing steps, and solved
    by brentq, which finds the bracket ends' CDF values already computed.
    The upper endpoint is infinite if the CDF is still >= alpha/2 at 2^23;
    a lower one, still >= 1 - alpha/2 there, fails the interval.
    Coefficients that are not finite, negative or all 0 fail the interval.
    """
    alpha = 1.0 - level
    flags: list[str] = []
    sum_w = float(weights.sum())
    gbar = float((weights * data.g).sum()) / sum_w
    q_obs = float((weights * (data.g - gbar) ** 2).sum())
    if not math.isfinite(q_obs):
        raise NonConvergenceError(f"fixed-weight Q is {q_obs}")
    if q_obs <= 0.0:
        return Tau2Interval(0.0, 0.0, level, ("degenerate",))
    known: dict[float, float] = {}

    def cdf_at(tau2: float) -> float:
        if tau2 not in known:
            lam = coefficients(tau2)
            if not np.isfinite(lam).all():
                raise NonConvergenceError(
                    f"mixture coefficients at tau2 = {tau2:g} overflowed")
            if (lam < 0.0).any() or not (lam > 0.0).any():
                raise NonConvergenceError(f"mixture coefficients at tau2 = "
                                          f"{tau2:g} are negative or all 0")
            known[tau2] = mixture_cdf(q_obs, lam, tol=_MIX_TOL)
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
    if math.isinf(lo):
        raise NonConvergenceError(f"CDF({_CAP_POINT:g}) still >= target "
                                  f"{targets[1]:g}")
    cdfs = [f for _, f in sorted(known.items())]
    if any(f1 > f0 + 32.0 * _MIX_TOL for f0, f1 in zip(cdfs, cdfs[1:])):
        flags.append("nonmonotone-cdf")
    if math.isinf(hi):
        flags.append("upper-beyond-cap")
    return Tau2Interval(lo, hi, level, tuple(flags))


def _eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Descending eigenvalues but the smallest; NaN for a matrix that is not
    finite."""
    if not np.isfinite(mat).all():
        return np.full(len(mat) - 1, math.nan)
    return np.linalg.eigvalsh(mat)[:0:-1]


@one_row
def ci_bj(data: Row, level: float = 0.95) -> Tau2Interval:
    """Biggerstaff-Jackson interval: as W^{1/2} D W^{1/2} = I + tau2 W for
    weights w_i = 1/v_i^2, the coefficients are 1 + tau2 mu, mu the K - 1
    nonzero eigenvalues of A: one eigendecomposition per interval."""
    w = 1.0 / data.v2
    mu = _eigenvalues(np.diag(w) - np.outer(w, w) / w.sum())
    return _fixed_weight_interval(data, level, w, lambda t: 1.0 + t * mu)


@one_row
def ci_jackson(data: Row, level: float = 0.95) -> Tau2Interval:
    """Jackson's interval: as BJ but with weights u_i = 1/v_i, whose
    coefficients take one eigendecomposition per tau2; rounded eigenvalues
    below 0 drop out."""
    u = 1.0 / np.sqrt(data.v2)
    a_mat = np.diag(u) - np.outer(u, u) / u.sum()

    def coefficients(tau2: float) -> np.ndarray:
        droot = np.sqrt(data.v2 + tau2)
        return np.maximum(0.0, _eigenvalues(a_mat * np.outer(droot, droot)))

    return _fixed_weight_interval(data, level, u, coefficients)


def _pl_root(h, a: float, b: float) -> float:
    """brentq's root of h in [a, b], or the NonConvergenceError of a search
    that ran out of steps."""
    root, info = brentq(h, a, b, xtol=1e-10, rtol=1e-8, full_output=True,
                        disp=False)
    if not info.converged:
        raise NonConvergenceError(f"profile-likelihood endpoint in "
                                  f"[{a:g}, {b:g}]: {info.flag}")
    return float(root)


@one_row
def ci_pl(data: Row, reml: Tau2Result,
          level: float = 0.95) -> Tau2Interval:
    """Profile-likelihood interval around reml, a tau2_reml(data, dl) result:

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
        lo = _pl_root(h, 0.0, center)

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
        hi = _pl_root(h, br_lo, br)

    if abs(l_hat - l_zero) < 1e-12 and (math.isinf(br)
                                        or abs(l_hat - restricted_loglik(data, br)) < 1e-12):
        flags.append("flat-likelihood")
    return Tau2Interval(lo, hi, level, tuple(flags))


@one_row
def effect_iv(data: Row, tau2: Tau2Result) -> EffectResult:
    """Inverse-variance weighted mean with weights 1/(v_i^2 + tau2);
    variance estimated conventionally as 1/sum(w)."""
    fit = iv_weighted_mean(data, tau2.value)
    return EffectResult(fit.mean, 1.0 / fit.sum_w)


@one_row
def ssw_variance(data: Row, tau2: float) -> float:
    """Variance of the sample-size-weighted mean:
    sum ntilde^2 (v^2 + tau2) / (sum ntilde)^2."""
    if tau2 < 0:
        raise DomainError(f"tau2 must be >= 0, got {tau2}")
    en = data.eff_n
    return float((en * en * (data.v2 + tau2)).sum()) / float(en.sum()) ** 2


@one_row
def effect_ssw(data: Row, kdb: Tau2Result) -> EffectResult:
    """Sample-size-weighted mean, weights ntilde_i.

    The reported variance is `ssw_variance` at kdb, the `tau2_kdb` estimate;
    the point estimate itself never depends on the variances.
    """
    en = data.eff_n
    value = float((en * data.g).sum()) / float(en.sum())
    return EffectResult(value, ssw_variance(data, kdb.value))


@one_row
def ci_z(data: Row, iv: EffectResult, level: float = 0.95) -> EffectInterval:
    """Normal-quantile interval around iv, an `effect_iv` mean."""
    z = normal_quantile(1.0 - (1.0 - level) / 2.0)
    return EffectInterval(iv.value, z * math.sqrt(iv.variance), level)


@one_row
def ci_hksj(data: Row, tau2: Tau2Result, iv: EffectResult,
            level: float = 0.95) -> EffectInterval:
    """Hartung-Knapp-Sidik-Jonkman interval around iv, the `effect_iv` mean
    at tau2: the weighted residual variance sum w (g - center)^2 /
    ((K-1) sum w) of its weights w = 1/(v^2 + tau2) and a t quantile on
    K - 1 degrees of freedom.

    All-equal inputs give a zero half-width, flagged "degenerate" rather
    than raised, so simulation coverage accounting can proceed.
    """
    w = 1.0 / (data.v2 + tau2.value)
    resid = data.g - iv.value
    var_star = float((w * resid * resid).sum()) \
        / ((data.k - 1) * float(w.sum()))
    degenerate = float(np.abs(resid).max()) <= 1e-12 * max(1.0, abs(iv.value))
    if degenerate:
        var_star = 0.0
    flags = ("degenerate",) if degenerate else ()
    t = t_quantile(1.0 - (1.0 - level) / 2.0, data.k - 1)
    return EffectInterval(iv.value, t * math.sqrt(var_star), level, flags)


@one_row
def ci_ssw_kdb(data: Row, ssw: EffectResult,
               level: float = 0.95) -> EffectInterval:
    """t interval centered at ssw, the `effect_ssw` mean, with its
    sample-size-weight variance at the KDB tau^2 estimate."""
    t = t_quantile(1.0 - (1.0 - level) / 2.0, data.k - 1)
    return EffectInterval(ssw.value, t * math.sqrt(ssw.variance), level)


ESTIMATORS = (
    ("DL", "tau2_est", "DL", oracle, "tau2_dl", []),
    ("MP", "tau2_est", "MP", oracle, "tau2_mp", []),
    ("REML", "tau2_est", "REML", oracle, "tau2_reml", [("tau2_est", "DL")]),
    ("J", "tau2_est", "J", oracle, "tau2_jackson", []),
    ("KDB", "expected_q", "KDB", oracle, "corrected_expected_q", []),
    ("KDB", "tau2_est", "KDB", oracle, "tau2_kdb", [("expected_q", "KDB")]),
    ("QP", "tau2_cover", "QP", oracle, "ci_qp", []),
    ("BJ", "tau2_cover", "BJ", oracle, "ci_bj", []),
    ("J-interval", "tau2_cover", "J", oracle, "ci_jackson", []),
    ("PL", "tau2_cover", "PL", oracle, "ci_pl", [("tau2_est", "REML")]),
    ("KDB-interval", "tau2_cover", "KDB", oracle, "ci_kdb", [("expected_q", "KDB")]),
    ("IV-DL", "delta_est", "IV-DL", oracle, "effect_iv", [("tau2_est", "DL")]),
    ("IV-MP", "delta_est", "IV-MP", oracle, "effect_iv", [("tau2_est", "MP")]),
    ("IV-REML", "delta_est", "IV-REML", oracle, "effect_iv", [("tau2_est", "REML")]),
    ("IV-J", "delta_est", "IV-J", oracle, "effect_iv", [("tau2_est", "J")]),
    ("IV-KDB", "delta_est", "IV-KDB", oracle, "effect_iv", [("tau2_est", "KDB")]),
    ("SSW", "delta_est", "SSW", oracle, "effect_ssw", [("tau2_est", "KDB")]),
    ("Z-DL", "delta_cover", "Z-DL", oracle, "ci_z", [("delta_est", "IV-DL")]),
    ("Z-MP", "delta_cover", "Z-MP", oracle, "ci_z", [("delta_est", "IV-MP")]),
    ("Z-REML", "delta_cover", "Z-REML", oracle, "ci_z", [("delta_est", "IV-REML")]),
    ("Z-J", "delta_cover", "Z-J", oracle, "ci_z", [("delta_est", "IV-J")]),
    ("Z-KDB", "delta_cover", "Z-KDB", oracle, "ci_z", [("delta_est", "IV-KDB")]),
    ("HKSJ", "delta_cover", "HKSJ", oracle, "ci_hksj", [("tau2_est", "DL"), ("delta_est", "IV-DL")]),
    ("HKSJ-KDB", "delta_cover", "HKSJ-KDB", oracle, "ci_hksj", [("tau2_est", "KDB"), ("delta_est", "IV-KDB")]),
    ("SSW-KDB", "delta_cover", "SSW-KDB", oracle, "ci_ssw_kdb", [("delta_est", "SSW")]),
)


@one_row
def estimate_all(data: Row, level: float = 0.95) -> tuple[dict, tuple]:
    """The battery one replicate at a time: run every row of ESTIMATORS;
    returns (results, failures), results keyed by (kind, output name).

    A row that raises NonConvergenceError is recorded in failures under its
    failure name, never silently dropped, and has no result.  A row whose
    prerequisite has no result is recorded as "prerequisite failed", unless
    its failure name is already recorded (a failed corrected E[Q] is
    recorded once, as "KDB").
    """
    results: dict[tuple[str, str], object] = {}
    failures: list[tuple[str, str]] = []
    for failure, kind, name, module, function, prereqs in ESTIMATORS:
        if not all(key in results for key in prereqs):
            if all(failure != failed for failed, _ in failures):
                failures.append((failure, "prerequisite failed"))
            continue
        args = [results[key] for key in prereqs]
        if kind.endswith("_cover"):
            args.append(level)
        try:
            results[kind, name] = getattr(module, function)(data, *args)
        except NonConvergenceError as exc:
            failures.append((failure, str(exc)))
    return results, tuple(failures)


def simulate_batch(cell, rep_lo: int, rep_hi: int) -> MetaBatch:
    """Replicates rep_lo..rep_hi - 1 of a cell, each on a fresh generator of
    its own stream: K true effects, then one `sample_g` per study."""
    sizes, studies = study_sizes(cell), []
    for replicate in range(rep_lo, rep_hi):
        sid = derive_stream_id("cell", cell.delta, cell.tau2, cell.k,
                               cell.pattern, cell.size, cell.q, replicate)
        gen = RandomStream(cell.seed, sid).generator()
        deltas = cell.delta + math.sqrt(cell.tau2) * gen.standard_normal(cell.k)
        studies.append([sample_g(gen, n_t, n_c, d)
                        for (n_t, n_c), d in zip(sizes, deltas)])
    return MetaBatch(sizes, np.array([[s.g for s in row] for row in studies]),
                     np.array([[s.v2 for s in row] for row in studies]))
