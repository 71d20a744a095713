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

Each estimator exists once, as a `*_batch` row of `simlab.ESTIMATORS`: array
code over a MetaBatch (one input is a batch of one), one result or failure
per replicate, whose searches run in lock-step: each REML iteration, PL or
BJ/J endpoint search is a walk that yields the tau2 it needs, and a round
evaluates every walk's restricted log-likelihood or mixture CDF together.
Given the true tau2, as in `simulate`, no interval row searches for an
endpoint: each decides coverage from the test its interval inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma, gammainc, ndtri, poch, roots_laguerre

from .numkernel import (
    DomainError,
    NonConvergenceError,
    chisq_quantile,
    mixture_cdfs,
)
from .qstat import (
    BRACKET_CAP,
    BracketCapExceeded,
    MetaBatch,
    Tau2Result,
    _lockstep,
    _outcome,
    _row_fits,
    solve_q_roots,
)
from .smd import b_factor, j_factor

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


def __getattr__(name: str):
    """scipy's `quad` and `brentq`, imported on first use (PEP 562): nothing
    here calls them, but bench/run.py --trace 1 wraps both by name."""
    if name not in ("quad", "brentq"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import integrate, optimize
    return getattr(integrate if name == "quad" else optimize, name)


@dataclass(frozen=True)
class Tau2Interval:
    lo: float
    hi: float  # math.inf when the upper endpoint exceeds the bracket cap
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

def _estimate(raw: float):
    """A moment estimate truncated at zero, or the failure of an overflow."""
    if raw <= 0:
        return Tau2Result(0.0, "truncated_at_zero")
    return _outcome(Tau2Result, raw, "interior")


def tau2_dl_batch(batch: MetaBatch) -> list:
    """DerSimonian-Laird moment estimator (closed form, truncated at zero)."""
    w, sum_w, _, terms = _row_fits(batch.g, batch.v2,
                                   np.zeros(len(batch)))
    denom = sum_w - (w * w).sum(-1) / sum_w
    raw = (terms.sum(-1) - (batch.k - 1)) / denom
    # K >= 2, so only weights whose squares overflowed reach d <= 0
    return [NonConvergenceError(f"degenerate DL denominator {d}") if d <= 0
            else _estimate(x) for x, d in zip(raw.tolist(), denom.tolist())]


def _restricted_fits(g: np.ndarray, v2: np.ndarray, steps: bool = False):
    """The `evaluate(rows, points)` of walks on the rows of g, v2 (n, K): per
    point the restricted profile log-likelihood l of tau2 (constants
    dropped), or the failure of a fit whose weights all underflowed; with
    steps, (l, sum w^2, sum w^2 ((g - mean)^2 - v^2), sum w) from the fit
    there, REML's fixed-point terms.  Each set of rows is indexed once."""
    indexed = {}

    def evaluate(rows, points):
        if (key := tuple(rows)) not in indexed:
            indexed[key] = g[rows], v2[rows]
        g_rows, v2_rows = indexed[key]
        t = np.array(points)
        w, sum_w, mean, terms = _row_fits(g_rows, v2_rows, t)
        columns = [sum_w.tolist(), np.log(v2_rows + t[:, None]).sum(-1)
                   .tolist(), terms.sum(-1).tolist()]
        if steps:
            w2 = w ** 2
            resid2 = (g_rows - mean[:, None]) ** 2
            columns += [w2.sum(-1).tolist(),
                        (w2 * (resid2 - v2_rows)).sum(-1).tolist(), columns[0]]
        out = []
        for tau2, s, logs, q, *fit in zip(points, *columns):
            if not s > 0.0:  # every weight underflowed
                out.append(NonConvergenceError(
                    f"sum of weights is {s} at tau2 = {tau2:g}"))
            else:
                loglik = -0.5 * (logs + math.log(s) + q)
                out.append((loglik, *fit) if steps else loglik)
        return out

    return evaluate


def _reml_walk(t: float):
    """One row of `tau2_reml_batch` from t: a walk that yields each tau2 and
    is sent (l, sum w^2, sum w^2 ((g - mean)^2 - v^2), sum w) there."""
    l_cur, sum_w2, num, sum_w = yield t
    for it in range(1, _REML_MAX_ITER + 1):
        if not sum_w2 > 0:
            return NonConvergenceError(f"sum w^2 underflowed at tau2 = {t:g}")
        prop = max(0.0, num / sum_w2 + 1.0 / sum_w)
        l_prop, *fit = yield prop
        halvings = 0
        while l_prop < l_cur - 1e-13 and halvings < 30:
            prop = 0.5 * (prop + t)
            l_prop, *fit = yield prop
            halvings += 1
        done = abs(prop - t) <= _REML_TOL * (1.0 + prop)
        t, l_cur, (sum_w2, num, sum_w) = prop, l_prop, fit
        if done:
            status = "truncated_at_zero" if t == 0.0 else "interior"
            return Tau2Result(t, status, it)
    return Tau2Result(t, "max_iter", _REML_MAX_ITER)


def tau2_reml_batch(batch: MetaBatch, dls: list) -> list:
    """REML via the damped fixed-point iteration

        tau2 <- max(0, sum w^2 ((g - mean)^2 - v^2) / sum w^2 + 1 / sum w),

    started at each dl, the `tau2_dl_batch` estimate; steps that decrease
    the restricted log-likelihood are halved toward the current iterate.
    The rows iterate in lock-step."""
    return list(_lockstep(
        {i: _reml_walk(dl.value) for i, dl in enumerate(dls)},
        _restricted_fits(batch.g, batch.v2, steps=True)).values())


def tau2_jackson_batch(batch: MetaBatch) -> list:
    """Jackson's moment estimator with fixed weights u_i = 1/v_i.

    With U = sum u and c_i = u_i - u_i^2/U, E[Q_gen] = sum c_i (v_i^2 + tau2),
    so tau2 is estimated by (Q_gen - sum c_i v_i^2) / sum c_i, truncated at 0.
    """
    u = 1.0 / np.sqrt(batch.v2)
    big_u = u.sum(-1)
    gbar = (u * batch.g).sum(-1) / big_u
    q_gen = (u * (batch.g - gbar[:, None]) ** 2).sum(-1)
    c = u - u * u / big_u[:, None]
    raw = (q_gen - (c * batch.v2).sum(-1)) / c.sum(-1)
    return [_estimate(x) for x in raw.tolist()]


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


def _e_gj_psip(m, eff_n, jf, b, d) -> np.ndarray:
    """E[g^j psi^p], j = 0..2, p = 1..4, as (..., S, 3, 4) from (S, 1, 1)
    args and plug-in effects d that broadcast against them."""
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
    f *= np.concatenate([h[..., :1, :],
                         np.broadcast_to(c, h[..., 1:2, :].shape),
                         1.0 + c * c * one_s[..., 2:, :] / h[..., 2:, :]],
                        axis=-2)
    powers = np.stack([np.ones_like(s), s, s * s, s * s * s], axis=-2)
    integral = (powers @ f[..., None])[..., 0]  # (..., S, 3, 4): p - 1 = 0..3
    # pref (2a)^{-p} / beta_j, its gamma ratio as a rising factorial; for
    # odd j, sqrt(J^2 m / (2 ntilde)) Gamma((m-1)/2) / Gamma(m/2) = ntilde^-1/2
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


def _psi_moments(arm_sizes, d: np.ndarray) -> np.ndarray:
    """E[psi^p x^r] in _MOMENT_KEYS order at the plug-in effects d (R,), as
    (9, R, K) over the (n_t, n_c) pairs of arm_sizes, C-contiguous so that
    sums over K are pairwise, as for one replicate."""
    pairs = sorted(set(arm_sizes))
    index = {pair: i for i, pair in enumerate(pairs)}
    n_t, n_c = np.array(pairs, dtype=float).T
    m = n_t + n_c - 2.0
    args = np.array([m, n_t * n_c / (n_t + n_c),
                     [j_factor(int(k)) for k in m],
                     [b_factor(int(k)) for k in m]])
    series = m >= _SERIES_DF_MIN
    raw = _e_gj_psip(*args[:, ~series, None, None], d[:, None, None, None])
    # sum_j C(r, j) (-d)^(r-j) E[g^j psi^p], added over j in order; (-d)^e
    # as numpy scalars: the libm pow of Python floats, but inf, not
    # OverflowError, past the float range (array powers differ in the ulp)
    neg = np.array([[(-x) ** e for e in range(3)] for x in d])
    p, r = np.array(_MOMENT_KEYS).T
    moments = np.zeros(raw.shape[:-2] + (len(_MOMENT_KEYS),))
    for j in range(3):
        key = r >= j
        coef = np.array([math.comb(k, j) for k in r[key]]) * neg[:, r[key] - j]
        moments[..., key] += coef[:, None] * raw[..., j, p[key] - 1]
    out = np.empty((len(d), len(m), len(_MOMENT_KEYS)))
    out[:, ~series] = moments
    for i in np.flatnonzero(series):
        for t, x in enumerate(d):
            out[t, i] = _psi_x_moments_series(*args[:, i].tolist(), x)
    study = [index[pair] for pair in arm_sizes]
    return np.ascontiguousarray(np.moveaxis(out[:, study], -1, 0))


def corrected_expected_q_batch(batch: MetaBatch, effect=None) -> list:
    """First moment of Q(0) corrected for the coupling between g and its
    estimated-variance weight, evaluated at a plug-in common effect; per
    replicate the value, or the failure of a non-finite or non-positive one.

    The plug-in defaults to the sample-size-weighted mean, which does not
    depend on the estimated variances; `effect` (R,) overrides it.  Tends to
    K - 1 as all n_i grow.

    This is the homogeneity (tau^2 = 0) moment that Kulinskaya, Dollinger
    and Bjorkestol (2011, Biometrics 67:203) derive, so the KDB estimate and
    interval (`q_roots_batch`) use the same value whatever tau^2 they test.
    """
    if effect is None:
        effect = (batch.eff_n * batch.g).sum(-1) / batch.eff_n.sum(-1)
    ep, er, es, e20, e21, e22, e31, e32, e42 = \
        _psi_moments(batch.arm_sizes, effect)
    var_r = e22 - er ** 2
    cov_rp = e21 - er * ep
    cov_r2p = e32 - e22 * ep
    e_rp2 = e31 - 2.0 * ep * e21 + ep ** 2 * er
    var_p = e20 - ep ** 2
    t4 = e42 - 2.0 * ep * e32 + ep ** 2 * e22
    w_tot = ep.sum(-1)
    a1 = er.sum(-1)
    v_r = var_r.sum(-1)
    a1_er = a1[:, None] - er
    e_n = v_r + a1 * a1
    e_nd = (cov_r2p + 2.0 * cov_rp * a1_er).sum(-1)
    c_sum = cov_rp.sum(-1)
    e_nd2 = (t4 + 2.0 * e_rp2 * a1_er
             + var_p * (v_r[:, None] - var_r + a1_er ** 2)).sum(-1) \
        + 2.0 * (c_sum * c_sum - (cov_rp ** 2).sum(-1))
    w2, w3 = (np.array([x ** p for x in w_tot]) for p in (2, 3))
    expected = es.sum(-1) - (e_n / w_tot - e_nd / w2 + e_nd2 / w3)
    return [x if math.isfinite(x) and x > 0 else NonConvergenceError(
                f"corrected E[Q] came out non-positive ({x}) at effect={d}")
            for x, d in zip(expected.tolist(), effect.tolist())]


# ---------------------------------------------------------------------------
# interval estimators
# ---------------------------------------------------------------------------

def _profile_targets(df: float, level: float) -> list[float]:
    """df, and the chi2_df quantiles whose roots are the Q-profile's lower
    and upper endpoints."""
    alpha = 1.0 - level
    return [df, chisq_quantile(1.0 - alpha / 2.0, df),
            chisq_quantile(alpha / 2.0, df)]


def _q_profile(lo, hi, level: float):
    """The Q-profile interval from its endpoint roots: a failed lower root
    fails it, an upper root past the bracket cap makes it unbounded."""
    if isinstance(hi, BracketCapExceeded) and isinstance(lo, Tau2Result):
        return Tau2Interval(lo.value, math.inf, level, ("upper-beyond-cap",))
    for root in (lo, hi):
        if isinstance(root, NonConvergenceError):
            return root
    return Tau2Interval(lo.value, hi.value, level)


def _covers(stat: float, lower: float, upper: float, truth: float):
    """Whether {tau2 >= 0 : lower <= stat(tau2) <= upper} holds truth, from
    stat(truth) alone; a non-finite stat fails.  For stat decreasing in
    tau2, as the endpoint searches set the lower endpoint to 0 when stat(0)
    <= upper, truth = 0 is held exactly then."""
    if not math.isfinite(stat):
        return NonConvergenceError(f"statistic is {stat} at tau2 = {truth:g}")
    return bool(stat <= upper and (truth == 0.0 or stat >= lower))


def q_roots_batch(batch: MetaBatch, level: float, truth=None) -> list[tuple]:
    """Every Q(tau2) = target of each replicate in one `solve_q_roots` call:
    K - 1 (MP) and the QP endpoints at df K - 1, the corrected E[Q] (KDB)
    and the KDB interval's endpoints at df E[Q].  Per replicate: (E[Q], MP,
    QP, KDB, KDB interval), each a result or its failure; the KDB ones are
    absent where E[Q] failed.

    Given the true tau2 `truth`, only the MP and KDB roots are solved, and
    the QP and KDB entries say whether the interval holds truth: Q
    decreases in tau2, so `_covers` decides from Q(truth), one fit per
    replicate."""
    expected = corrected_expected_q_batch(batch)
    profiles = [[_profile_targets(df, level)
                 for df in [batch.k - 1.0, eq][:1 + isinstance(eq, float)]]
                for eq in expected]
    n = 3 if truth is None else 1  # roots per profile: point, lo, hi
    rows = [i for i, p in enumerate(profiles) for _ in range(n * len(p))]
    roots = iter(solve_q_roots(batch.g[rows], batch.v2[rows], [
        target for profile in profiles for p in profile for target in p[:n]]))
    if truth is not None:
        q_truth = _row_fits(batch.g, batch.v2, np.full(len(batch), truth))[
            3].sum(-1).tolist()
    out = []
    for i, (eq, profile) in enumerate(zip(expected, profiles)):
        row = [eq]
        for _, upper, lower in profile:
            point, *ends = (next(roots) for _ in range(n))
            row += [point, _q_profile(*ends, level) if truth is None
                    else _covers(q_truth[i], lower, upper, truth)]
        out.append(tuple(row))
    return out


def _reader(entry: int):
    def read(batch: MetaBatch, roots: list, *more) -> list:
        return [r[entry] for r in roots]
    return read


# The battery's rows that read q_roots_batch, in its order; each takes the
# roots as its first prerequisite.
expected_q_batch, tau2_mp_batch, ci_qp_batch, tau2_kdb_batch, ci_kdb_batch = \
    map(_reader, range(5))


def _satterthwaite_roots(w: np.ndarray, v2: np.ndarray, q_obs: np.ndarray,
                         targets: np.ndarray) -> list:
    """Per row of w, v2 (n, K): the tau2 where the two-moment fit Q ~ c
    chi2_nu, c = tr(M^2)/tr(M) and nu = tr(M)^2/tr(M^2), puts P(Q <= q_obs)
    at each target.  With d = v^2 + tau2, tr(M) = sum (w - w^2/S) d and
    tr(M^2) = sum (w^2 - 2 w^3/S) d^2 + (sum w^2 d)^2/S^2 are quadratics in
    tau2."""
    s = w.sum(-1)[:, None]
    w2 = w * w
    pw = (1.0, v2, v2 * v2)
    a0, a1 = ((v * (w - w2 / s)).sum(-1) for v in pw[:2])
    b0, b1, b2 = ((v * (w2 - 2.0 * w2 * w / s)).sum(-1) for v in pw)
    c0, c1 = ((v * w2).sum(-1) for v in pw[:2])
    t = _SEED_GRID
    tr1 = a1[:, None] + a0[:, None] * t
    tr2 = b2[:, None] + (2.0 * b1[:, None] + b0[:, None] * t) * t \
        + ((c1[:, None] + c0[:, None] * t) / s) ** 2
    cdf = gammainc(0.5 * tr1 * tr1 / tr2, 0.5 * q_obs[:, None] * tr1 / tr2)
    # interpolate the probit of the CDF, which is near-linear in log tau2
    z = ndtri(np.clip(cdf, 1e-15, 1.0 - 1e-15))
    return [np.exp(np.interp(-ndtri(targets), -row, np.log(t))).tolist()
            for row in z]


def _brentq(xa: float, xb: float, fa: float, fb: float, f,
            xtol: float = 1e-6, rtol: float = 1e-5, maxiter: int = 100):
    """scipy.optimize.brentq (its brentq.c, step for step) as a walk from a
    bracket [xa, xb] where the function changes sign, fa and fb its values
    there: yields each next x and is sent the raw value there, which f turns
    into the function's; returns the root, or a NonConvergenceError after
    maxiter steps or at a NaN function value, on which scipy raises."""
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    if math.isnan(fpre) or math.isnan(fcur):
        return NonConvergenceError("f is NaN at a bracket end")
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            spre, scur = (scur, stry) if good else (sbis, sbis)
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        if math.isnan(fcur := f((yield xcur))):
            return NonConvergenceError(f"f is NaN at {xcur:g}")
    return NonConvergenceError(f"brentq did not converge in {maxiter} steps")


def _endpoint(target: float, seed: float):
    """One endpoint as a walk that yields each tau2 and is sent the CDF
    there: 0 if the CDF at 0 is <= target; else stepping out from the seed
    by _SEED_STEP, then 4x, 16x, ... that, to a bracket, and brentq on CDF -
    target in it; infinite if the CDF is still >= target at 2^23.  A NaN
    seed (the fit's traces overflowed) is taken as 1."""
    f = yield 0.0
    if f <= target:
        return 0.0
    x, step = min(seed, _CAP_POINT) if seed == seed else 1.0, _SEED_STEP
    f = yield x
    up = f >= target
    sign = 1.0 if up else -1.0
    while (f >= target) == up:
        if up and x >= _CAP_POINT:
            return math.inf
        prev, f_prev, x = x, f, min(x * (1.0 + step) ** sign, _CAP_POINT)
        step *= 4.0
        f = yield x
    (a, fa), (b, fb) = sorted([(prev, f_prev - target), (x, f - target)])
    return (yield from _brentq(a, b, fa, fb, lambda cdf: cdf - target))


def _fixed_weight_intervals(g: np.ndarray, v2: np.ndarray, n_bj: int,
                            level: float, truth=None) -> list:
    """BJ intervals on the first n_bj rows of g, v2 (n, K), J intervals on
    the others, in lock-step: per row the interval or its failure.

    Under the model, Q_obs = sum w (g - gbar_w)^2 is a chi-square mixture
    whose coefficients are the nonzero eigenvalues of D^{1/2} A D^{1/2},
    A = diag(w) - w w'/sum w, D = diag(v^2 + tau2): in `mixture_cdfs`'s
    rank-one form c = w (v^2 + tau2), p = w / sum w.  BJ (w = 1/v^2) forms
    c as 1 + tau2 w, all 1 at tau2 = 0; J has w = 1/v.  Each endpoint is
    seeded by the two-moment (Satterthwaite) fit and found by `_endpoint`,
    and a lower one past 2^23 fails the interval; a row's two endpoints
    share its CDFs.  A round evaluates every CDF the walks still need and
    has not met, in one `mixture_cdfs` call.

    Given the true tau2 `truth`, per row whether the interval holds it: the
    CDF of Q_obs decreases in tau2 (by Anderson's theorem), so `_covers`
    decides from one CDF at truth.
    """
    alpha = 1.0 - level
    targets = (alpha / 2.0, 1.0 - alpha / 2.0)
    w = np.concatenate([1.0 / v2[:n_bj], 1.0 / np.sqrt(v2[n_bj:])])
    sum_w = w.sum(-1)
    q_obs = (w * (g - ((w * g).sum(-1) / sum_w)[:, None]) ** 2).sum(-1)
    base = np.concatenate([np.ones_like(v2[:n_bj]), w[n_bj:] * v2[n_bj:]])
    p = w / sum_w[:, None]

    def cdfs(pairs) -> dict:
        """F_tau2(Q_obs) of each (row, tau2) of pairs, or its failure."""
        rows = [i for i, _ in pairs]
        c = base[rows] + np.array([t for _, t in pairs])[:, None] * w[rows]
        return {(i, t): NonConvergenceError(
            f"mixture coefficients at tau2 = {t:g} overflowed")
            if isinstance(value, DomainError) else value
            for (i, t), value in zip(pairs, mixture_cdfs(
                q_obs[rows], c, p[rows], _MIX_TOL))}

    out, live = [None] * len(g), []
    for i, q in enumerate(q_obs.tolist()):
        if not math.isfinite(q):
            out[i] = NonConvergenceError(f"fixed-weight Q is {q}")
        elif q <= 0.0:
            out[i] = Tau2Interval(0.0, 0.0, level, ("degenerate",)) \
                if truth is None else truth == 0.0
        else:
            live.append(i)
    if truth is not None:
        for (i, _), f in cdfs([(i, truth) for i in live]).items():
            out[i] = f if isinstance(f, NonConvergenceError) \
                else _covers(f, *targets, truth)
        return out

    def walk_cdfs(keys, points):
        asked = [(i, t) for (i, _), t in zip(keys, points)]
        # each tau2 that no walk of its row has asked before, once; the
        # lower walk of a row whose upper endpoint failed is sent that
        for (i, t), value in cdfs([
                key for key in dict.fromkeys(asked)
                if key[0] not in failed and key[1] not in known[key[0]]
        ]).items():
            known[i][t] = value
        values = [failed.get(i) or known[i][t] for i, t in asked]
        failed.update((i, v) for (i, end), v in zip(keys, values)
                      if end == 0 and isinstance(v, NonConvergenceError))
        return values

    seeds = _satterthwaite_roots(w, v2, q_obs, np.array(targets))
    known, failed, walks = {i: {} for i in live}, {}, {}
    for i in live:
        for end, (target, seed) in enumerate(zip(targets, seeds[i])):
            walks[i, end] = _endpoint(target, seed)
    ends = _lockstep(walks, walk_cdfs)
    for i, cached in known.items():
        hi, lo = ends[i, 0], ends[i, 1]
        if lo == math.inf:  # fails, as a Q-profile lower root past the cap
            lo = NonConvergenceError(f"CDF({_CAP_POINT:g}) still >= target "
                                     f"{targets[1]:g}")
        errors = [e for e in (hi, lo) if isinstance(e, NonConvergenceError)]
        if errors:
            out[i] = errors[0]
            continue
        flags = []
        cdf_values = [f for _, f in sorted(cached.items())]
        if any(f1 > f0 + 32.0 * _MIX_TOL
               for f0, f1 in zip(cdf_values, cdf_values[1:])):
            flags.append("nonmonotone-cdf")
        if math.isinf(hi):
            flags.append("upper-beyond-cap")
        out[i] = Tau2Interval(lo, hi, level, tuple(flags))
    return out


def fixed_weight_batch(batch: MetaBatch, level: float,
                       truth=None) -> list[tuple]:
    """The BJ and the J interval of each replicate, (BJ, J), each a result
    or its failure, in one `_fixed_weight_intervals` call; given the true
    tau2 `truth`, whether each holds it."""
    r = len(batch)
    out = _fixed_weight_intervals(np.concatenate([batch.g] * 2),
                                  np.concatenate([batch.v2] * 2), r, level,
                                  truth)
    return list(zip(out[:r], out[r:]))


# The battery's rows that read fixed_weight_batch
ci_bj_batch, ci_jackson_batch = map(_reader, range(2))


def _pl_walk(center: float, crit: float, level: float):
    """One row of `ci_pl_batch` around the REML estimate center: a walk that
    yields each tau2 it needs and is sent l there.  Each endpoint is
    brentq's root (xtol 1e-10, rtol 1e-8) of h = 2 (l_hat - l) - crit in a
    bracket where h changes sign; a NaN h, on which scipy's brentq raises,
    fails the interval."""
    l_hat = yield center
    l_zero = (yield 0.0) if center else l_hat
    if l_zero > l_hat:
        # fixed point stopped short of the boundary maximum
        center, l_hat = 0.0, l_zero

    def h(loglik: float) -> float:
        return 2.0 * (l_hat - loglik) - crit

    def root(a: float, b: float, la: float, lb: float):
        """h's root in [a, b], where l is la and lb, or its failure."""
        x = yield from _brentq(a, b, h(la), h(lb), h, 1e-10, 1e-8)
        if not isinstance(x, NonConvergenceError):
            return x
        return NonConvergenceError(
            f"profile-likelihood endpoint in [{a:g}, {b:g}]: " + (
                "h is NaN" if "NaN" in str(x) else "convergence error"))

    lo, flags = 0.0, []
    if not h(l_zero) <= 0.0:
        lo = yield from root(0.0, center, l_zero, l_hat)
        if isinstance(lo, NonConvergenceError):
            return lo
    br_lo, l_lo, br = center, l_hat, max(1.0, 2.0 * center)
    while h(l_br := (yield br)) <= 0.0:
        br_lo, l_lo, br = br, l_br, 2.0 * br
        if br > BRACKET_CAP:
            hi = math.inf
            flags.append("upper-beyond-cap")
            break
    else:
        hi = yield from root(br_lo, br, l_lo, l_br)
        if isinstance(hi, NonConvergenceError):
            return hi
    if abs(l_hat - l_zero) < 1e-12 and (math.isinf(hi)
                                        or abs(l_hat - l_br) < 1e-12):
        flags.append("flat-likelihood")
    return Tau2Interval(lo, hi, level, tuple(flags))


def ci_pl_batch(batch: MetaBatch, remls: list, level: float,
                truth=None) -> list:
    """Profile-likelihood interval around each reml, the `tau2_reml_batch`
    estimate, { tau2 >= 0 : 2 (l(tau2_REML) - l(tau2)) <= chi2_{1; level} };
    the rows search in lock-step.  Given the true tau2 `truth`, whether each
    holds it, with no search: `_covers` on that statistic at truth, from one
    fit per row at the estimate, 0 and truth (a failed fit fails the row)."""
    crit = chisq_quantile(level, 1.0)
    loglik = _restricted_fits(batch.g, batch.v2)
    if truth is None:
        return list(_lockstep(
            {i: _pl_walk(r.value, crit, level) for i, r in enumerate(remls)},
            loglik).values())
    fits = iter(loglik([i for i in range(len(remls)) for _ in range(3)],
                       [t for r in remls for t in (r.value, 0.0, truth)]))
    # the walk's l_hat: max keeps l(estimate), even NaN, unless l(0) > it
    return [next((v for v in fit if isinstance(v, NonConvergenceError)), None)
            or _covers(2.0 * (max(fit[:2]) - fit[2]), -math.inf, crit, truth)
            for fit in zip(fits, fits, fits)]
