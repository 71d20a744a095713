"""Distribution primitives, chi-square mixture CDFs, and reproducible random streams.

Everything here is a pure function of its inputs.  Quantiles and CDFs are
backed by scipy.special; the mixture CDF, of a diagonal-minus-rank-one form
with no eigenvalue, and the counter-based random streams are local.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import betainc, gammainc, gammaincinv, ndtri, stdtrit


def __getattr__(name: str):
    """Imhof's `quad`, imported from scipy.integrate on first use (PEP 562)."""
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad
    return quad


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NonConvergenceError(RuntimeError):
    """An iterative routine failed to certify its tolerance.

    ``error_bound`` carries the achieved bound when one is available.
    """

    def __init__(self, message: str, error_bound: float | None = None):
        super().__init__(message)
        self.error_bound = error_bound


def _unwrap(result):
    """The result of a batch of one, or the failure it holds, raised."""
    if isinstance(result, Exception):
        raise result
    return result


_U64 = 2**64


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def chisq_cdf(x: float, df: float) -> float:
    """Chi-squared CDF, fractional degrees of freedom allowed.

    Computed as the regularized lower incomplete gamma P(df/2, x/2).
    """
    if df <= 0:
        raise DomainError(f"chisq_cdf requires df > 0, got {df}")
    if x < 0:
        raise DomainError(f"chisq_cdf requires x >= 0, got {x}")
    return float(gammainc(df / 2.0, x / 2.0))


def chisq_quantile(p: float, df: float) -> float:
    """Inverse of chisq_cdf in its first argument."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"chisq_quantile requires 0 < p < 1, got {p}")
    if df <= 0:
        raise DomainError(f"chisq_quantile requires df > 0, got {df}")
    return float(2.0 * gammaincinv(df / 2.0, p))


def t_quantile(p: float, df: float) -> float:
    """Student-t quantile, fractional degrees of freedom allowed."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"t_quantile requires 0 < p < 1, got {p}")
    if df <= 0:
        raise DomainError(f"t_quantile requires df > 0, got {df}")
    return float(stdtrit(df, p))


def normal_quantile(p: float) -> float:
    """Standard normal quantile."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires 0 < p < 1, got {p}")
    return float(ndtri(p))


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomStream:
    """Address of a random stream.

    Streams are values: two RandomStream instances with equal
    ``(seed, stream_id)`` always yield identical draw sequences, so
    replication order and worker scheduling can never change results.
    Their Philox keys are `restart`'s, which are not one-to-one.
    """

    seed: int
    stream_id: int

    def __post_init__(self):
        if not 0 <= self.seed < _U64:
            raise DomainError("seed must fit in 64 bits")
        if not 0 <= self.stream_id < _U64:
            raise DomainError("stream_id must fit in 64 bits")

    def generator(self) -> Generator:
        """Fresh generator positioned at the start of this stream."""
        return restart(Generator(Philox(0)), self.seed, self.stream_id)


def restart(gen: Generator, seed: int, stream_id: int) -> Generator:
    """gen, a Philox Generator, put at the start of stream (seed, stream_id)
    (counter 0, empty buffer) under the key `Philox(key=[seed, stream_id])`
    forms: via float64 when exactly one is >= 2^63, which rounds both to 53
    significant bits, so keys are not one-to-one (README, "Library use")."""
    zero = np.zeros(4, np.uint64)
    key = np.asarray([seed, stream_id]).astype(np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": zero, "key": key},
        "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def derive_stream_id(*parts: int | float | str) -> int:
    """Map a tuple of labels (cell coordinates, replicate index, ...) to a
    64-bit stream id via a keyed hash; stable across processes and runs."""
    return derive_stream_ids(parts, [()])[0]


def derive_stream_ids(prefix: tuple, suffixes) -> list[int]:
    """derive_stream_id(*prefix, *suffix) for each tuple suffix of suffixes,
    with the prefix hashed once."""
    head, ids = blake2b(_labels(prefix), digest_size=8), []
    for suffix in suffixes:
        h = head.copy()
        h.update(_labels(suffix))
        ids.append(int.from_bytes(h.digest(), "little"))
    return ids


def _labels(parts) -> bytes:
    return b"".join(repr(part).encode() + b"|" for part in parts)


# ---------------------------------------------------------------------------
# chi-square mixtures:  P(z' M z <= x),  M = diag(c) - s s',  s = sqrt(c p)
# ---------------------------------------------------------------------------

_RUBEN_PY_TERMS = 40   # terms a row of a small round runs on Python floats
_RUBEN_ROUND_ROWS = 10  # rounds of this many rows step their rows together
_RUBEN_BLOCK = 32      # power sums computed per block of series terms
_RUBEN_BOUND_EVERY = 8  # terms between checks of the sharper tail bound
# j of the F_{nu+2j}(y) in the bound checks at k = j - 1 <= _RUBEN_PY_TERMS
_RUBEN_CHECKS = np.arange(_RUBEN_BOUND_EVERY + 1.0, _RUBEN_PY_TERMS + 2,
                          _RUBEN_BOUND_EVERY)


def _ruben_cdf(x, c: np.ndarray, p: np.ndarray, tol: float, max_terms: int):
    """Ruben's central chi-square series with a certified truncation bound,
    for the mixture of each row of c, p (M, n) (see `mixture_cdfs`) at x (M,).

    Returns per row (cdf, bound), or None when max_terms is not enough.  The
    scale beta = min(c) is at most every nonzero eigenvalue (interlacing),
    so the coefficients a_k are nonnegative and sum to one: 1 - sum(a_k)
    bounds the tail, and so does (1 - sum(a_k)) F_{nu+2k+2}(y).  Their power
    sums come with no eigenvalue: g_k = sum_j r_j^k - m_k, r = 1 - beta / c,
    where m_k = k b_k - sum_i m_i b_{k-i} is k times log B's coefficient,
    B(z) = sum_j q_j / (1 - z r_j) / sum_j q_j and q = p beta / c.  Term k
    adds g_1 a_{k-1} .. g_k a_0 and m_1 b_k .. m_k b_1 in order, in two
    schedules with the same bits, so a CDF never depends on its round:
    rounds of _RUBEN_ROUND_ROWS rows or more step together, [m; g] times
    [b; a] reversed as (rows, 2, k) arrays; in smaller ones each row runs
    alone, on Python floats for _RUBEN_PY_TERMS terms, then in such arrays.
    A row that provably cannot stop by max_terms runs no term past those.
    """
    nu = c.shape[1] - 1
    beta = c.min(-1)
    half_ys = 0.5 * x / beta  # y / 2, y = x / beta
    rs = 1.0 - (ratio := beta[:, None] / c)
    q0 = (qs := p * ratio).sum(-1)

    def powers(rows, k, width):  # sum_j r_j^i and b_i, k <= i < k + width
        pw = np.power(rs[rows, :, None], np.arange(k, k + width, dtype=float))
        return pw.sum(1), (qs[rows, :, None] * pw).sum(1) / q0[rows, None]

    def hopeless(rows):  # rows that cannot stop by max_terms
        # the largest t's terms alone, negative binomial of order 1/2, leave
        # betainc(k + 1, 1/2, t) of the sum after k terms; times F_{nu+2k+2}(y)
        # that falls in k, and above tol at max_terms it stays twice the
        # stop's tol / 2: far more than the sum's rounding could close.  That
        # t's eigenvalue is at least c's second largest and each c_j (1 - p_j)
        top = np.maximum(np.partition(c[rows], -2, -1)[..., -2],
                         (c[rows] * (1.0 - p[rows])).max(-1))
        return betainc(max_terms + 1.0, 0.5, 1.0 - beta[rows] / top) \
            * gammainc(0.5 * nu + max_terms + 1.0, half_ys[rows]) > tol

    # log a_0 = sum_i log(beta / lambda_i) / 2, prod lambda = prod c sum p/c
    a0s = [math.exp(v) for v in (
        0.5 * (np.log(ratio).sum(-1) - np.log(q0))).tolist()]
    half_tol, every, py_terms = 0.5 * tol, _RUBEN_BOUND_EVERY, _RUBEN_PY_TERMS
    stops = [None] * len(x)  # per row (k, sum of a_0..a_k, a_k..a_0)
    if len(x) < _RUBEN_ROUND_ROWS:
        reduce, add, mul = functools.reduce, operator.add, operator.mul
        f_checks = gammainc(0.5 * nu + _RUBEN_CHECKS, half_ys[:, None])
        for i, (sr, b, f_check, asum) in enumerate(zip(
                *(v.tolist() for v in powers(slice(None), 1, py_terms + 1)),
                f_checks.tolist(), a0s)):
            m_list, g_list, a_list = [b[0]], [sr[0] - b[0]], [asum]
            for k in range(1, max_terms + 1):
                if k <= py_terms:  # reduce, as sum() compensates from 3.12
                    ak = reduce(add, map(mul, g_list, reversed(a_list))) \
                        / (2.0 * k)
                else:  # a long series: its terms in arrays too
                    if k == py_terms + 1:
                        if hopeless(i):
                            break
                        sr, mg = np.array(sr), np.array([m_list, g_list])
                        ba = np.array([b, a_list])
                    if k == sr.size:  # the next block, and room
                        more = powers([i], k + 1, _RUBEN_BLOCK)
                        sr = np.append(sr, more[0])
                        ba = np.hstack([ba, np.vstack([more[1], more[1]])])
                        mg = np.hstack([mg, np.empty((2, _RUBEN_BLOCK))])
                    conv_m, conv_a = np.add.accumulate(
                        mg[:, :k] * ba[:, k - 1::-1], axis=1)[:, -1].tolist()
                    ba[1, k] = ak = conv_a / (2.0 * k)
                    mg[0, k] = mk = (k + 1) * ba[0, k] - conv_m
                    mg[1, k] = sr[k] - mk
                a_list.append(ak)
                asum += ak
                # every few terms the sharper bound too, as F_{nu+2j}(y) falls
                if 1.0 - asum <= half_tol or k % every == 0 and (
                        1.0 - asum) * (f_check[k // every - 1] if k <= py_terms
                                       else gammainc(0.5 * nu + k + 1,
                                                     half_ys[i])) <= half_tol:
                    stops[i] = (k, asum, np.array(a_list[::-1]))
                    break
                if k <= py_terms:
                    m_list.append(mk := (k + 1) * b[k] - reduce(
                        add, map(mul, m_list, b[k - 1::-1])))
                    g_list.append(sr[k] - mk)
    else:
        live = np.flatnonzero(~hopeless(slice(None)))
        asum, half_y = np.array(a0s)[live], half_ys[live]
        sr, b = powers(live, 1, _RUBEN_BLOCK)
        ba = np.stack([b, b], axis=1)
        ba[:, 1, 0] = asum
        mg = np.stack([b, sr - b], axis=1)  # m_1 = b_1
        for k in range(1, max_terms + 1 if live.size else 1):
            if k == sr.shape[1]:  # the next block, and room
                more = powers(live, k + 1, _RUBEN_BLOCK)
                sr = np.hstack([sr, more[0]])
                ba = np.concatenate([ba, np.stack([more[1]] * 2, 1)], 2)
                mg = np.concatenate([mg, np.empty_like(ba[..., k:])], 2)
            # the products added in order, where np.add.reduce would pair
            # them from 8 on (on the transposed view, or on one row)
            conv = np.add.accumulate(mg[..., :k] * ba[..., k - 1::-1],
                                     axis=2)[..., -1]
            ba[:, 1, k] = ak = conv[:, 1] / (2.0 * k)
            mg[:, 0, k] = mk = (k + 1) * ba[:, 0, k] - conv[:, 0]
            mg[:, 1, k] = sr[:, k] - mk
            asum += ak
            if k % every and 1.0 - asum.max() > half_tol:
                continue  # no row stops
            done = 1.0 - asum <= half_tol
            if k % every == 0:  # the sharper bound too, as F_{nu+2j}(y) falls
                done |= (1.0 - asum) * gammainc(0.5 * nu + k + 1,
                                                half_y) <= half_tol
            if done.any():
                for i, stop in zip(live[done].tolist(), zip(
                        asum[done].tolist(), ba[done, 1, k::-1])):
                    stops[i] = (k, *stop)
                if done.all():
                    break
                live, sr, mg, ba, asum, half_y = (
                    v[~done] for v in (live, sr, mg, ba, asum, half_y))
    # F_{nu+2j}(y) for j = k_max + 1, ..., 1, 0 of every row, in one call
    k_max = max([stop[0] for stop in stops if stop], default=0)
    f_rows = gammainc(0.5 * nu + np.arange(k_max + 1.0, -1.0, -1.0),
                      half_ys[:, None])
    out = []
    for stop, f in zip(stops, f_rows):
        if stop is None:
            out.append(None)
            continue
        k, asum, a_rev = stop
        cdf = float(np.dot(a_rev, f[k_max - k + 1:]))
        bound = (1.0 - asum) * float(f[k_max - k])
        out.append((min(1.0, cdf + 0.5 * bound), 0.5 * bound))
    return out


def _log_char(c: np.ndarray, p: np.ndarray, u: float) -> complex:
    """log prod_i (1 + i lambda_i u) over a row's nonzero eigenvalues, as
    log-modulus + i argument continuous in u, in O(n): the product is
    prod_j (1 + i c_j u) sum_j p_j / (1 + i c_j u), a sum of Re > 0."""
    z = 1.0 + 1j * (c * u)  # each log's argument is arctan(c_j u)
    return complex(np.log(z).sum()) + cmath.log(complex((p / z).sum()))


def _imhof_cdf(x: float, c: np.ndarray, p: np.ndarray, tol: float):
    """Imhof's characteristic-function inversion with certified truncation,
    for one row of `mixture_cdfs` whose series stalls.

    The integrand changes on the scales 1 / lambda_i, over as many decades
    as c spans, and oscillates as sin(x u / 2): quad starts from breakpoints
    a decade and a period apart from 1 / max(c) on, and past 1,000 periods,
    which it could only alias, certifies nothing.  Far in the upper tail,
    as every lambda_i <= max(c), P(Q > x) <= 2^{k/2} e^{-x / (4 max(c))}
    (Chernoff).  Returns (cdf, bound), or None if quad cannot certify tol.
    """
    k = c.size - 1
    if (tail := 2.0 ** (0.5 * k) * math.exp(-0.25 * x / c.max())) <= tol:
        return 1.0 - 0.5 * tail, 0.5 * tail
    # |tail beyond U| <= (1/pi) (2/m) U^{-m/2} / prod(lam)^{1/2} over the m
    # largest lam, each at least the next largest c; all k: prod c sum p/c
    m = np.arange(1.0, k + 1.0)
    half_logs = 0.5 * np.cumsum(np.log(np.sort(c)[-2::-1]))
    half_logs[-1] = 0.5 * float(np.log(c).sum() + np.log((p / c).sum()))
    log_u = float(((2.0 / m) * (np.log(4.0 / (m * math.pi * tol))
                                - half_logs)).min())
    top, period = math.exp(log_u), 4.0 * math.pi / x
    if top > 1000.0 * period:
        return None
    points = np.union1d(np.arange(period, top, period), 10.0 ** np.arange(
        -math.log10(c.max()), log_u / math.log(10.0)))  # all below top

    def integrand(u: float) -> float:  # quad's rules never take u = 0
        z = _log_char(c, p, u)
        return math.sin(0.5 * (z.imag - x * u)) / (u * math.exp(0.5 * z.real))

    quad = globals().get("quad") or __getattr__("quad")  # or a tracer's
    try:  # an infinite x u or c u, or a zero sum: sin, exp and log raise
        val, abserr, *_ = quad(integrand, 0.0, top, limit=3000,
                               epsabs=0.25 * tol * math.pi, full_output=1,
                               points=points)
    except (ValueError, OverflowError):
        return None
    bound = abserr / math.pi + 0.5 * tol
    if not bound <= tol:  # NaN too
        return None
    return min(1.0, max(0.0, 0.5 - val / math.pi)), bound


def mixture_cdf(x: float, coefficients, tol: float = 1e-6) -> float:
    """CDF at a finite x of sum_i c_i chi-squared(1), for finite c_i >= 0 that
    are not all zero (a sequence or array; zero coefficients drop out).

    Absolute error is certified to be <= tol.  Raises NonConvergenceError,
    carrying the achieved bound, if neither the series nor the quadrature
    route can certify it, and DomainError for any other x or coefficients.
    """
    lam = np.asarray(coefficients, dtype=float).ravel()
    lo, hi = lam.min(initial=math.inf), lam.max(initial=0.0)  # NaN if any is
    if not (math.isfinite(x) and 0.0 <= lo and 0.0 < hi < math.inf):
        raise DomainError(f"mixture needs a finite x and finite coefficients "
                          f">= 0, not all 0; got x={x}, range [{lo}, {hi}]")
    # diag(lam, 0) in rank-one form: lam and its minimum, all p on the latter
    c = np.append(lam := lam[lam > 0.0], lam.min())[None]
    return _unwrap(mixture_cdfs(np.array([float(x)]), c,
                                np.eye(1, c.size, c.size - 1), tol)[0])


def mixture_cdfs(x: np.ndarray, c: np.ndarray, p: np.ndarray,
                 tol: float = 1e-6) -> list:
    """P(z' M z <= x), z standard normal, at each finite x (M,), where rows
    of c > 0 and p >= 0 summing to 1 (M, n), n >= 2, give M = diag(c) - s s',
    s = sqrt(c p): the mixture of chi-squared(1) whose coefficients are the
    n - 1 nonzero eigenvalues of M, none computed.  Per row the CDF, within
    `mixture_cdf`'s certificate, the NonConvergenceError it ends in, or the
    DomainError of c or p not finite or of c <= 0.  Rows whose c agree within
    1e-12 are one closed form each; the others run Ruben's series together,
    and a row it does not certify goes on to Imhof's inversion."""
    rows = list(zip(x.tolist(), c.min(-1).tolist(), c.max(-1).tolist(),
                    np.isfinite(p).all(-1).tolist()))
    series = [i for i, (x, lo, hi, ok) in enumerate(rows)
              if 0.0 < lo and hi < math.inf and ok and hi - lo > 1e-12 * lo
              and x > 0.0]
    part = series if len(series) < len(rows) else slice(None)  # no copy
    ruben = dict(zip(series, _ruben_cdf(x[part], c[part], p[part], tol, 8000)
                     if series else ()))
    out = []
    for i, (x, lo, hi, ok) in enumerate(rows):
        if i in ruben:
            res = ruben[i] or _imhof_cdf(x, c[i], p[i], tol)
            out.append(res[0] if res else NonConvergenceError(
                f"mixture_cdf could not certify tol={tol} for {c.shape[1] - 1}"
                f" coefficients with spread {hi / lo:.3g}",
                error_bound=tol * 4))
        elif not (0.0 < lo and hi < math.inf and ok):  # NaN fails too
            out.append(DomainError(f"mixture needs finite c > 0 and finite "
                                   f"p; got c in [{lo}, {hi}]"))
        elif x <= 0.0:
            out.append(0.0)
        else:  # every c equal within 1e-12, and so every coefficient
            out.append(chisq_cdf(x / c[i].mean(), c.shape[1] - 1.0))
    return out
