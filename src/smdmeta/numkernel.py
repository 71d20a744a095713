"""Distribution primitives, chi-square mixture CDFs, and reproducible random streams.

Everything here but `one_blas_thread` is a pure function of its inputs.
Quantiles and CDFs are backed by scipy.special; the mixture CDF and the
counter-based random streams are implemented locally.
"""

from __future__ import annotations

import contextlib
import ctypes
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


def symmetric_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetric matrix of a stack (..., K, K),
    each as if alone; NaN for a matrix that is not finite, whose LAPACK
    answer is not reliable and can fail the whole stack."""
    finite = np.isfinite(mats).all((-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(mats)
    out = np.full(mats.shape[:-1], np.nan)
    out[finite] = np.linalg.eigvalsh(mats[finite])
    return out


@functools.cache
def _blas_thread_count_functions():
    """The get and set thread-count functions of numpy's OpenBLAS, or None
    where numpy's linear algebra library does not export them."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the count; a no-op
    where numpy's OpenBLAS exports no thread-count functions.

    numpy's OpenBLAS threads `eigvalsh` from K = 65 on, slower at these sizes
    and with other bits than one thread.  A count of 1 is never set: after a
    fork, a set call restarts the thread pool, whose new thread busy-waits.
    """
    get, put = _blas_thread_count_functions() or (lambda: 1, None)
    before = get()
    if before != 1:
        put(1)
    try:
        yield
    finally:
        if before != 1:
            put(before)


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
# chi-square mixtures:  P(sum_i lambda_i chi2_1 <= x)
# ---------------------------------------------------------------------------

_RUBEN_PY_TERMS = 40   # terms a row of a small round runs on Python floats
_RUBEN_ROUND_ROWS = 10  # rounds of this many rows step their rows together
_RUBEN_BLOCK = 32      # power sums computed per block of series terms
_RUBEN_BOUND_EVERY = 8  # terms between checks of the sharper tail bound
# j of the F_{nu+2j}(y) in the bound checks at k = j - 1 <= _RUBEN_PY_TERMS
_RUBEN_CHECKS = np.arange(_RUBEN_BOUND_EVERY + 1.0, _RUBEN_PY_TERMS + 2,
                          _RUBEN_BOUND_EVERY)


def _ruben_cdf(x, lam: np.ndarray, tol: float, max_terms: int):
    """Ruben's central chi-square series with a certified truncation bound, on
    the rows of lam (M, nu) at x (M,).

    Returns per row (p, bound), or None when max_terms is not enough.  With
    the scale set to min(lam) all series coefficients are nonnegative and
    sum to one: 1 - sum(a_k) bounds the tail, and so does (1 - sum(a_k))
    F_{nu+2k+2}(y).  Each a_k = sum_i g_i a_{k-i} / 2k adds its products in
    order, i = 1..k, under two schedules with the same bits, so a row's CDF
    never depends on its round.  A round of _RUBEN_ROUND_ROWS rows or more
    steps its live rows together, one (rows, k) product and running sum per
    term.  In a smaller one each row runs alone: Python floats for
    _RUBEN_PY_TERMS terms, then one running sum per term.  A row that
    provably cannot stop by max_terms runs no term past those.
    """
    nu = lam.shape[1]
    beta = lam.min(-1)
    half_ys = 0.5 * x / beta  # y / 2, y = x / beta
    ts = 1.0 - (ratio := beta[:, None] / lam)

    def powers(rows, k, width):  # g_j = sum_i t_i^j, k <= j < k + width
        return np.power(ts[rows, :, None],
                        np.arange(k, k + width, dtype=float)).sum(1)

    def hopeless(rows):  # rows that cannot stop by max_terms
        # the largest t's terms alone, negative binomial of order 1/2, leave
        # betainc(k + 1, 1/2, t) of the sum after k terms; times F_{nu+2k+2}(y)
        # that falls in k, and above tol at max_terms it stays twice the
        # stop's tol / 2: far more than the sum's rounding could close
        return betainc(max_terms + 1.0, 0.5, ts[rows].max(-1)) * gammainc(
            0.5 * nu + max_terms + 1.0, half_ys[rows]) > tol

    a0s = [math.exp(v) for v in (0.5 * np.log(ratio).sum(-1)).tolist()]
    half_tol, every, py_terms = 0.5 * tol, _RUBEN_BOUND_EVERY, _RUBEN_PY_TERMS
    stops = [None] * len(x)  # per row (k, sum of a_0..a_k, a_k..a_0)
    if len(x) < _RUBEN_ROUND_ROWS:
        reduce, add, mul = functools.reduce, operator.add, operator.mul
        f_checks = gammainc(0.5 * nu + _RUBEN_CHECKS, half_ys[:, None])
        for i, (g, f_check, asum) in enumerate(zip(powers(
                slice(None), 1, py_terms), f_checks.tolist(), a0s)):
            g_list, a_list = g.tolist(), [asum]
            for k in range(1, max_terms + 1):
                if k <= py_terms:  # reduce, as sum() compensates from 3.12
                    ak = reduce(add, map(mul, g_list, reversed(a_list))) \
                        / (2.0 * k)
                else:  # a long series: its coefficients in an array too
                    if k == py_terms + 1:
                        if hopeless(i):
                            break
                        a = np.append(a_list, np.empty(max_terms + 1 - k))
                    if k > g.size:
                        g = np.hstack([g, powers([i], k, _RUBEN_BLOCK)[0]])
                    a[k] = ak = float(np.add.accumulate(
                        g[:k] * a[k - 1::-1])[-1]) / (2.0 * k)
                a_list.append(ak)
                asum += ak
                # every few terms the sharper bound too, as F_{nu+2j}(y) falls
                if 1.0 - asum <= half_tol or k % every == 0 and (
                        1.0 - asum) * (f_check[k // every - 1] if k <= py_terms
                                       else gammainc(0.5 * nu + k + 1,
                                                     half_ys[i])) <= half_tol:
                    stops[i] = (k, asum, np.array(a_list[::-1]))
                    break
    else:
        live = np.flatnonzero(~hopeless(slice(None)))
        asum, half_y = np.array(a0s)[live], half_ys[live]
        g, a = np.empty((len(live), 0)), asum[:, None].copy()
        for k in range(1, max_terms + 1 if live.size else 1):
            if k > g.shape[1]:  # the next block of power sums, and room in a
                more = powers(live, k, _RUBEN_BLOCK)
                g = np.hstack([g, more])
                a = np.hstack([a, np.empty_like(more)])
            # the products added in order, where np.add.reduce would pair
            # them from 8 on (on the transposed view, or on one row)
            a[:, k] = ak = np.add.accumulate(
                g[:, :k] * a[:, k - 1::-1], axis=1)[:, -1] / (2.0 * k)
            asum += ak
            if k % every and 1.0 - asum.max() > half_tol:
                continue  # no row stops
            done = 1.0 - asum <= half_tol
            if k % every == 0:  # the sharper bound too, as F_{nu+2j}(y) falls
                done |= (1.0 - asum) * gammainc(0.5 * nu + k + 1,
                                                half_y) <= half_tol
            if done.any():
                for i, stop in zip(live[done].tolist(), zip(
                        asum[done].tolist(), a[done, k::-1])):
                    stops[i] = (k, *stop)
                if done.all():
                    break
                live, g, a, asum, half_y = (
                    v[~done] for v in (live, g, a, asum, half_y))
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
        p = float(np.dot(a_rev, f[k_max - k + 1:]))
        bound = (1.0 - asum) * float(f[k_max - k])
        out.append((min(1.0, p + 0.5 * bound), 0.5 * bound))
    return out


def _imhof_cdf(x: float, lam: np.ndarray, tol: float):
    """Imhof's characteristic-function inversion with certified truncation.

    Fallback used when the series stalls (extreme coefficient spread).
    Returns (p, bound), or None and no warning if quad cannot certify tol.
    """
    k = lam.size
    log_prod = 0.5 * float(np.log(lam).sum())
    # |tail beyond U| <= (1/pi) (2/k) U^{-k/2} / prod(lam)^{1/2}
    log_u = (2.0 / k) * (math.log(2.0 / (k * math.pi * 0.5 * tol)) - log_prod)

    def integrand(u: float) -> float:
        if u == 0.0:
            return 0.5 * (float(lam.sum()) - x)
        theta = 0.5 * (float(np.arctan(lam * u).sum()) - x * u)
        log_rho = 0.25 * float(np.log1p((lam * u) ** 2).sum())
        return math.sin(theta) / (u * math.exp(log_rho))

    quad = globals().get("quad") or __getattr__("quad")  # or a tracer's
    try:  # an infinite x u or lam u: sin and exp raise
        val, abserr, *_ = quad(integrand, 0.0, math.exp(log_u), limit=3000,
                               epsabs=0.25 * tol * math.pi, full_output=1)
    except (ValueError, OverflowError):
        return None
    bound = abserr / math.pi + 0.5 * tol
    if bound > tol:
        return None
    p = 0.5 - val / math.pi
    return min(1.0, max(0.0, p)), bound


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
    return _unwrap(mixture_cdfs(np.array([float(x)]), lam[None], tol)[0])


def mixture_cdfs(x: np.ndarray, lam: np.ndarray, tol: float = 1e-6) -> list:
    """`mixture_cdf` at each finite x (M,) of the matching row of lam
    (M, nu): per row the CDF, the NonConvergenceError it ends in, or the
    DomainError of coefficients that `mixture_cdf` rejects.  The rows of
    distinct positive coefficients run Ruben's series together, a row it
    does not certify goes on to Imhof's inversion, a row with zeros is
    evaluated without them, and the rest are one closed form each."""
    rows = list(zip(x.tolist(), lam, lam.min(-1).tolist(),
                    lam.max(-1).tolist(), lam[:, 0].tolist()))
    series = [i for i, (x, _, lo, hi, first) in enumerate(rows)
              if 0.0 < lo and hi < math.inf and hi - lo > 1e-12 * first
              and x > 0.0]
    part = series if len(series) < len(rows) else slice(None)  # no copy
    ruben = dict(zip(series, _ruben_cdf(x[part], lam[part], tol, 8000)
                     if series else ()))
    out = []
    for i, (x, lam, lo, hi, _) in enumerate(rows):
        if i in ruben:
            res = ruben[i] or _imhof_cdf(x, lam, tol)
            out.append(res[0] if res else NonConvergenceError(
                f"mixture_cdf could not certify tol={tol} for {lam.size} "
                f"coefficients with spread {lam.max() / lam.min():.3g}",
                error_bound=tol * 4))
        elif not (0.0 <= lo and 0.0 < hi < math.inf):  # NaN fails both
            out.append(DomainError(f"coefficients range [{lo}, {hi}]"))
        elif lo == 0.0:
            out.append(mixture_cdfs(np.array([x]), lam[lam > 0.0][None],
                                    tol)[0])
        elif x <= 0.0:
            out.append(0.0)
        else:  # one coefficient, or all equal within 1e-12
            out.append(chisq_cdf(x / lam.mean(), float(lam.size)))
    return out
