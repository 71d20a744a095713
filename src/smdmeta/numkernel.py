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
from scipy.integrate import quad
from scipy.special import gammainc, gammaincinv, ndtri, stdtrit


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

def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


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
    """Address of an independent random stream.

    Streams are values: two RandomStream instances with equal
    ``(seed, stream_id)`` always yield identical draw sequences, and
    distinct ``stream_id`` values select distinct 128-bit Philox keys,
    so replication order and worker scheduling can never change results.
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
        return Generator(Philox(key=[self.seed, self.stream_id]))


def derive_stream_id(*parts: int | float | str) -> int:
    """Map a tuple of labels (cell coordinates, replicate index, ...) to a
    64-bit stream id via a keyed hash; stable across processes and runs."""
    h = blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"|")
    return int.from_bytes(h.digest(), "little")


# ---------------------------------------------------------------------------
# chi-square mixtures:  P(sum_i lambda_i chi2_1 <= x)
# ---------------------------------------------------------------------------

_RUBEN_BLOCK = 32      # power sums computed per block of series terms
_RUBEN_PY_TERMS = 40   # recurrence on Python floats up to this many terms
_RUBEN_BOUND_EVERY = 8  # terms between checks of the sharper tail bound
_RUBEN_POWERS = np.arange(1.0, _RUBEN_BLOCK + 1)  # of the first block
# j of the F_{nu+2j}(y) in the bound checks at k = j - 1 <= _RUBEN_PY_TERMS
_RUBEN_CHECKS = np.arange(_RUBEN_BOUND_EVERY + 1.0, _RUBEN_PY_TERMS + 2,
                          _RUBEN_BOUND_EVERY)


def _ruben_cdf(x, lam: np.ndarray, tol: float, max_terms: int):
    """Ruben's central chi-square series with a certified truncation bound, on
    the rows of lam (M, nu) at x (M,).

    Returns per row (p, bound), or None when max_terms is not enough.  With
    the scale set to min(lam) all series coefficients are nonnegative and
    sum to one: 1 - sum(a_k) bounds the tail, and so does (1 - sum(a_k))
    F_{nu+2k+2}(y).  The log-sums, the first block of power sums and the
    F_{nu+2j}(y) of the bounds and of the sum are array code over all rows;
    each row runs the recurrence on its own, as a row alone would.
    """
    nu = lam.shape[1]
    beta = lam.min(-1)
    half_ys = 0.5 * x / beta  # y / 2, y = x / beta
    ts = 1.0 - (ratio := beta[:, None] / lam)
    first = _RUBEN_POWERS[:max_terms]
    f_checks = gammainc(0.5 * nu + _RUBEN_CHECKS, half_ys[:, None]).tolist()
    reduce, add, mul = functools.reduce, operator.add, operator.mul
    half_tol, every, py_terms = 0.5 * tol, _RUBEN_BOUND_EVERY, _RUBEN_PY_TERMS
    stops = []
    for t, half_y, log_a0, g_list, f_check in zip(
            ts, half_ys.tolist(), (0.5 * np.log(ratio).sum(-1)).tolist(),
            np.power(ts[:, :, None], first).sum(1).tolist(), f_checks):
        a_list, g = [asum := math.exp(log_a0)], None
        for k in range(1, max_terms + 1):
            if k > len(g_list):
                if g is None:  # a long series: the power sums in an array too
                    g = np.empty(max_terms + 1)
                    g[1:k] = g_list
                # power sums g_k = sum t^k for a whole block of k in one call
                end = min(k + _RUBEN_BLOCK, max_terms + 1)
                g[k:end] = np.power.outer(t, np.arange(k, end)).sum(axis=0)
                g_list += g[k:end].tolist()
            # a_k = sum_i g_i a_{k-i} / 2k: Python floats first, BLAS after;
            # added one after another, as sum() compensates from Python 3.12
            if k <= py_terms:
                ak = reduce(add, map(mul, g_list, reversed(a_list))) \
                    / (2.0 * k)
            else:
                if k == py_terms + 1:  # a_k at [max_terms - k]
                    a_rev = np.empty(max_terms + 1)
                    a_rev[max_terms - k + 1:] = a_list[::-1]
                ak = float(g[1:k + 1] @ a_rev[max_terms - k + 1:]) / (2.0 * k)
                a_rev[max_terms - k] = ak
            a_list.append(ak)
            asum += ak
            # every few terms the sharper bound too, as F_{nu+2j}(y) falls
            if 1.0 - asum <= half_tol or k % every == 0 and (1.0 - asum) * (
                    f_check[k // every - 1] if k <= py_terms
                    else gammainc(0.5 * nu + k + 1, half_y)) <= half_tol:
                stops.append((k, asum, a_list))
                break
        else:
            stops.append(None)
    # F_{nu+2j}(y) for j = k_max + 1, ..., 1, 0 of every row, in one call
    k_max = max([stop[0] for stop in stops if stop], default=0)
    f_rows = gammainc(0.5 * nu + np.arange(k_max + 1.0, -1.0, -1.0),
                      half_ys[:, None])
    out = []
    for stop, f in zip(stops, f_rows):
        if stop is None:
            out.append(None)
            continue
        k, asum, a_list = stop
        p = float(np.dot(np.array(a_list[::-1]), f[k_max - k + 1:]))
        bound = (1.0 - asum) * float(f[k_max - k])
        out.append((min(1.0, p + 0.5 * bound), 0.5 * bound))
    return out


def _imhof_cdf(x: float, lam: np.ndarray, tol: float):
    """Imhof's characteristic-function inversion with certified truncation.

    Fallback used when the series stalls (extreme coefficient spread).
    Returns (p, bound) or None when the quadrature cannot certify tol.
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

    try:  # an infinite x u or lam u: sin and exp raise
        val, abserr = quad(integrand, 0.0, math.exp(log_u),
                           epsabs=0.25 * tol * math.pi, limit=3000)
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
