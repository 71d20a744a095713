"""Distribution primitives, chi-square mixture CDFs, and reproducible random streams.

Everything here is a pure function of its inputs.  Quantiles and CDFs are
backed by scipy.special; the mixture CDF and the counter-based random
streams are implemented locally.
"""

from __future__ import annotations

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


def _ruben_cdf(x: float, lam: np.ndarray, tol: float, max_terms: int):
    """Ruben's central chi-square series with a certified truncation bound.

    Returns (p, bound) or None when max_terms is not enough.  With the scale
    set to min(lam) all series coefficients are nonnegative and sum to one:
    1 - sum(a_k) bounds the tail, and so does (1 - sum(a_k)) F_{nu+2k+2}(y).
    """
    beta = lam.min()
    nu = lam.size
    half_y = 0.5 * x / beta  # y / 2, y = x / beta
    t = 1.0 - (ratio := beta / lam)
    a_rev = np.empty(max_terms + 1)  # a_k at [max_terms - k]: dots run forward
    g = np.empty(max_terms + 1)
    a_rev[max_terms] = asum = math.exp(0.5 * float(np.log(ratio).sum()))
    a_list, g_list = [asum], []
    for k in range(1, max_terms + 1):
        if k > len(g_list):
            # power sums g_k = sum t^k for a whole block of k in one call
            end = min(k + _RUBEN_BLOCK, max_terms + 1)
            g[k:end] = np.power.outer(t, np.arange(k, end)).sum(axis=0)
            g_list += g[k:end].tolist()
        # a_k = sum_i g_i a_{k-i} / 2k: Python floats while short, BLAS after
        if k <= _RUBEN_PY_TERMS:
            ak = sum(map(operator.mul, g_list, reversed(a_list))) / (2.0 * k)
            a_list.append(ak)
        else:
            ak = float(g[1:k + 1] @ a_rev[max_terms - k + 1:]) / (2.0 * k)
        a_rev[max_terms - k] = ak
        asum += ak
        # every few terms the sharper bound too, as F_{nu+2j}(y) falls with j
        if 1.0 - asum <= 0.5 * tol or k % _RUBEN_BOUND_EVERY == 0 and (
                (1.0 - asum) * gammainc(0.5 * nu + k + 1, half_y) <= 0.5 * tol):
            break
    else:
        return None
    p = float(np.dot(a_rev[max_terms - k:],
                     gammainc(0.5 * nu + np.arange(k, -1, -1), half_y)))
    bound = (1.0 - asum) * float(gammainc(0.5 * nu + k + 1, half_y))
    return min(1.0, p + 0.5 * bound), 0.5 * bound


def _imhof_cdf(x: float, lam: np.ndarray, tol: float):
    """Imhof's characteristic-function inversion with certified truncation.

    Fallback used when the series stalls (extreme coefficient spread).
    Returns (p, bound) or None when the quadrature cannot certify tol.
    """
    k = lam.size
    log_prod = 0.5 * float(np.log(lam).sum())
    # |tail beyond U| <= (1/pi) (2/k) U^{-k/2} / prod(lam)^{1/2}
    log_u = (2.0 / k) * (math.log(2.0 / (k * math.pi * 0.5 * tol)) - log_prod)
    upper = math.exp(log_u)

    def integrand(u: float) -> float:
        if u == 0.0:
            return 0.5 * (float(lam.sum()) - x)
        theta = 0.5 * (float(np.arctan(lam * u).sum()) - x * u)
        log_rho = 0.25 * float(np.log1p((lam * u) ** 2).sum())
        return math.sin(theta) / (u * math.exp(log_rho))

    val, abserr = quad(integrand, 0.0, upper, epsabs=0.25 * tol * math.pi,
                       limit=3000)
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
    if lo == 0.0:
        lam = lam[lam > 0.0]
        lo = lam.min()
    if x <= 0.0:
        return 0.0
    if lam.size == 1:
        return chisq_cdf(x / lam[0], 1.0)
    if hi - lo <= 1e-12 * lam[0]:
        return chisq_cdf(x / lam.mean(), float(lam.size))
    res = _ruben_cdf(x, lam, tol, max_terms=8000)
    if res is not None:
        return res[0]
    res = _imhof_cdf(x, lam, tol)
    if res is not None:
        return res[0]
    raise NonConvergenceError(
        f"mixture_cdf could not certify tol={tol} for {lam.size} coefficients "
        f"with spread {lam.max() / lam.min():.3g}",
        error_bound=tol * 4,
    )
