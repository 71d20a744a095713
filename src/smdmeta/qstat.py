"""Inverse-variance means, the generalized Cochran Q statistic, Tau2Result
and the monotone root solver shared by every moment-type tau^2 estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkernel import DomainError, NonConvergenceError
from .smd import Study

BRACKET_CAP = 1e7
_REL_TOL = 1e-8
_MAX_BISECT = 400


class BracketCapExceeded(NonConvergenceError):
    """Q stayed above the target all the way to the tau^2 bracket cap."""


@dataclass(frozen=True)
class MetaInput:
    """Ordered collection of K >= 2 studies submitted to estimation."""

    studies: tuple[Study, ...]

    def __post_init__(self):
        if len(self.studies) < 2:
            raise DomainError(f"need K >= 2 studies, got {len(self.studies)}")

    @property
    def k(self) -> int:
        return len(self.studies)

    @cached_property
    def g(self) -> np.ndarray:
        return np.array([s.g for s in self.studies])

    @cached_property
    def v2(self) -> np.ndarray:
        return np.array([s.v2 for s in self.studies])

    @cached_property
    def eff_n(self) -> np.ndarray:
        return np.array([s.eff_n for s in self.studies])

    @cached_property
    def arm_sizes(self) -> tuple[tuple[int, int], ...]:
        return tuple((s.n_t, s.n_c) for s in self.studies)

    @cached_property
    def q_terms_at_zero(self) -> tuple[WeightedFit, np.ndarray]:
        return _q_terms(self, 0.0)  # DL and every Q-root solve start here

    @cached_property
    def max_abs_g(self) -> float:
        return float(np.abs(self.g).max())


@dataclass(frozen=True)
class WeightedFit:
    """Weights, weighted mean, and total weight of one fit."""

    weights: np.ndarray
    mean: float
    sum_w: float


@dataclass(frozen=True)
class Tau2Result:
    value: float
    status: str  # "interior" | "truncated_at_zero" | "max_iter"
    iterations: int = 0

    def __post_init__(self):
        if not math.isfinite(self.value):  # overflowed: no estimate reached
            raise NonConvergenceError(f"tau^2 estimate is {self.value}")
        if self.value < 0:
            raise DomainError("tau^2 estimate must be >= 0")
        if self.status == "truncated_at_zero" and self.value != 0.0:
            raise DomainError("truncated_at_zero implies value == 0")


def iv_weighted_mean(data: MetaInput, tau2: float) -> WeightedFit:
    """Inverse-variance weighted mean with weights 1/(v_i^2 + tau2).

    numpy's pairwise summation keeps the K <= ~100 sums well conditioned.
    """
    if tau2 < 0:
        raise DomainError(f"tau2 must be >= 0, got {tau2}")
    w = 1.0 / (data.v2 + tau2)
    sum_w = float(w.sum())
    return WeightedFit(weights=w, mean=float((w * data.g).sum()) / sum_w,
                       sum_w=sum_w)


def _q_terms(data: MetaInput, tau2: float) -> tuple[WeightedFit, np.ndarray]:
    """The fit at tau2 and the terms w_i (g_i - mean)^2 that sum to Q(tau2)."""
    fit = iv_weighted_mean(data, tau2)
    resid = data.g - fit.mean
    return fit, fit.weights * resid * resid


def q_statistic(data: MetaInput, tau2: float) -> float:
    """Generalized Cochran statistic Q(tau2) = sum w_i (g_i - mean)^2 with the
    mean recomputed at the same tau2.  Non-increasing in tau2."""
    return float(_q_terms(data, tau2)[1].sum())


def solve_q_equals(data: MetaInput, target: float) -> Tau2Result:
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
    e_mean = (data.k + 1) * np.finfo(float).eps * data.max_abs_g
    margin = 4.0 * (data.k + 6) * np.finfo(float).eps * target \
        + 2.0 * data.q_terms_at_zero[0].sum_w * e_mean * e_mean
    a, b = 0.0, BRACKET_CAP  # no midpoint reaches either

    def evaluate(tau2: float) -> tuple[float, float]:
        nonlocal a, b
        fit, terms = _q_terms(data, tau2) if tau2 else data.q_terms_at_zero
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
