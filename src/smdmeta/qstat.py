"""The replicate batch, the one input type (one input is a batch of one),
Tau2Result, the inverse-variance fits and generalized Cochran Q terms of
rows of a batch, and the lock-step solver of Q(tau^2) = target shared by
every moment-type tau^2 estimator row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkernel import DomainError, NonConvergenceError
from .smd import MAX_ARM_SIZE

BRACKET_CAP = 1e7
_REL_TOL = 1e-8
_MAX_BISECT = 400


class BracketCapExceeded(NonConvergenceError):
    """Q stayed above the target all the way to the tau^2 bracket cap."""


@dataclass(frozen=True, eq=False)
class MetaBatch:
    """R >= 1 meta-analyses of the same K >= 2 arm sizes (n_t, n_c),
    estimated at once: g and v2 are (R, K), one row per replicate, and
    eff_n, the effective sizes n_t n_c / (n_t + n_c), is (K,).  One input
    is a batch of one, `MetaBatch.of(studies)`."""

    arm_sizes: tuple[tuple[int, int], ...]
    g: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        k = len(self.arm_sizes)
        if k < 2:
            raise DomainError(f"need K >= 2 studies, got {k}")
        if (np.shape(self.g) != np.shape(self.v2)
                or np.shape(self.g)[1:] != (k,) or not np.size(self.g)):
            raise DomainError(f"g and v2 must be (R >= 1, K = {k}), got "
                              f"{np.shape(self.g)} and {np.shape(self.v2)}")
        sizes = [n for pair in self.arm_sizes for n in pair]
        if not 2 <= min(sizes) <= max(sizes) <= MAX_ARM_SIZE:
            raise DomainError(f"arm sizes must be in [2, 2^53], got "
                              f"{self.arm_sizes}")
        if not (np.isfinite(self.g).all()
                and ((0 < self.v2) & (self.v2 < math.inf)).all()):
            raise DomainError("need finite g and variance of g in (0, inf)")

    @classmethod
    def of(cls, studies) -> MetaBatch:
        """The batch of one of a sequence of Study."""
        return cls(tuple((s.n_t, s.n_c) for s in studies),
                   np.array([[s.g for s in studies]]),
                   np.array([[s.v2 for s in studies]]))

    def __len__(self) -> int:
        return len(self.g)

    k = property(lambda self: len(self.arm_sizes))

    eff_n = cached_property(  # n_t n_c / (n_t + n_c)
        lambda self: np.prod(self.arm_sizes, 1) / np.sum(self.arm_sizes, 1))

    def rows(self, index) -> MetaBatch:
        """The sub-batch of the rows `index` (a list of row numbers)."""
        return MetaBatch(self.arm_sizes, self.g[index], self.v2[index])


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


def _outcome(make, *args):
    """make(*args), or the NonConvergenceError it raised: batches return one
    result or failure per replicate."""
    try:
        return make(*args)
    except NonConvergenceError as exc:
        return exc


def _row_fits(g: np.ndarray, v2: np.ndarray, tau2: np.ndarray):
    """Weights, their sums, means and the terms w (g - mean)^2 of Q for the
    rows of g, v2 (n, K) at tau2 (n,).  Sums along the contiguous last axis
    equal the 1-D sums bit for bit."""
    w = 1.0 / (v2 + tau2[:, None])
    sum_w = w.sum(-1)
    mean = (w * g).sum(-1) / sum_w
    resid = g - mean[:, None]
    return w, sum_w, mean, w * resid * resid


def solve_q_roots(g: np.ndarray, v2: np.ndarray, targets) -> list:
    """Solve Q(tau2) = target on the rows of g, v2 (n, K), in lock-step;
    returns per row a Tau2Result or the NonConvergenceError it ends in.

    Each answer is plain bisection's: tau2 = 0 ("truncated_at_zero") when
    Q(0) <= target; else doubling from min(max(1, Q(0) max v^2), 1e7) to a
    bracket (BracketCapExceeded past 1e7) and bisection until |Q - target|
    <= tol = 1e-8 target.  Up to 8 Newton steps on 1/Q from 0 and two probes
    around the root find a < b with computed Q(a) > target + tol + margin
    and Q(b) < target - tol - margin; doubling and bisection points <= a or
    >= b are decided without Q.  A computed Q is within rho Q + S0 e^2 of
    the exact one: rho = (K + 6) eps (weights, sum of K nonnegative terms),
    e = (K + 1) eps max|g| (the mean), S0 = sum 1/v^2 >= sum w; margin =
    4 rho target + 2 S0 e^2.  A round evaluates every row's next point in
    one (n, K) call; the rows walk on floats.
    """
    targets = [float(t) for t in targets]
    for target in targets:
        if not target > 0:
            raise DomainError(f"target must be > 0, got {target}")
    eps, k = np.finfo(float).eps, g.shape[1]
    results, walks = [None] * len(targets), {}
    w, sum_w, _, terms = _row_fits(g, v2, np.zeros(len(targets)))
    e_mean = (k + 1) * eps * np.abs(g).max(-1)
    margins = 4.0 * (k + 6) * eps * np.array(targets) \
        + 2.0 * sum_w * e_mean * e_mean
    for i, (target, margin, q, dq, v2_max) in enumerate(zip(
            targets, margins.tolist(), terms.sum(-1).tolist(),
            (-(w * terms).sum(-1)).tolist(), v2.max(-1).tolist())):
        if q <= target:
            results[i] = Tau2Result(0.0, "truncated_at_zero")
        else:
            walks[i] = _walk(target, margin, q, dq,
                             min(max(1.0, q * v2_max), BRACKET_CAP))

    def q_and_slope(rows, points):
        w, _, _, terms = _row_fits(g[rows], v2[rows], np.array(points))
        return zip(terms.sum(-1).tolist(), (-(w * terms).sum(-1)).tolist())

    for i, out in _lockstep(walks, q_and_slope).items():
        results[i] = out
    return results


def _lockstep(walks: dict, evaluate) -> dict:
    """Run the generators `walks` together: each yields the one point it
    needs next, one `evaluate(keys, points)` call per round returns the
    values at all of them, in order, and each walk is sent its own; returns
    what each walk returned, or the NonConvergenceError it would have been
    sent, by key in the order of walks."""
    results, asks = {}, {}
    for i, walk in walks.items():
        try:
            asks[i] = next(walk)
        except StopIteration as stop:
            results[i] = stop.value
    while asks:
        keys = list(asks)
        for i, value in zip(keys, evaluate(keys, list(asks.values()))):
            try:
                if not isinstance(value, NonConvergenceError):
                    asks[i] = walks[i].send(value)
                    continue
                results[i] = value
            except StopIteration as stop:
                results[i] = stop.value
            del asks[i]
    return {i: results[i] for i in walks}


def _walk(target: float, margin: float, q: float, dq: float, hi: float):
    """One row of solve_q_roots from Q(0) = q > target, of slope dq, and the
    first doubling point hi: yields each point it needs Q at, is sent the
    (Q, dQ) pair there, and returns its outcome."""
    tol = _REL_TOL * target
    a, b = 0.0, math.inf  # proven: Q(a) above and Q(b) below target -+ tol

    def prove(t, qt):
        nonlocal a, b
        if qt > target + tol + margin:
            a = max(a, t)
        elif qt < target - tol - margin:
            b = min(b, t)

    # Newton on 1/Q from Q >= target does not overshoot where 1/Q is concave.
    # Its error squares: within 1e-4 target, probe at Q ~ target -+ 1.5 tol.
    x = 0.0
    for _ in range(8):
        if not dq < 0.0:
            break
        x_next = x + (target - q) / target * q / dq
        if abs(q - target) <= 1e-4 * target:
            for t in [t for t in (x_next - 1.5 * tol / dq,
                                  x_next + 1.5 * tol / dq) if a < t < b]:
                prove(t, (yield t)[0])
            break
        top = min(b, BRACKET_CAP)
        x = x_next if a < x_next < top else 0.5 * (a + top)
        q, dq = yield x
        prove(x, q)

    lo = 0.0
    while not hi >= b:  # double while Q(hi) >= target
        if not hi <= a:
            q, _ = yield hi
            prove(hi, q)
            if not q >= target:
                break
        lo, hi = hi, 2.0 * hi
        if hi > BRACKET_CAP:
            return BracketCapExceeded(
                f"Q({BRACKET_CAP:g}) still >= target {target:g}")

    for it in range(1, _MAX_BISECT + 1):
        mid = 0.5 * (lo + hi)
        above = mid <= a
        if a < mid < b:
            q, _ = yield mid
            prove(mid, q)
            if abs(q - target) <= tol:
                return Tau2Result(mid, "interior", it)
            above = q > target
        lo, hi = (mid, hi) if above else (lo, mid)
    return NonConvergenceError(
        f"bisection did not reach |Q - target| <= {tol:g} in {_MAX_BISECT} "
        f"steps; bracket [{lo:g}, {hi:g}]")
