"""Study-level standardized mean difference: Hedges's g and its exact sampling model.

A two-arm study with arm sizes (n_t, n_c) and m = n_t + n_c - 2 pooled
degrees of freedom yields the small-sample-unbiased SMD estimate

    g = J(m) * (mean_t - mean_c) / s_pool,

where J(m) is the exact gamma-ratio correction factor.  g follows a scaled
noncentral t distribution, which is also how the simulation lab generates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from numpy.random import Generator

from .numkernel import DomainError

MAX_ARM_SIZE = 2 ** 53  # up to here, every integer is a float exactly


@dataclass(frozen=True)
class ArmSummary:
    """Size, sample mean and sample SD of one study arm."""

    n: int
    mean: float
    sd: float

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"arm size must be >= 2, got {self.n}")
        if not (math.isfinite(self.mean) and 0 <= self.sd < math.inf):
            raise DomainError(f"arm mean must be finite and sd in [0, inf), "
                              f"got ({self.mean}, {self.sd})")


@dataclass(frozen=True)
class Study:
    """One study's arm sizes, SMD estimate g, and estimated variance of g."""

    n_t: int
    n_c: int
    g: float
    v2: float

    def __post_init__(self):
        if not 2 <= min(sizes := (self.n_t, self.n_c)) <= max(sizes) \
                <= MAX_ARM_SIZE:
            raise DomainError(f"arm sizes must be in [2, 2^53], got {sizes}")
        if not (math.isfinite(self.g) and 0 < self.v2 < math.inf):
            raise DomainError(f"need finite g and variance of g in (0, inf), "
                              f"got ({self.g}, {self.v2})")


def _log_j(m) -> float:
    """log J(m).  From m = 60 on, its asymptotic series in x = (m - 1)/2 to
    x^-9 (truncation error below 1e-18), as a difference of two lgamma
    values loses digits when m grows."""
    if m < 2:
        raise DomainError(f"J(m) and b(m) require m >= 2, got {m}")
    if m < 60:
        return (math.lgamma(m / 2.0) - math.lgamma((m - 1) / 2.0)
                - 0.5 * math.log(m / 2.0))
    x = (m - 1) / 2.0
    y = 1.0 / (x * x)
    return 0.5 * math.log1p(-1.0 / m) + (-1 / 8 + y * (
        1 / 192 + y * (-1 / 640 + y * (17 / 14336 - 31 * y / 18432)))) / x


@cache
def j_factor(m: int) -> float:
    """Exact bias-correction factor Gamma(m/2) / (sqrt(m/2) Gamma((m-1)/2)).

    Strictly increasing in m, always in (0, 1); the familiar 1 - 3/(4m - 1)
    is only an approximation and is not used here.
    """
    return math.exp(_log_j(m))


@cache
def b_factor(m: int) -> float:
    """Weight coefficient b(m) = 1 - (m-2)/(m J(m)^2), about 1/(2m), the
    g^2 coefficient of g_variance, without the cancellation of that form."""
    log_j = _log_j(m)  # m >= 2; at m = 2, log1p(-1) would raise
    return 1.0 if m == 2 else -math.expm1(math.log1p(-2.0 / m) - 2.0 * log_j)


def g_variance(g: float, n_t: int, n_c: int) -> float:
    """Unbiased-type estimate of Var(g) from the arm sizes and g itself:

        v2 = (n_t + n_c)/(n_t n_c) + b(m) g^2
    """
    m = n_t + n_c - 2
    if m < 3:
        raise DomainError(f"g_variance requires n_t + n_c - 2 >= 3, got m={m}")
    return (n_t + n_c) / (n_t * n_c) + b_factor(m) * g * g


def hedges_g(treatment: ArmSummary, control: ArmSummary) -> Study:
    """Hedges's g from two arm summaries, with pooled SD and exact J(m)."""
    n_t, n_c = treatment.n, control.n
    m = n_t + n_c - 2
    s2_pool = ((n_t - 1) * treatment.sd ** 2 + (n_c - 1) * control.sd ** 2) / m
    if not s2_pool > 0:
        raise DomainError("pooled variance is zero; g is undefined")
    g = j_factor(m) * (treatment.mean - control.mean) / math.sqrt(s2_pool)
    return Study(n_t=n_t, n_c=n_c, g=g, v2=g_variance(g, n_t, n_c))


def sample_g(gen: Generator, n_t: int, n_c: int, delta_i: float) -> Study:
    """Draw one study exactly from the sampling model of g, taking one
    normal and one chi-square variate from gen.

    With effective size ntilde = n_t n_c / (n_t + n_c),

        sqrt(ntilde)/J(m) * g  ~  noncentral-t(df=m, ncp=sqrt(ntilde)*delta_i),

    so g is generated as J(m) * T / sqrt(ntilde) and paired with its
    estimated variance from g_variance.
    """
    if n_t < 2 or n_c < 2:
        raise DomainError(f"arm sizes must be >= 2, got ({n_t}, {n_c})")
    m = n_t + n_c - 2
    eff_n = n_t * n_c / (n_t + n_c)
    z = gen.standard_normal()
    x = gen.chisquare(m)
    t = (z + math.sqrt(eff_n) * delta_i) / math.sqrt(x / m)
    g = j_factor(m) * t / math.sqrt(eff_n)
    return Study(n_t=n_t, n_c=n_c, g=g, v2=g_variance(g, n_t, n_c))
