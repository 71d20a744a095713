"""Point and interval estimators of the overall standardized mean difference.

Point estimators: the inverse-variance weighted mean at each tau^2 estimate,
and SSW, whose weights are the effective sample sizes
ntilde_i = n_t n_c / (n_t + n_c) and therefore never depend on the
estimated variances.

Interval estimators: normal-quantile intervals around each inverse-variance
mean, the Hartung-Knapp-Sidik-Jonkman t interval (with DL or KDB weights),
and the t interval centered at SSW with the sample-size-weight variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkernel import DomainError, normal_quantile, t_quantile
from .qstat import MetaInput, Tau2Result, iv_weighted_mean


@dataclass(frozen=True)
class EffectResult:
    value: float
    variance: float
    weights: np.ndarray

    def __post_init__(self):
        if not self.variance > 0:
            raise DomainError("effect variance must be > 0")


@dataclass(frozen=True)
class EffectInterval:
    center: float
    half_width: float
    level: float = 0.95
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.half_width < 0:
            raise DomainError("half-width must be >= 0")
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must be in (0,1), got {self.level}")

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    def contains(self, delta: float) -> bool:
        return abs(delta - self.center) <= self.half_width


def effect_iv(data: MetaInput, tau2: Tau2Result) -> EffectResult:
    """Inverse-variance weighted mean with weights 1/(v_i^2 + tau2);
    variance estimated conventionally as 1/sum(w)."""
    fit = iv_weighted_mean(data, tau2.value)
    return EffectResult(fit.mean, 1.0 / fit.sum_w, fit.weights)


def ssw_variance(data: MetaInput, tau2: float) -> float:
    """Variance of the sample-size-weighted mean:
    sum ntilde^2 (v^2 + tau2) / (sum ntilde)^2."""
    if tau2 < 0:
        raise DomainError(f"tau2 must be >= 0, got {tau2}")
    en = data.eff_n
    return float((en * en * (data.v2 + tau2)).sum()) / float(en.sum()) ** 2


def effect_ssw(data: MetaInput, kdb: Tau2Result) -> EffectResult:
    """Sample-size-weighted mean, weights ntilde_i.

    The reported variance is `ssw_variance` at kdb, the `tau2_kdb` estimate;
    the point estimate itself never depends on the variances.
    """
    en = data.eff_n
    value = float((en * data.g).sum()) / float(en.sum())
    return EffectResult(value, ssw_variance(data, kdb.value), en)


def ci_z(data: MetaInput, iv: EffectResult, level: float = 0.95) -> EffectInterval:
    """Normal-quantile interval around iv, an `effect_iv` mean."""
    z = normal_quantile(1.0 - (1.0 - level) / 2.0)
    return EffectInterval(iv.value, z * math.sqrt(iv.variance), level)


def ci_hksj(data: MetaInput, iv: EffectResult, level: float = 0.95) -> EffectInterval:
    """Hartung-Knapp-Sidik-Jonkman interval around iv, an `effect_iv` mean:
    the weighted residual variance sum w (g - center)^2 / ((K-1) sum w) of
    iv's weights and a t quantile on K - 1 degrees of freedom.

    All-equal inputs give a zero half-width, flagged "degenerate" rather
    than raised, so simulation coverage accounting can proceed.
    """
    resid = data.g - iv.value
    var_star = float((iv.weights * resid * resid).sum()) \
        / ((data.k - 1) * float(iv.weights.sum()))
    degenerate = float(np.abs(resid).max()) <= 1e-12 * max(1.0, abs(iv.value))
    if degenerate:
        var_star = 0.0
    flags = ("degenerate",) if degenerate else ()
    t = t_quantile(1.0 - (1.0 - level) / 2.0, data.k - 1)
    return EffectInterval(iv.value, t * math.sqrt(var_star), level, flags)


def ci_ssw_kdb(data: MetaInput, ssw: EffectResult,
               level: float = 0.95) -> EffectInterval:
    """t interval centered at ssw, the `effect_ssw` mean, with its
    sample-size-weight variance at the KDB tau^2 estimate."""
    t = t_quantile(1.0 - (1.0 - level) / 2.0, data.k - 1)
    return EffectInterval(ssw.value, t * math.sqrt(ssw.variance), level)
