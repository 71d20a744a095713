"""Point and interval estimators of the overall standardized mean difference.

Point estimators: the inverse-variance weighted mean at each tau^2 estimate,
and SSW, whose weights are the effective sample sizes
ntilde_i = n_t n_c / (n_t + n_c) and therefore never depend on the
estimated variances.

Interval estimators: normal-quantile intervals around each inverse-variance
mean, the Hartung-Knapp-Sidik-Jonkman t interval (with DL or KDB weights),
and the t interval centered at SSW with the sample-size-weight variance.

Each estimator exists once, as a `*_batch` row of `simlab.ESTIMATORS`:
array code over the (R, K) g and v^2 of a MetaBatch and its (K,) effective
sizes, one result per replicate; one input is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkernel import DomainError, normal_quantile, t_quantile
from .qstat import MetaBatch, Tau2Result, _row_fits


@dataclass(frozen=True)
class EffectResult:
    value: float
    variance: float

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


def effect_iv_batch(batch: MetaBatch, tau2s: list[Tau2Result]) -> list:
    """Inverse-variance weighted means, weights 1/(v_i^2 + tau2) at each
    tau2 estimate; variance estimated conventionally as 1/sum(w)."""
    _, sum_w, mean, _ = _row_fits(batch.g, batch.v2,
                                  np.array([t.value for t in tau2s]))
    return [EffectResult(*args) for args in zip(mean.tolist(),
                                                 (1.0 / sum_w).tolist())]


def _ssw_variance(eff_n: np.ndarray, v2: np.ndarray,
                  tau2: np.ndarray) -> np.ndarray:
    """SSW variance per row: sum ntilde^2 (v^2 + tau2) / (sum ntilde)^2."""
    # the square of a Python float: libm pow
    sq = float(eff_n.sum()) ** 2
    return (eff_n * eff_n * (v2 + tau2[:, None])).sum(-1) / sq


def effect_ssw_batch(batch: MetaBatch, kdbs: list[Tau2Result]) -> list:
    """Sample-size-weighted means, weights ntilde_i, with `_ssw_variance` at
    each `tau2_kdb_batch` estimate; the point never depends on the
    variances."""
    en = batch.eff_n
    value = (en * batch.g).sum(-1) / en.sum(-1)
    variance = _ssw_variance(en, batch.v2, np.array([t.value for t in kdbs]))
    return [EffectResult(*args)
            for args in zip(value.tolist(), variance.tolist())]


def _intervals(centers: list[EffectResult], quantile: float, level: float):
    half = quantile * np.sqrt([c.variance for c in centers])
    return [EffectInterval(c.value, h, level)
            for c, h in zip(centers, half.tolist())]


def ci_z_batch(batch: MetaBatch, ivs: list[EffectResult],
               level: float) -> list:
    """Normal-quantile intervals around `effect_iv_batch` means."""
    return _intervals(ivs, normal_quantile(1.0 - (1.0 - level) / 2.0), level)


def ci_hksj_batch(batch: MetaBatch, tau2s: list[Tau2Result],
                  ivs: list[EffectResult], level: float) -> list:
    """Hartung-Knapp-Sidik-Jonkman intervals around `effect_iv_batch` means
    at the tau2s: the weighted residual variance sum w (g - center)^2 /
    ((K-1) sum w), w = 1/(v^2 + tau2), and a t quantile on K - 1 df.

    All-equal inputs give a zero half-width, flagged "degenerate" rather
    than raised, so simulation coverage accounting can proceed.
    """
    center = np.array([iv.value for iv in ivs])
    # effect_iv_batch's mean is _row_fits', so terms are w (g - center)^2
    _, sum_w, _, terms = _row_fits(batch.g, batch.v2,
                                   np.array([t.value for t in tau2s]))
    var_star = terms.sum(-1) / ((batch.k - 1) * sum_w)
    degenerate = np.abs(batch.g - center[:, None]).max(-1) \
        <= 1e-12 * np.maximum(1.0, np.abs(center))
    t = t_quantile(1.0 - (1.0 - level) / 2.0, batch.k - 1)
    half = t * np.sqrt(np.where(degenerate, 0.0, var_star))
    return [EffectInterval(iv.value, h, level, ("degenerate",) if d else ())
            for iv, h, d in zip(ivs, half.tolist(), degenerate.tolist())]


def ci_ssw_kdb_batch(batch: MetaBatch, ssws: list[EffectResult],
                     level: float) -> list:
    """t intervals centered at `effect_ssw_batch` means, with their
    sample-size-weight variance at the KDB tau^2 estimate."""
    return _intervals(ssws, t_quantile(1.0 - (1.0 - level) / 2.0, batch.k - 1),
                      level)
