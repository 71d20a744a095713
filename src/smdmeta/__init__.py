"""Random-effects meta-analysis of the standardized mean difference."""

from .numkernel import (
    DomainError,
    NonConvergenceError,
    RandomStream,
    chisq_cdf,
    chisq_quantile,
    ln_gamma,
    mixture_cdf,
    t_quantile,
)
from .smd import ArmSummary, Study, g_variance, hedges_g, j_factor, sample_g
from .qstat import (
    MetaBatch,
    MetaInput,
    WeightedFit,
    iv_weighted_mean,
    q_statistic,
    solve_q_equals,
    solve_q_roots,
)
from .tau2 import (
    Tau2Interval,
    Tau2Result,
    ci_bj,
    ci_jackson,
    ci_kdb,
    ci_pl,
    ci_qp,
    corrected_expected_q,
    tau2_dl,
    tau2_jackson,
    tau2_kdb,
    tau2_mp,
    tau2_reml,
)
from .effect import (
    EffectInterval,
    EffectResult,
    ci_hksj,
    ci_ssw_kdb,
    ci_z,
    effect_iv,
    effect_ssw,
    ssw_variance,
)
from .simlab import (
    CellReport,
    GridConfig,
    SimCell,
    estimate_all,
    expand_grid,
    run_cell,
    run_cell_raw,
    run_grid,
    study_sizes,
)

__version__ = "0.1.0"
