"""Random-effects meta-analysis of the standardized mean difference."""

from .numkernel import (DomainError, NonConvergenceError, RandomStream,
                        chisq_cdf, chisq_quantile, mixture_cdf, t_quantile)
from .smd import ArmSummary, Study, g_variance, hedges_g, j_factor, sample_g
from .qstat import MetaBatch, solve_q_roots
from .tau2 import Tau2Interval, Tau2Result
from .effect import EffectInterval, EffectResult
from .simlab import (CellReport, GridConfig, SimCell, estimate_all,
                     expand_grid, run_cell, run_cell_raw, run_grid, study_sizes)

__version__ = "0.1.0"
