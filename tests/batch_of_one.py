"""The battery's rows called on one input, as a batch of one."""

import numpy as np

from smdmeta import qstat
from smdmeta.numkernel import _unwrap
from smdmeta.qstat import MetaBatch


def row(function, data, *args):
    """The `*_batch` row `function` on one input, then one list per
    prerequisite and the level: its result, or its failure raised."""
    return _unwrap(function(MetaBatch((data,)), *args)[0])


def q_at(data, tau2):
    """Q(tau2) of one input from the fits every row uses, `_row_fits`."""
    return float(qstat._row_fits(data.g[None], data.v2[None],
                                 np.array([tau2]))[3].sum())
