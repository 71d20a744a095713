"""The battery's rows called on one input, a batch of one, and batches
stacked from inputs and split back into them."""

import numpy as np

from smdmeta import qstat
from smdmeta.numkernel import _unwrap
from smdmeta.qstat import MetaBatch


def row(function, data, *args):
    """The `*_batch` row `function` on one input, then one list per
    prerequisite and the level: its result, or its failure raised."""
    return _unwrap(function(data, *args)[0])


def q_at(data, tau2):
    """Q(tau2) of one input from the fits every row uses, `_row_fits`."""
    return float(qstat._row_fits(data.g, data.v2, np.array([tau2]))[3].sum())


def stack(inputs):
    """One batch of the rows of `inputs`, batches of the same arm sizes."""
    assert all(d.arm_sizes == inputs[0].arm_sizes for d in inputs)
    return MetaBatch(inputs[0].arm_sizes,
                     np.concatenate([d.g for d in inputs]),
                     np.concatenate([d.v2 for d in inputs]))


def each(batch):
    """Each row of `batch` as a batch of one."""
    return [batch.rows([i]) for i in range(len(batch))]
