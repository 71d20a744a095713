"""Monte-Carlo simulation lab: parameter grid, exact data generation,
deterministic chunked replication, and bias/coverage/MSE metrics.

Replicate streams are keyed by (seed, cell coordinates, replicate index)
only, so results are bit-identical for a fixed seed no matter how the
replications are chunked or scheduled.  Chunks split a cell across
workers; each worker's share is drawn straight into MetaBatches of at most
200 replicates, (R, K) arrays of g and v^2, each estimated at once, with
rows bit-identical to one replicate at a time; `analyze` runs the same
battery on a batch of one.  Batches return per-replicate arrays and all
aggregation happens once, in global replicate order.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from multiprocessing import Pipe, Process

import numpy as np

from . import effect as eff
from . import tau2 as t2
from .numkernel import (NonConvergenceError, RandomStream, derive_stream_id,
                        one_blas_thread)
from .qstat import MetaBatch
from .smd import sample_g

DELTAS = (0.0, 0.2, 0.5, 1.0, 2.0)
TAU2S = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
KS = (5, 10, 30)
EQUAL_SIZES = (20, 40, 100, 250, 30, 50, 60, 70)
UNEQUAL_SIZES = {
    30: (12, 16, 18, 20, 84),
    60: (24, 32, 36, 40, 168),
    100: (64, 72, 76, 80, 208),
    160: (124, 132, 136, 140, 268),
}
QS = (0.5, 0.75)

MSE_ESTIMATORS = ("SSW", "IV-KDB", "IV-MP")
MSE_RATIOS = (("SSW/IV-KDB", "SSW", "IV-KDB"), ("SSW/IV-MP", "SSW", "IV-MP"))


class GridValidationError(ValueError):
    """A cell value is invalid, or outside the supported parameter table."""

    hint = ""

    def __init__(self, fld: str, value):
        super().__init__(f"unsupported value for {fld}: {value!r}{self.hint}")
        self.field = fld


class OffGridError(GridValidationError):
    """A valid value outside the built-in grid table; allow_custom lifts it."""

    hint = " (pass allow_custom to override)"


@dataclass(frozen=True)
class SimCell:
    """One parameter combination of the simulation grid."""

    delta: float
    tau2: float
    k: int
    pattern: str  # "equal" | "unequal"
    size: int     # n for equal, mean size nbar for unequal
    q: float      # proportion of each study in the control arm
    reps: int = 2000
    chunks: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in ("equal", "unequal"):
            raise GridValidationError("pattern", self.pattern)
        if not math.isfinite(self.delta):
            raise GridValidationError("delta", self.delta)
        if not 0 <= self.tau2 < math.inf:
            raise GridValidationError("tau2", self.tau2)
        if self.k < 2:
            raise GridValidationError("k", self.k)
        if not 0 < self.q < 1:
            raise GridValidationError("q", self.q)
        if not 0 <= self.seed < 2**64:
            raise GridValidationError("seed", self.seed)
        if self.reps <= 0 or self.chunks <= 0:
            raise GridValidationError("reps/chunks", (self.reps, self.chunks))
        if self.reps % self.chunks != 0:
            raise GridValidationError(
                "chunks", f"{self.chunks} does not divide reps={self.reps}")
        if self.pattern == "unequal":
            if self.size not in UNEQUAL_SIZES:
                raise GridValidationError("size (unequal nbar)", self.size)
            if self.k % 5 != 0:
                raise GridValidationError("k", f"{self.k} not divisible by 5 "
                                               "under the unequal pattern")
        for n_t, n_c in study_sizes(self):  # g_variance needs m >= 3
            if min(n_t, n_c) < 2 or n_t + n_c < 5:
                raise GridValidationError("arm sizes", (n_t, n_c))

    def coord_parts(self) -> tuple:
        """Cell coordinates that key the random streams, cast so 1 and 1.0
        agree (reps/chunks/seed excluded: more reps extend, not reshuffle)."""
        return (float(self.delta), float(self.tau2), int(self.k), self.pattern,
                int(self.size), float(self.q))


def validate_cell(cell: SimCell, allow_custom: bool = False) -> None:
    """Reject values outside the built-in grid unless allow_custom is set
    (the checks it cannot lift already ran when the SimCell was built)."""
    if allow_custom:
        return
    if cell.delta not in DELTAS:
        raise OffGridError("delta", cell.delta)
    if cell.tau2 not in TAU2S:
        raise OffGridError("tau2", cell.tau2)
    if cell.k not in KS:
        raise OffGridError("k", cell.k)
    if cell.q not in QS:
        raise OffGridError("q", cell.q)
    if cell.pattern == "equal" and cell.size not in EQUAL_SIZES:
        raise OffGridError("size (equal n)", cell.size)


def study_sizes(cell: SimCell) -> tuple[tuple[int, int], ...]:
    """Arm sizes (n_t, n_c) for every study in the cell.

    Equal pattern: K copies of the cell size.  Unequal pattern: the
    five-study size vector for nbar repeated K/5 times.  Arms split as
    n_t = ceil((1 - q) n), n_c = n - n_t.
    """
    if cell.pattern == "equal":
        totals = (cell.size,) * cell.k
    else:
        totals = UNEQUAL_SIZES[cell.size] * (cell.k // 5)
    out = []
    for n in totals:
        n_t = math.ceil((1.0 - cell.q) * n)
        out.append((n_t, n - n_t))
    return tuple(out)


@dataclass(frozen=True)
class GridConfig:
    deltas: tuple[float, ...] = DELTAS
    tau2s: tuple[float, ...] = TAU2S
    ks: tuple[int, ...] = KS
    equal_sizes: tuple[int, ...] = EQUAL_SIZES
    unequal_sizes: tuple[int, ...] = tuple(UNEQUAL_SIZES)
    qs: tuple[float, ...] = QS
    reps: int = 2000
    chunks: int = 10
    seed: int = 0


def expand_grid(config: GridConfig, allow_custom: bool = False) -> list[SimCell]:
    """Cartesian product in lexicographic (delta, tau2, k, sizes, q) order."""
    size_specs = [("equal", n) for n in config.equal_sizes]
    size_specs += [("unequal", n) for n in config.unequal_sizes]
    cells = []
    for delta in config.deltas:
        for tau2 in config.tau2s:
            for k in config.ks:
                for pattern, size in size_specs:
                    for q in config.qs:
                        cell = SimCell(delta, tau2, k, pattern, size, q,
                                       config.reps, config.chunks, config.seed)
                        validate_cell(cell, allow_custom)
                        cells.append(cell)
    return cells


# ---------------------------------------------------------------------------
# the estimator battery (shared verbatim by the analyze command)
# ---------------------------------------------------------------------------

# One row per estimator, in run order: (failure name, kind, output name,
# module, function, prerequisites).  A row's key is (kind, output name); its
# prerequisites, keys of earlier rows, follow the data as arguments, then the
# level on "_cover" rows, on the Q-root row, which solves every Q(tau^2) =
# target of a replicate for the rows that read it, and on the fixed-weight
# row, which finds the BJ and J intervals together.  Every function is a
# `*_batch` function: it takes the MetaBatch and a list per prerequisite,
# and returns a result or NonConvergenceError per replicate.
# Functions are looked up by name on each call, so a patched module
# attribute (a tracing span, a test double) is what runs.
ROOTS = ("q_roots", "Q-roots")
FIXED = ("fixed_weight", "BJ/J-intervals")
ESTIMATORS = (
    ("DL", "tau2_est", "DL", t2, "tau2_dl_batch", []),
    ("Q-roots", *ROOTS, t2, "q_roots_batch", []),
    ("MP", "tau2_est", "MP", t2, "tau2_mp_batch", [ROOTS]),
    ("REML", "tau2_est", "REML", t2, "tau2_reml_batch", [("tau2_est", "DL")]),
    ("J", "tau2_est", "J", t2, "tau2_jackson_batch", []),
    ("KDB", "expected_q", "KDB", t2, "expected_q_batch", [ROOTS]),
    ("KDB", "tau2_est", "KDB", t2, "tau2_kdb_batch", [ROOTS, ("expected_q", "KDB")]),
    ("QP", "tau2_cover", "QP", t2, "ci_qp_batch", [ROOTS]),
    ("BJ/J-intervals", *FIXED, t2, "fixed_weight_batch", []),
    ("BJ", "tau2_cover", "BJ", t2, "ci_bj_batch", [FIXED]),
    ("J-interval", "tau2_cover", "J", t2, "ci_jackson_batch", [FIXED]),
    ("PL", "tau2_cover", "PL", t2, "ci_pl_batch", [("tau2_est", "REML")]),
    ("KDB-interval", "tau2_cover", "KDB", t2, "ci_kdb_batch", [ROOTS, ("expected_q", "KDB")]),
    ("IV-DL", "delta_est", "IV-DL", eff, "effect_iv_batch", [("tau2_est", "DL")]),
    ("IV-MP", "delta_est", "IV-MP", eff, "effect_iv_batch", [("tau2_est", "MP")]),
    ("IV-REML", "delta_est", "IV-REML", eff, "effect_iv_batch", [("tau2_est", "REML")]),
    ("IV-J", "delta_est", "IV-J", eff, "effect_iv_batch", [("tau2_est", "J")]),
    ("IV-KDB", "delta_est", "IV-KDB", eff, "effect_iv_batch", [("tau2_est", "KDB")]),
    ("SSW", "delta_est", "SSW", eff, "effect_ssw_batch", [("tau2_est", "KDB")]),
    ("Z-DL", "delta_cover", "Z-DL", eff, "ci_z_batch", [("delta_est", "IV-DL")]),
    ("Z-MP", "delta_cover", "Z-MP", eff, "ci_z_batch", [("delta_est", "IV-MP")]),
    ("Z-REML", "delta_cover", "Z-REML", eff, "ci_z_batch", [("delta_est", "IV-REML")]),
    ("Z-J", "delta_cover", "Z-J", eff, "ci_z_batch", [("delta_est", "IV-J")]),
    ("Z-KDB", "delta_cover", "Z-KDB", eff, "ci_z_batch", [("delta_est", "IV-KDB")]),
    ("HKSJ", "delta_cover", "HKSJ", eff, "ci_hksj_batch", [("tau2_est", "DL"), ("delta_est", "IV-DL")]),
    ("HKSJ-KDB", "delta_cover", "HKSJ-KDB", eff, "ci_hksj_batch", [("tau2_est", "KDB"), ("delta_est", "IV-KDB")]),
    ("SSW-KDB", "delta_cover", "SSW-KDB", eff, "ci_ssw_kdb_batch", [("delta_est", "SSW")]),
)
_OUTPUT_NAMES = {kind: tuple(row[2] for row in ESTIMATORS if row[1] == kind)
                 for kind in ("tau2_est", "tau2_cover", "delta_est",
                              "delta_cover")}
TAU2_POINT, TAU2_CI, DELTA_POINT, DELTA_CI = _OUTPUT_NAMES.values()


def estimate_all(batch: MetaBatch, level: float = 0.95) -> list:
    """Run every row of ESTIMATORS on a batch, each row in one call over
    the replicates ready for it (one input is a batch of one); returns one
    (results, failures) pair per replicate, in batch order, results keyed
    by (kind, output name).

    A row that fails with NonConvergenceError is recorded in failures under
    its failure name, never silently dropped, and has no result.  A row
    whose prerequisite has no result is recorded as "prerequisite failed",
    unless its failure name is already recorded (a failed corrected E[Q] is
    recorded once, as "KDB").
    """
    everyone = range(len(batch))
    results: list[dict] = [{} for _ in everyone]
    failures: list[list[tuple[str, str]]] = [[] for _ in everyone]
    # a row turns the non-finite values it meets into its failures
    with np.errstate(all="ignore"):
        for failure, kind, name, module, function, prereqs in ESTIMATORS:
            ready = [i for i in everyone
                     if all(key in results[i] for key in prereqs)]
            for i in set(everyone) - set(ready):
                if all(failure != failed for failed, _ in failures[i]):
                    failures[i].append((failure, "prerequisite failed"))
            if not ready:
                continue
            args = [[results[i][key] for i in ready] for key in prereqs]
            extra = (level,) if kind.endswith("_cover") \
                or kind in (ROOTS[0], FIXED[0]) else ()
            try:
                outs = getattr(module, function)(
                    batch if len(ready) == len(batch) else batch.rows(ready),
                    *args, *extra)
            except NonConvergenceError as exc:
                outs = [exc] * len(ready)
            for i, out in zip(ready, outs):
                if isinstance(out, NonConvergenceError):
                    failures[i].append((failure, str(out)))
                else:
                    results[i][kind, name] = out
    return [(done, tuple(failed)) for done, failed in zip(results, failures)]


# ---------------------------------------------------------------------------
# replication
# ---------------------------------------------------------------------------

@dataclass
class RawCellResult:
    """Per-replicate estimator outputs for one cell (or one chunk of it), in
    replicate order; NaN marks a non-convergent replicate for that
    estimator."""

    cell: SimCell
    tau2_est: dict[str, np.ndarray]
    tau2_trunc: dict[str, np.ndarray]
    tau2_cover: dict[str, np.ndarray]
    delta_est: dict[str, np.ndarray]
    delta_cover: dict[str, np.ndarray]
    n_failed: dict[str, int]


# RawCellResult's array fields: the output kinds, plus tau^2 truncation
_FIELDS = dict(_OUTPUT_NAMES, tau2_trunc=TAU2_POINT)
# replicates estimated together at most, the paper's chunk: batches of 2,000
# run no faster per replicate, with 2.6x the memory
_BATCH_REPS = 200


def simulate_batch(cell: SimCell, rep_lo: int, rep_hi: int) -> MetaBatch:
    """Generate replicates rep_lo..rep_hi - 1 of a cell as one batch, each
    from its own stream: true effects delta_i ~ N(delta, tau2), then each
    g_i exactly from its scaled noncentral t model."""
    sizes = study_sizes(cell)
    g, v2 = np.empty((2, rep_hi - rep_lo, cell.k))
    for row, replicate in enumerate(range(rep_lo, rep_hi)):
        sid = derive_stream_id("cell", *cell.coord_parts(), replicate)
        gen = RandomStream(cell.seed, sid).generator()
        deltas = cell.delta + math.sqrt(cell.tau2) * gen.standard_normal(cell.k)
        for i, (n_t, n_c) in enumerate(sizes):
            study = sample_g(gen, n_t, n_c, deltas[i])
            g[row, i], v2[row, i] = study.g, study.v2
    return MetaBatch(sizes, g, v2)


def _run_chunk(cell: SimCell, rep_lo: int, rep_hi: int,
               level: float) -> RawCellResult:
    n = rep_hi - rep_lo
    raw = RawCellResult(cell, n_failed={}, **{
        fld: {m: np.full(n, np.nan) for m in names}
        for fld, names in _FIELDS.items()})
    truth = {"tau2_cover": cell.tau2, "delta_cover": cell.delta}
    batch = simulate_batch(cell, rep_lo, rep_hi)
    for idx, (results, failures) in enumerate(estimate_all(batch, level)):
        for (kind, name), res in results.items():
            if kind in truth:
                getattr(raw, kind)[name][idx] = res.contains(truth[kind])
            elif kind in _OUTPUT_NAMES:
                getattr(raw, kind)[name][idx] = res.value
            if kind == "tau2_est":
                raw.tau2_trunc[name][idx] = res.status == "truncated_at_zero"
        for name, _msg in failures:
            raw.n_failed[name] = raw.n_failed.get(name, 0) + 1
    return raw


def _chunk_task(args) -> list[RawCellResult]:
    """A worker's share, replicates rep_lo..rep_hi - 1 of a cell, estimated
    in batches of at most _BATCH_REPS replicates."""
    cell, rep_lo, rep_hi, level = args
    return [_run_chunk(cell, lo, min(lo + _BATCH_REPS, rep_hi), level)
            for lo in range(rep_lo, rep_hi, _BATCH_REPS)]


def _helper(conn, task) -> None:
    try:
        conn.send(_chunk_task(task))
    except BaseException as exc:
        conn.send(exc)


def usable_cores() -> int:
    """CPUs this process may run on (its affinity set), else the host's."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run_cell_raw(cell: SimCell, level: float = 0.95,
                 threads: int = 1) -> RawCellResult:
    """All replicates of one cell; chunks split it across workers.

    With w = min(threads, chunks, usable_cores()), each worker takes one
    contiguous run of whole chunks, the caller the first and w - 1 helper
    processes the rest, and estimates its share in batches of at most
    _BATCH_REPS replicates.  Each replicate's stream depends only on (seed,
    cell, replicate), each row of a batch is estimated as if alone, and the
    shares are concatenated in replicate order, so the result is identical
    for any chunk count, worker count and batch size.  A REML estimate that
    stopped at max_iter is pooled into bias and coverage as an ordinary
    estimate, and PL is built around it.
    """
    workers = min(threads, cell.chunks, usable_cores())
    # worker h runs chunks ceil(h c / w) .. ceil((h + 1) c / w) - 1
    ends = [-(-h * cell.chunks // workers) * (cell.reps // cell.chunks)
            for h in range(workers + 1)]
    tasks = [(cell, lo, hi, level) for lo, hi in zip(ends, ends[1:])]
    helpers = []
    with one_blas_thread():  # helpers inherit one thread and start none
        try:
            for task in tasks[1:]:
                recv, send = Pipe(duplex=False)
                proc = Process(target=_helper, args=(send, task))
                proc.start()
                helpers.append((proc, recv))
                send.close()  # so a helper that dies leaves recv at EOF
            parts = _chunk_task(tasks[0])
            for proc, recv in helpers:
                try:  # before join: a share can outgrow the pipe buffer
                    share = recv.recv()
                except EOFError:
                    share = RuntimeError("a simulation helper died")
                if isinstance(share, BaseException):
                    raise share
                parts += share
        finally:  # none outlives the call; one that has sent has no work left
            for proc, _ in helpers:
                proc.terminate()
                proc.join()
    n_failed: dict[str, int] = {}
    for part in parts:
        for name, cnt in part.n_failed.items():
            n_failed[name] = n_failed.get(name, 0) + cnt
    return RawCellResult(cell, n_failed=n_failed, **{
        fld: {m: np.concatenate([getattr(p, fld)[m] for p in parts])
              for m in names} for fld, names in _FIELDS.items()})


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricRow:
    estimator: str
    metric: str
    value: float
    mc_se: float


@dataclass(frozen=True)
class CellReport:
    cell: SimCell
    rows: tuple[MetricRow, ...]

    @functools.cached_property
    def _rows_by_key(self) -> dict[tuple[str, str], MetricRow]:
        return {(row.estimator, row.metric): row for row in self.rows}

    def value(self, estimator: str, metric: str) -> float:
        return self._rows_by_key[estimator, metric].value

    def se(self, estimator: str, metric: str) -> float:
        return self._rows_by_key[estimator, metric].mc_se


def _mean_se(x: np.ndarray) -> tuple[float, float, int]:
    ok = x[~np.isnan(x)]
    n = ok.size
    if n == 0:
        return math.nan, math.nan, 0
    mean = float(ok.mean())
    se = float(ok.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return mean, se, n


def _prop_se(x: np.ndarray) -> tuple[float, float]:
    ok = x[~np.isnan(x)]
    if ok.size == 0:
        return math.nan, math.nan
    p = float(ok.mean())
    return p, math.sqrt(p * (1.0 - p) / ok.size)


def metrics(raw: RawCellResult) -> CellReport:
    """Aggregate per-replicate outputs into bias / coverage / MSE rows with
    Monte-Carlo standard errors (coverage SE is sqrt(p(1-p)/R)).

    NaN entries (failed estimators) are left out.  A REML estimate that
    stopped at max_iter is not NaN: it counts in REML's bias and in PL's
    coverage like any other estimate.
    """
    cell = raw.cell
    rows: list[MetricRow] = []
    for name in TAU2_POINT:
        mean, se, _ = _mean_se(raw.tau2_est[name])
        rows.append(MetricRow(name, "tau2_bias", mean - cell.tau2, se))
    for name in TAU2_POINT:
        p, se = _prop_se(raw.tau2_trunc[name])
        rows.append(MetricRow(name, "tau2_trunc_rate", p, se))
    for name in TAU2_CI:
        p, se = _prop_se(raw.tau2_cover[name])
        rows.append(MetricRow(name, "tau2_coverage", p, se))
    for name in DELTA_POINT:
        mean, se, _ = _mean_se(raw.delta_est[name])
        rows.append(MetricRow(name, "delta_bias", mean - cell.delta, se))
    sq_err = {name: (raw.delta_est[name] - cell.delta) ** 2
              for name in MSE_ESTIMATORS}
    for name in MSE_ESTIMATORS:
        mean, se, _ = _mean_se(sq_err[name])
        rows.append(MetricRow(name, "delta_mse", mean, se))
    for label, num_name, den_name in MSE_RATIOS:
        a, b = sq_err[num_name], sq_err[den_name]
        both = ~np.isnan(a) & ~np.isnan(b)
        if both.sum() > 1 and float(b[both].mean()) > 0.0:
            a, b = a[both], b[both]
            ratio = float(a.mean() / b.mean())
            resid = a - ratio * b
            se = float(resid.std(ddof=1) / math.sqrt(both.sum()) / b.mean())
            rows.append(MetricRow(label, "delta_mse_ratio", ratio, se))
        else:
            rows.append(MetricRow(label, "delta_mse_ratio", math.nan, math.nan))
    for name in DELTA_CI:
        p, se = _prop_se(raw.delta_cover[name])
        rows.append(MetricRow(name, "delta_coverage", p, se))
    for name in sorted(raw.n_failed):
        rows.append(MetricRow(name, "n_failed", float(raw.n_failed[name]), 0.0))
    return CellReport(cell, tuple(rows))


def run_cell(cell: SimCell, level: float = 0.95, threads: int = 1) -> CellReport:
    """Simulate one cell and aggregate it into a CellReport."""
    return metrics(run_cell_raw(cell, level, threads))


def run_grid(cells: list[SimCell], level: float = 0.95,
             threads: int = 1) -> list[CellReport]:
    """Run many cells; chunks within each cell execute in parallel."""
    return [run_cell(cell, level, threads) for cell in cells]
