"""Seeded inputs for the benchmark workloads.

The program under test receives only what is made here: argument lists for
`smdmeta simulate` and CSV files for `smdmeta analyze`.  Everything is a
pure function of the seed, and nothing here imports the package.
"""

from __future__ import annotations

import math
import os
import statistics
from typing import Iterator, NamedTuple

import numpy as np

# The paper's simulation grid (2160 cells).
DELTAS = (0.0, 0.2, 0.5, 1.0, 2.0)
TAU2S = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
KS = (5, 10, 30)
EQUAL_SIZES = (20, 40, 100, 250, 30, 50, 60, 70)
UNEQUAL_NBARS = (30, 60, 100, 160)
QS = (0.5, 0.75)
GRID_REPS = 2000

# Strata of the grid sample: every (K, size pattern) pair.  One round of the
# sample holds one cell of each stratum, so the strata appear equally often.
STRATA = tuple((k, pattern) for k in KS for pattern in ("equal", "unequal"))

# Replicates per sampled cell and the chunking passed to `simulate`.  Short
# cells let a run cover many cells, which keeps the seed-to-seed spread low.
CELL_REPS = 20
CELL_CHUNKS = 4


class Cell(NamedTuple):
    delta: float
    tau2: float
    k: int
    pattern: str  # "equal" | "unequal"
    size: int     # n for equal, nbar for unequal
    q: float


def pattern_sizes(pattern: str) -> tuple[int, ...]:
    return EQUAL_SIZES if pattern == "equal" else UNEQUAL_NBARS


def stratum_grid_cells(pattern: str) -> int:
    """Cells of the full grid in one (K, pattern) stratum."""
    return len(DELTAS) * len(TAU2S) * len(QS) * len(pattern_sizes(pattern))


def grid_core_hours(cost_per_rep_s: dict[tuple[int, str], float],
                    reps: int = GRID_REPS) -> float:
    """Projected single-core hours for the full grid at `reps` replicates.

    Each stratum's measured serial cost per replicate is multiplied by the
    number of grid cells in that stratum, so an equal-size stratum (480
    cells) weighs twice an unequal one (240 cells).
    """
    seconds = sum(stratum_grid_cells(pattern) * reps * cost_per_rep_s[(k, pattern)]
                  for k, pattern in STRATA)
    return seconds / 3600.0


def _balanced(rng: np.random.Generator, levels: tuple) -> Iterator:
    """Endless sequence of shuffled passes over `levels`: every prefix holds
    each level equally often, to within one."""
    while True:
        for i in rng.permutation(len(levels)):
            yield levels[i]


def grid_rounds(seed: int) -> Iterator[list[Cell]]:
    """Endless rounds of grid cells, one cell per stratum.

    Within a stratum, delta, tau^2, size and q are each dealt from their own
    shuffled balanced sequence, so the seed picks which combinations run
    while the share of each level stays fixed.
    """
    factors = []
    for si, (_k, pattern) in enumerate(STRATA):
        levels = (DELTAS, TAU2S, pattern_sizes(pattern), QS)
        factors.append([_balanced(np.random.default_rng([seed, si, fi]), lv)
                        for fi, lv in enumerate(levels)])
    while True:
        yield [Cell(float(next(d)), float(next(t)), k, pattern, int(next(n)),
                    float(next(q)))
               for (k, pattern), (d, t, n, q) in zip(STRATA, factors)]


def simulate_argv(cell: Cell, seed: int, threads: int, out: str,
                  reps: int = CELL_REPS, chunks: int = CELL_CHUNKS) -> list[str]:
    size_flag = "--n" if cell.pattern == "equal" else "--nbar"
    return ["simulate", "--delta", f"{cell.delta:g}", "--tau2", f"{cell.tau2:g}",
            "--k", str(cell.k), "--q", f"{cell.q:g}", size_flag, str(cell.size),
            "--reps", str(reps), "--chunks", str(chunks), "--seed", str(seed),
            "--threads", str(threads), "--out", out]


# ---------------------------------------------------------------------------
# analyze stream
# ---------------------------------------------------------------------------

K_MIN, K_MAX = 3, 100
K_MEDIAN, K_LOG_SD = 10.0, 0.8   # about 80% of analyses have K < 20
ARM_MIN, ARM_MAX = 8, 300

# The stream is cut into windows of WINDOW calls.  Each window holds the
# malformed cases below once each, at fixed positions, and WINDOW - 4
# well-formed analyses whose K values are stratified quantiles of the skewed
# K distribution, so every window carries the same mix.  The number paired
# with each case is the exit code the CLI documents for it.
WINDOW = 60
MALFORMED = (("missing-column", 2), ("n-below-2", 3), ("non-numeric", 2),
             ("nan-g", 3))
MALFORMED_AT = (7, 22, 37, 52)
WELL_FORMED_EXITS = (0, 4)


class AnalysisInput(NamedTuple):
    path: str
    kind: str                    # "raw", "precomputed" or a MALFORMED name
    exits: tuple[int, ...]       # documented exit codes


def window_ks(rng: np.random.Generator, n: int) -> list[int]:
    """`n` K values from a log-normal clipped to [3, 100], one from each of
    `n` equal-probability strata, in shuffled order."""
    dist = statistics.NormalDist(math.log(K_MEDIAN), K_LOG_SD)
    u = (np.arange(n) + rng.random(n)) / n
    ks = [min(K_MAX, max(K_MIN, round(math.exp(dist.inv_cdf(float(p))))))
          for p in u]
    return [ks[i] for i in rng.permutation(n)]


def _studies(rng: np.random.Generator, k: int, raw: bool) -> list[list[str]]:
    """K studies with arm sizes drawn independently per study, as rows of
    either arm summaries or precomputed (g, var_g)."""
    delta = rng.uniform(-0.2, 1.2)
    tau = math.sqrt(rng.uniform(0.0, 1.0))
    sizes = np.floor(np.exp(rng.uniform(math.log(ARM_MIN),
                                        math.log(ARM_MAX + 1), (k, 2))))
    rows = []
    for i in range(k):
        n_t, n_c = int(sizes[i, 0]), int(sizes[i, 1])
        sigma = rng.uniform(1.0, 3.0)
        theta = rng.normal(delta, tau)
        mean_c = rng.normal(10.0, 2.0)
        m_c = rng.normal(mean_c, sigma / math.sqrt(n_c))
        m_t = rng.normal(mean_c + theta * sigma, sigma / math.sqrt(n_t))
        sd_t = sigma * math.sqrt(rng.chisquare(n_t - 1) / (n_t - 1))
        sd_c = sigma * math.sqrt(rng.chisquare(n_c - 1) / (n_c - 1))
        row = [f"s{i + 1}", str(n_t), str(n_c)]
        if raw:
            row += [f"{m_t:.10g}", f"{sd_t:.10g}", f"{m_c:.10g}", f"{sd_c:.10g}"]
        else:
            m = n_t + n_c - 2
            s_pool = math.sqrt(((n_t - 1) * sd_t ** 2 + (n_c - 1) * sd_c ** 2) / m)
            g = (1.0 - 3.0 / (4.0 * m - 1.0)) * (m_t - m_c) / s_pool
            var_g = (n_t + n_c) / (n_t * n_c) + g * g / (2.0 * (n_t + n_c))
            row += [f"{g:.10g}", f"{var_g:.10g}"]
        rows.append(row)
    return rows


RAW_HEADER = ["study_id", "n_t", "n_c", "mean_t", "sd_t", "mean_c", "sd_c"]
PRECOMP_HEADER = ["study_id", "n_t", "n_c", "g", "var_g"]


def analysis_csv(rng: np.random.Generator, k: int, kind: str) -> str:
    """Text of one analyze input of the given kind."""
    raw = kind == "raw" or (kind not in ("precomputed", "nan-g")
                            and rng.random() < 0.5)
    header = list(RAW_HEADER if raw else PRECOMP_HEADER)
    rows = _studies(rng, k, raw)
    bad = int(rng.integers(k))
    if kind == "missing-column":
        drop = header.index("n_c")
        header.pop(drop)
        for row in rows:
            row.pop(drop)
    elif kind == "n-below-2":
        rows[bad][1] = "1"
    elif kind == "non-numeric":
        rows[bad][3] = "n/a"
    elif kind == "nan-g":
        rows[bad][3] = "nan"
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


def analysis_stream(seed: int, windows: int,
                    directory: str) -> list[AnalysisInput]:
    """Write `windows` windows of analyze inputs under `directory` and
    return them in call order."""
    rng = np.random.default_rng([seed, 7])
    out = []
    for w in range(windows):
        ks = iter(window_ks(rng, WINDOW - len(MALFORMED)))
        malformed = dict(zip(MALFORMED_AT, MALFORMED))
        for j in range(WINDOW):
            if j in malformed:
                kind, code = malformed[j]
                k, exits = int(rng.integers(5, 21)), (code,)
            else:
                kind = "raw" if rng.random() < 0.5 else "precomputed"
                k, exits = next(ks), WELL_FORMED_EXITS
            path = os.path.join(directory, f"a{w * WINDOW + j:05d}.csv")
            with open(path, "w") as fh:
                fh.write(analysis_csv(rng, k, kind))
            out.append(AnalysisInput(path, kind, exits))
    return out
