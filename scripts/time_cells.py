#!/usr/bin/env python3
"""Time six grid cells at the paper's batch size, parent against change.

The benchmark's grid workloads estimate each 20-replicate cell as one
batch; the paper's 2,000-replicate cells run in batches of R = 200, where
work that is shared across the rows of a batch shows its gain.  This
script runs one fixed cell per (K, pattern) stratum of the grid as

    smdmeta simulate --reps 200 --threads N --seed <pair>

with N from --threads (by default 1: one batch of 200 in one process; a
larger N lets min(N, usable cores, 4) workers split the cell) in both
source trees, in 10 alternating pairs: pair i runs seed i on both sides,
and the side that runs first alternates from pair to pair, so drift in
machine speed falls on both sides alike.  Each run is a fresh process that
imports `smdmeta` from its tree's `src/` and times only the `simulate`
call.  Every run is printed as one JSON line, in the form
`bench_pairs.py` records its runs, with its ms per replicate as the one
metric.  Per cell one more line holds `bench_pairs.summarize`'s summary of
ms per replicate (better lower, with the bound of the change's
`norm_reps_per_s`) and whether every pair's two results CSVs are
byte-identical; the exit code is 1 if any pair's are not.

Example:

    python3 scripts/time_cells.py --parent ../parent --change . > cells.jsonl
    python3 scripts/time_cells.py --parent ../parent --change . --threads 2
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from bench_pairs import summarize

PAIRS = 10
REPS = 200

# (K, pattern, size flag, size, delta, tau2, q): one cell per stratum
CELLS = [
    (5, "equal", "--n", 20, 0.5, 1.0, 0.5),
    (5, "unequal", "--nbar", 60, 0.2, 0.5, 0.75),
    (10, "equal", "--n", 40, 1.0, 1.5, 0.75),
    (10, "unequal", "--nbar", 100, 0.5, 2.0, 0.5),
    (30, "equal", "--n", 100, 0.2, 0.5, 0.5),
    (30, "unequal", "--nbar", 30, 1.0, 1.0, 0.75),
]

# Run in the child: import smdmeta from argv[1], time cli.main(argv[2:]).
CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from smdmeta import cli
start = time.perf_counter()
code = cli.main(sys.argv[2:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def cell_name(cell) -> str:
    k, pattern, size_flag, size, delta, tau2, q = cell
    return (f"k={k} {pattern} {size_flag.lstrip('-')}={size} "
            f"delta={delta} tau2={tau2} q={q}")


def simulate_argv(cell, reps: int, seed: int, out: str,
                  threads: int = 1) -> list[str]:
    k, pattern, size_flag, size, delta, tau2, q = cell
    return ["simulate", "--delta", str(delta), "--tau2", str(tau2),
            "--k", str(k), size_flag, str(size), "--q", str(q),
            "--reps", str(reps), "--threads", str(threads),
            "--seed", str(seed), "--out", out]


def run_once(tree: str, cell, reps: int, seed: int, out: str,
             threads: int = 1) -> float:
    """Seconds one `simulate` call of `tree` took on cell."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(tree, "src"),
         *simulate_argv(cell, reps, seed, out, threads)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"simulate in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def time_cell(cell, parent: str, change: str, pairs: int, reps: int,
              metric: dict, work: str,
              threads: int = 1) -> tuple[list[dict], dict]:
    """Alternating pairs on one cell, seeds 1..pairs: the runs, and their
    summary with whether the two sides wrote the same bytes in every
    pair."""
    runs, identical = [], True
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        written = {}
        for position, side in enumerate(order):
            written[side] = os.path.join(work, f"{side}.csv")
            tree = parent if side == "parent" else change
            seconds = run_once(tree, cell, reps, seed, written[side],
                               threads)
            runs.append({"set": "time_cells", "order": position,
                         "side": side, "workload": cell_name(cell),
                         "seed": seed, "reps": reps, "threads": threads,
                         "seconds": seconds,
                         "result": {"metrics": {metric["name"]: {
                             "value": 1000.0 * seconds / reps}}}})
        with open(written["parent"], "rb") as a, \
                open(written["change"], "rb") as b:
            identical &= a.read() == b.read()
    row, = summarize(runs, "time_cells", cell_name(cell),
                     list(range(1, pairs + 1)), [metric])
    return runs, {**row, "threads": threads, "csv_identical": identical}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--threads", type=int, default=1,
                        help="workers per simulate call")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        rate, = [m for m in json.load(fh)["end_to_end"]
                 if m["name"] == "norm_reps_per_s"]
    metric = {"name": "ms_per_rep", "better": "lower", "bound": rate["bound"]}
    all_identical = True
    with tempfile.TemporaryDirectory() as work:
        for cell in CELLS:
            runs, row = time_cell(cell, args.parent, args.change, PAIRS,
                                  REPS, metric, work, args.threads)
            for run in runs:
                print(json.dumps(run))
            print(json.dumps(row), flush=True)
            all_identical &= row["csv_identical"]
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
