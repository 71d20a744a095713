#!/usr/bin/env python3
"""Run the full 2160-cell simulation grid and render the standard figures.

At the published scale (10,000 replications per cell) this is an HPC-sized
job; the default here is a desk-scale profile (reps=2000, coverage MC SE
about 0.005).  Results land in a long-format CSV plus one SVG per
(metric, delta, q, size family).

Examples
--------
Full grid, desk scale:

    python scripts/run_paper_grid.py --out results/full.csv --reps 2000

One slice with figures:

    python scripts/run_paper_grid.py --out results/slice.csv \
        --deltas 0.5 --figures results/figs
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from smdmeta import cli  # noqa: E402
from smdmeta.simlab import (  # noqa: E402
    DELTAS, EQUAL_SIZES, KS, QS, TAU2S, UNEQUAL_SIZES, usable_cores)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="results CSV path")
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=usable_cores())
    parser.add_argument("--deltas", default=",".join(f"{d:g}" for d in DELTAS))
    parser.add_argument("--figures", default=None,
                        help="directory for SVG panels (optional)")
    args = parser.parse_args()

    sim_args = [
        "simulate",
        "--delta", args.deltas,
        "--tau2", ",".join(f"{t:g}" for t in TAU2S),
        "--k", ",".join(str(k) for k in KS),
        "--n", ",".join(str(n) for n in EQUAL_SIZES),
        "--nbar", ",".join(str(n) for n in UNEQUAL_SIZES),
        "--q", ",".join(f"{q:g}" for q in QS),
        "--reps", str(args.reps),
        "--seed", str(args.seed),
        "--threads", str(args.threads),
        "--out", args.out,
    ]
    code = cli.main(sim_args)
    if code != 0 or not args.figures:
        return code
    for metric in ("tau2_bias", "tau2_coverage", "delta_bias",
                   "delta_coverage", "delta_mse_ratio"):
        code = cli.main(["plot", "--results", args.out, "--metric", metric,
                         "--out-dir", args.figures])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
