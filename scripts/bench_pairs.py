#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and summarize them.

Each pair runs the unmodified `bench/run.py` of two source trees, one after
the other, on the same workload and seed; the side that runs first
alternates from pair to pair, so drift in machine speed falls on both sides
alike.  The last JSON line of every run is kept, and per end-to-end metric
of `BENCHMARK.json` the summary holds both sides' medians and quartiles,
the ratio of the medians, the number of pairs the change wins and ties, and
the change's relative move from the parent's median, signed so that
positive is worse, with whether that move is beyond the metric's `bound`.
`claim_met` holds when the change wins at least nine tenths of the pairs
(a tie counts for neither side) and its median beats the parent's by more
than the distance between the parent's quartiles.

Example: ten grid-serial pairs on seeds 9001-9010, appended to BENCH_9.json

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload grid-serial --seeds 9001-9010 \\
        --set "claim: alternating pairs" --out BENCH_9.json

An existing `--out` file keeps its runs and summary; the new set is added.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its exit code and last JSON line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "result": result}


def summarize(runs: list[dict], set_name: str, workload: str,
              seeds: list[int], metrics: list[dict]) -> list[dict]:
    """Medians, quartiles, ratio, wins, ties, the move against the bound and
    whether a gain could be claimed, per end-to-end metric."""
    out = []
    for metric in metrics:
        name = metric["name"]
        side = {s: {r["seed"]: r["result"]["metrics"][name]["value"]
                    for r in runs if r["side"] == s}
                for s in ("parent", "change")}
        parent = np.array([side["parent"][s] for s in seeds])
        change = np.array([side["change"][s] for s in seeds])
        sign = -1.0 if metric["better"] == "higher" else 1.0
        better = sign * change < sign * parent
        move = sign * (np.median(change) / np.median(parent) - 1.0)
        gain = sign * (np.median(parent) - np.median(change))
        parent_iqr = np.subtract(*np.percentile(parent, [75, 25]))
        out.append({
            "set": set_name, "workload": workload, "metric": name,
            "pairs": len(seeds), "seeds": [seeds[0], seeds[-1]],
            "parent_median": round(float(np.median(parent)), 4),
            "parent_quartiles": np.percentile(parent, [25, 75]).round(4)
            .tolist(),
            "change_median": round(float(np.median(change)), 4),
            "change_quartiles": np.percentile(change, [25, 75]).round(4)
            .tolist(),
            "ratio": round(float(np.median(change) / np.median(parent)), 4),
            "change_better_pairs": int(better.sum()),
            "tied_pairs": int((change == parent).sum()),
            "move": round(float(move), 4),
            "beyond_bound": bool(move > metric["bound"]),
            "claim_met": bool(10 * better.sum() >= 9 * len(seeds)
                              and gain > parent_iqr),
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="FIRST-LAST or one seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--set", default="alternating pairs",
                        help="label of this set of pairs in the output")
    parser.add_argument("--description", default=None,
                        help="what the two trees are (kept in --out)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    record = {"description": args.description or "",
              "command": "python3 bench/run.py --workload <workload> "
                         "--seed <seed> --seconds <seconds>",
              "summary": [], "runs": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    if args.description:
        record["description"] = args.description

    seeds = parse_seeds(args.seeds)
    runs, failed = [], False
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            tree = args.parent if side == "parent" else args.change
            run = run_once(tree, args.workload, seed, args.seconds)
            runs.append({"set": args.set, "order": position, "side": side,
                         "workload": args.workload, "seed": seed,
                         "seconds": args.seconds, "trace": 0, **run})
            ok = run["exit"] == 0 and run["result"] is not None \
                and run["result"].get("correct") \
                and run["result"].get("failed") == 0
            failed |= not ok
            value = (run["result"] or {}).get("metrics", {}).get(
                "norm_reps_per_s", {}).get("value")
            print(f"{args.workload} seed {seed} {side}: exit {run['exit']} "
                  f"norm_reps_per_s {value}", flush=True)
    record["runs"] += runs
    if not failed:
        record["summary"] += summarize(runs, args.set, args.workload, seeds,
                                       metrics)
        for row in record["summary"][-len(metrics):]:
            print(json.dumps(row))
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if failed:
        print("a run failed its checks or exited non-zero; no summary",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
