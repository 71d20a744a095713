#!/usr/bin/env python3
"""smdmeta benchmark: one workload per run, through `smdmeta.cli.main`.

    python3 bench/run.py --workload grid-serial --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for why each was chosen):

  grid-serial     stratified seeded sample of simulation-grid cells,
                  `simulate --threads 1`, one cell per call
  grid-parallel   the same cells and seed with --threads = usable cores
  analyze-stream  closed loop, one client: `analyze --format json` over a
                  seeded stream of study CSVs, a fixed share of them malformed

With --trace 0 the run is untraced and reports the end-to-end metrics.  With
--trace 1 every public function of the package is wrapped in a span (see
spans.py) and the run reports per-layer metrics and the tracing overhead.
Every line before the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every output check passed, 1 when one failed, 2 on a usage error or
when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import inputs
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("grid-serial", "grid-parallel", "analyze-stream")
SETUP_PROBES = 5
TASKS_PER_ANALYSIS = 24          # 5 + 5 tau^2, 6 + 8 effect estimators
ANALYSIS_POOL_PER_S = 200        # analyze inputs written per measured second

# Metrics gated by BENCHMARK.json: defined on every workload, never zero.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "norm_reps_per_s": "1/s"}

# Seconds of one calibration slice at the nominal machine speed (about the
# fast end of the 2-vCPU, 2.1 GHz virtual machine the benchmark was defined
# on).  See SpeedScale.
CAL_NOMINAL_S = 0.004

# Reported with --trace 1 (BENCHMARK.json "per_layer").
PER_LAYER = {
    "tau2.ci_bj.s": "s",
    "tau2.ci_jackson.s": "s",
    "tau2.brentq.calls": "count",
    "numkernel.mixture_cdf.calls": "count",
    "numkernel.mixture_cdf.s": "s",
    "numkernel.symmetric_eigenvalues.calls": "count",
    "numkernel.symmetric_eigenvalues.s": "s",
    "tau2.corrected_expected_q.s": "s",
    "tau2.quad.calls": "count",
    "qstat.solve_q_equals.calls": "count",
    "qstat.solve_q_equals.s": "s",
    "qstat.solve_q_equals.iters": "count",
    "qstat.q_statistic.calls": "count",
    "qstat.iv_weighted_mean.calls": "count",
    "tau2.tau2_dl.s": "s",
    "tau2.tau2_mp.s": "s",
    "tau2.tau2_reml.s": "s",
    "tau2.tau2_jackson.s": "s",
    "tau2.tau2_kdb.s": "s",
    "tau2.ci_qp.s": "s",
    "tau2.ci_kdb.s": "s",
    "tau2.ci_pl.s": "s",
    "tau2.tau2_reml.iters": "count",
    "tau2.tau2_reml.max_iter": "count",
    "flags.upper-beyond-cap": "count",
    "flags.nonmonotone-cdf": "count",
    "flags.degenerate": "count",
    "flags.flat-likelihood": "count",
    "effect.effect_iv.s": "s",
    "effect.effect_ssw.s": "s",
    "effect.ci_z.s": "s",
    "effect.ci_hksj.s": "s",
    "effect.ci_ssw_kdb.s": "s",
    "simlab.estimate_all.self_s": "s",
    "smd.sample_g.calls": "count",
    "smd.sample_g.s": "s",
    "smd.j_factor.calls": "count",
    "simlab.simulate_meta_input.s": "s",
    "simlab.metrics.s": "s",
    "cli.write_results_csv.s": "s",
    "cli.results_csv.bytes": "bytes",
    "cli.read_analysis_csv.s": "s",
    "cli.analyze.other_s": "s",
    "simlab.run_cell_raw.s": "s",
    "simlab.scaling_eff": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

INTERVAL_FUNCTIONS = ("tau2.ci_qp", "tau2.ci_kdb", "tau2.ci_bj",
                      "tau2.ci_jackson", "tau2.ci_pl", "effect.ci_z",
                      "effect.ci_hksj", "effect.ci_ssw_kdb")

RESULTS_HEADER = "delta,tau2,k,pattern,n_bar,q,estimator,metric,value,mc_se,reps,seed"
TAU2_POINT = ("DL", "MP", "REML", "J", "KDB")
TAU2_CI = ("QP", "BJ", "J", "PL", "KDB")
DELTA_POINT = ("IV-DL", "IV-MP", "IV-REML", "IV-J", "IV-KDB", "SSW")
DELTA_CI = ("Z-DL", "Z-MP", "Z-REML", "Z-J", "Z-KDB", "HKSJ", "HKSJ-KDB",
            "SSW-KDB")
# Every (estimator, metric) row a results CSV holds per cell, besides one
# n_failed row per estimator that failed at least once.
EXPECTED_ROWS = sorted(
    [(e, "tau2_bias") for e in TAU2_POINT]
    + [(e, "tau2_trunc_rate") for e in TAU2_POINT]
    + [(e, "tau2_coverage") for e in TAU2_CI]
    + [(e, "delta_bias") for e in DELTA_POINT]
    + [(e, "delta_mse") for e in ("SSW", "IV-KDB", "IV-MP")]
    + [(e, "delta_mse_ratio") for e in ("SSW/IV-KDB", "SSW/IV-MP")]
    + [(e, "delta_coverage") for e in DELTA_CI])
UNIT_INTERVAL_METRICS = ("tau2_trunc_rate", "tau2_coverage", "delta_coverage")


class Call(NamedTuple):
    outcome: str      # exit code as text, or the uncaught exception's type
    seconds: float
    scaled_s: float   # seconds at nominal machine speed (see SpeedScale)
    stdout: str


class Context(NamedTuple):
    cli: object
    seed: int
    seconds: float
    work: Path
    workers: int
    tracer: Tracer | None
    rss: "PeakRss"


# ---------------------------------------------------------------------------
# calling the program
# ---------------------------------------------------------------------------

def call_cli(cli, argv: list[str], scale: "SpeedScale") -> Call:
    """One in-process `smdmeta` call; only `cli.main` is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            outcome = str(cli.main(argv))
        except Exception as exc:  # an uncaught error is an outcome to count
            outcome = type(exc).__name__
        seconds = time.perf_counter() - start
    return Call(outcome, seconds, scale.after(seconds), out.getvalue())


def warmup_argv(workload: str, seed: int, work: Path, workers: int) -> list[str]:
    """The call that set-up ends with; it writes its own input if needed."""
    if workload == "analyze-stream":
        path = work / "warmup-input.csv"
        if not path.exists():
            rng = np.random.default_rng([seed, 3])
            path.write_text(inputs.analysis_csv(rng, 5, "precomputed"))
        return ["analyze", "--input", str(path), "--format", "json"]
    threads = 1 if workload == "grid-serial" else workers
    cell = inputs.Cell(0.5, 0.5, 5, "equal", 20, 0.5)
    return inputs.simulate_argv(cell, seed, threads, str(work / "warmup.csv"),
                                reps=4, chunks=2)


_PROBE = """
import contextlib, io, sys
from smdmeta import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print("ready", flush=True)
"""


def setup_seconds(argv: list[str]) -> float:
    """Process start until imports and one warm-up call have finished."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _PROBE, *argv], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return seconds


class PeakRss:
    """Peak resident memory in MB: this process's own high-water mark, or
    the summed VmRSS of it and its descendants, sampled every 20 ms while
    the context is open, whichever is larger.  Pages a forked worker shares
    with its parent count once per process."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(os.getpid()))
            self._stop.wait(self.interval)

    @property
    def mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kb, own_kb) / 1024.0


def _tree_rss_kb(pid: int) -> int:
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                total += next(int(line.split()[1]) for line in fh
                              if line.startswith("VmRSS:"))
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, StopIteration, ValueError):
            continue  # the process ended while being read
    return total


def calibration_slice() -> float:
    """Seconds for a fixed mix of interpreter and small-array work, the
    kind the estimators do; independent of the package under test."""
    a = np.arange(16.0)
    total = 0.0
    start = time.perf_counter()
    for i in range(2000):
        total += float((a * i).sum())
    return time.perf_counter() - start


class SpeedScale:
    """Scales call durations to the nominal machine speed.

    The CPU speed of a shared virtual machine drifts, by up to 2x over
    minutes where the benchmark was defined, which swamps any change in the
    program.  A calibration slice runs before the first call and after every
    call; a call's duration is multiplied by CAL_NOMINAL_S over the mean of
    the two slices on either side of it.
    """

    def __init__(self):
        self.slices = [calibration_slice()]

    def after(self, seconds: float) -> float:
        """Scaled duration of the call that just ended after `seconds`."""
        self.slices.append(calibration_slice())
        return seconds * 2.0 * CAL_NOMINAL_S / (self.slices[-2] + self.slices[-1])

    def slowdown(self) -> float:
        """Median slice time of the run over its nominal time."""
        return statistics.median(self.slices) / CAL_NOMINAL_S


def throughput(raw_rates: list[float], scaled_rates: list[float],
               scale: SpeedScale) -> dict:
    """Median window rates, as measured and at nominal machine speed."""
    return {"reps_per_s": (statistics.median(raw_rates), "1/s"),
            "norm_reps_per_s": (statistics.median(scaled_rates), "1/s"),
            "machine_slowdown": (scale.slowdown(), "ratio")}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _count_iterations(name):
    return lambda tracer, args, result: tracer.count(name, result.iterations)


def _count_reml(tracer, args, result):
    tracer.count("tau2.tau2_reml.iters", result.iterations)
    if result.status == "max_iter":
        tracer.count("tau2.tau2_reml.max_iter")


def _count_flags(tracer, args, result):
    for flag in result.flags:
        tracer.count(f"flags.{flag}")


def _count_csv_bytes(tracer, args, result):
    tracer.count("cli.results_csv.bytes", os.path.getsize(args[0]))


def install_spans(tracer: Tracer) -> None:
    from smdmeta import cli, effect, numkernel, qstat, simlab, smd, tau2
    hooks = {name: _count_flags for name in INTERVAL_FUNCTIONS}
    hooks["qstat.solve_q_equals"] = _count_iterations("qstat.solve_q_equals.iters")
    hooks["tau2.tau2_reml"] = _count_reml
    hooks["cli.write_results_csv"] = _count_csv_bytes
    tracer.install(
        {"numkernel": numkernel, "smd": smd, "qstat": qstat, "tau2": tau2,
         "effect": effect, "simlab": simlab, "cli": cli},
        externals=(("tau2", "quad"), ("tau2", "brentq"), ("numkernel", "quad")),
        hooks=hooks, worker_entry=("simlab", "_chunk_task"))


def layer_metrics(summary: dict, counts: dict, extra: dict) -> dict:
    """Every PER_LAYER metric from span totals, counters and `extra`."""
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in extra:
            value = extra[name]
        elif field in ("calls", "s", "self_s"):
            value = summary.get(span, {}).get(field, 0)
        else:
            value = counts.get(name, 0)
        out[name] = value
    return out


def analyze_other_s(summary: dict) -> float:
    """`main` time of analyze calls outside reading and the battery."""
    if "cli.cmd_analyze" not in summary:
        return 0.0
    return (summary["cli.main"]["s"]
            - summary.get("cli.read_analysis_csv", {}).get("s", 0.0)
            - summary.get("simlab.estimate_all", {}).get("s", 0.0))


def finish_tracing(ctx: Context, busy_s: float, extra: dict):
    """Merge worker spans, write every span out, print the per-name table
    and return the per-layer metrics."""
    tracer = ctx.tracer
    tracer.uninstall()
    tracer.collect_workers()
    tracer.write(str(ctx.work / "spans.npz"))
    summary = tracer.summary()
    with open(ctx.work / "span-summary.json", "w") as fh:
        json.dump({"summary": summary, "counts": tracer.counts}, fh, indent=1)
    print(f"traced spans: {len(tracer.name_id)}; time per span name over "
          f"{busy_s:.3f} s of traced calls (worker spans included)")
    print(f"  {'name':<38} {'calls':>9} {'incl_s':>10} {'self_s':>10} {'self%':>6}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<38} {row['calls']:>9} {row['s']:>10.4f} "
              f"{row['self_s']:>10.4f} {100 * row['self_s'] / busy_s:>6.1f}")
    for name, value in sorted(tracer.counts.items()):
        print(f"  counter {name:<30} {value:>12g}")
    extra = dict(extra, **{"trace.spans": len(tracer.name_id),
                           "cli.analyze.other_s": analyze_other_s(summary)})
    return layer_metrics(summary, tracer.counts, extra)


def measure_overhead(ctx: Context, untraced_s: float, rerun) -> float:
    """Turn tracing on and run the check inputs again; the relative
    slow-down against the untraced check is the tracing overhead.  Spans of
    this rerun are dropped."""
    install_spans(ctx.tracer)
    traced_s = rerun()
    ctx.tracer.reset()
    ctx.tracer.clear_workers()
    return traced_s / untraced_s - 1.0


# ---------------------------------------------------------------------------
# grid workloads
# ---------------------------------------------------------------------------

class CellRun(NamedTuple):
    cell: inputs.Cell
    call: Call
    data: bytes


def run_cells(ctx: Context, cells, threads: int, tag: str,
              scale: SpeedScale) -> list[CellRun]:
    runs = []
    for i, cell in enumerate(cells):
        path = ctx.work / f"{tag}-{i}.csv"
        argv = inputs.simulate_argv(cell, ctx.seed, threads, str(path))
        call = call_cli(ctx.cli, argv, scale)
        data = path.read_bytes() if path.exists() else b""
        if path.exists():
            path.unlink()
        runs.append(CellRun(cell, call, data))
    return runs


def check_results_csv(run: CellRun, seed: int) -> tuple[list[str], float]:
    """Problems with one cell's results CSV, and its summed n_failed."""
    cell = run.cell
    where = f"cell {tuple(cell)}"
    if run.call.outcome != "0":
        return [f"{where}: simulate ended with {run.call.outcome}"], 0.0
    lines = run.data.decode().splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        return [f"{where}: results header mismatch"], 0.0
    problems, seen, n_failed = [], [], 0.0
    for row in csv.DictReader(lines):
        coords = (float(row["delta"]), float(row["tau2"]), int(row["k"]),
                  row["pattern"], int(row["n_bar"]), float(row["q"]))
        if coords != tuple(cell) or int(row["reps"]) != inputs.CELL_REPS \
                or int(row["seed"]) != seed:
            problems.append(f"{where}: row keyed {coords} reps={row['reps']} "
                            f"seed={row['seed']}")
        value = float(row["value"])
        if row["metric"] == "n_failed":
            if not 0 <= value <= inputs.CELL_REPS:
                problems.append(f"{where}: n_failed {value} for {row['estimator']}")
            n_failed += value
            continue
        seen.append((row["estimator"], row["metric"]))
        if row["metric"] in UNIT_INTERVAL_METRICS and not 0.0 <= value <= 1.0:
            problems.append(f"{where}: {row['estimator']} {row['metric']} = {value}")
    if sorted(seen) != EXPECTED_ROWS:
        problems.append(f"{where}: {len(seen)} metric rows, expected "
                        f"{len(EXPECTED_ROWS)}")
    return problems, n_failed


def run_grid(ctx: Context, threads: int):
    rounds = inputs.grid_rounds(ctx.seed)
    check_cells = next(rounds)
    problems = []
    # Round 0, untimed: serial and parallel bytes must be identical.
    serial = run_cells(ctx, check_cells, 1, "check-serial", SpeedScale())
    parallel = run_cells(ctx, check_cells, ctx.workers, "check-parallel",
                         SpeedScale())
    for s, p in zip(serial, parallel):
        if s.data != p.data:
            problems.append(f"cell {tuple(s.cell)}: results differ between "
                            f"--threads 1 and --threads {ctx.workers}")
    for run in serial + parallel:
        problems += check_results_csv(run, ctx.seed)[0]
    serial_s = sum(r.call.scaled_s for r in serial)
    parallel_s = sum(r.call.scaled_s for r in parallel)
    sha = hashlib.sha256(b"".join(r.data for r in serial)).hexdigest()
    extra = {"simlab.scaling_eff": serial_s / (ctx.workers * parallel_s)}
    if ctx.tracer is not None:
        extra["trace.overhead"] = measure_overhead(
            ctx, serial_s if threads == 1 else parallel_s,
            lambda: sum(r.call.scaled_s for r in run_cells(
                ctx, check_cells, threads, "check-traced", SpeedScale())))

    # Whole rounds until the deadline; a round holds one cell per stratum.
    raw_rates: list[float] = []
    scaled_rates: list[float] = []
    runs: list[CellRun] = []
    with ctx.rss:
        scale = SpeedScale()
        start = time.perf_counter()
        while not raw_rates or time.perf_counter() - start < ctx.seconds:
            done = run_cells(ctx, next(rounds), threads, "cell", scale)
            reps = len(done) * inputs.CELL_REPS
            raw_rates.append(reps / sum(r.call.seconds for r in done))
            scaled_rates.append(reps / sum(r.call.scaled_s for r in done))
            runs += done

    failed, n_failed = 0, 0.0
    for run in runs:
        found, cell_failed = check_results_csv(run, ctx.seed)
        problems += found
        n_failed += cell_failed
        failed += run.call.outcome != "0"
    busy_s = sum(r.call.seconds for r in runs)
    reps = len(runs) * inputs.CELL_REPS
    cost = {}
    for stratum in inputs.STRATA:
        mine = [r for r in runs if (r.cell.k, r.cell.pattern) == stratum]
        cost[stratum] = (sum(r.call.seconds for r in mine)
                         / (len(mine) * inputs.CELL_REPS))
    shown = {
        **throughput(raw_rates, scaled_rates, scale),
        "estimator_fail_rate": (n_failed / (TASKS_PER_ANALYSIS * reps), "ratio"),
        "simlab.scaling_eff": (extra["simlab.scaling_eff"], "ratio"),
        "rounds": (len(raw_rates), "count"),
        "cells": (len(runs), "count"),
        "replicates": (reps, "count"),
    }
    if threads == 1:
        shown["grid_core_hours"] = (inputs.grid_core_hours(cost), "h")
    for (k, pattern), c in cost.items():
        shown[f"ms_per_rep.k{k}.{pattern}"] = (1000.0 * c, "ms")
    return {"attempted": len(runs), "failed": failed, "problems": problems,
            "sha": sha, "shown": shown, "busy_s": busy_s, "extra": extra}


# ---------------------------------------------------------------------------
# analyze workload
# ---------------------------------------------------------------------------

def check_analysis(item: inputs.AnalysisInput, call: Call):
    """(documented exit?, estimator failures or None, problems) for one call."""
    documented = call.outcome in {str(c) for c in item.exits}
    if item.exits != inputs.WELL_FORMED_EXITS:
        return documented, None, []
    where = os.path.basename(item.path)
    if not documented:
        return False, None, [f"{where}: analyze ended with {call.outcome}"]
    try:
        payload = json.loads(call.stdout)
    except json.JSONDecodeError as exc:
        return True, None, [f"{where}: output is not JSON ({exc})"]
    problems = []
    for group in ("tau2_intervals", "delta_intervals"):
        for name, ci in payload[group].items():
            if not ci["lo"] <= ci["hi"]:
                problems.append(f"{where}: {group} {name} has lo > hi")
    return True, len(payload["failures"]), problems


def run_analyses(ctx: Context, items, scale: SpeedScale) -> list[Call]:
    return [call_cli(ctx.cli, ["analyze", "--input", item.path,
                               "--format", "json"], scale) for item in items]


def run_analyze(ctx: Context):
    directory = ctx.work / "inputs"
    directory.mkdir()
    windows = 1 + math.ceil(ANALYSIS_POOL_PER_S * ctx.seconds / inputs.WINDOW)
    items = inputs.analysis_stream(ctx.seed, windows, str(directory))
    check, stream = items[:inputs.WINDOW], items[inputs.WINDOW:]
    problems = []
    check_calls = run_analyses(ctx, check, SpeedScale())
    digest = hashlib.sha256()
    for i, (item, call) in enumerate(zip(check, check_calls)):
        problems += check_analysis(item, call)[2]
        digest.update(f"{i} {item.kind} {call.outcome}\n{call.stdout}".encode())
    extra = {}
    if ctx.tracer is not None:
        extra["trace.overhead"] = measure_overhead(
            ctx, sum(c.scaled_s for c in check_calls),
            lambda: sum(c.scaled_s for c in
                        run_analyses(ctx, check, SpeedScale())))

    # Closed loop, one client: the next call starts when the last returns.
    # Whole windows run until the deadline, or until the input pool is used.
    calls: list[tuple[inputs.AnalysisInput, Call]] = []
    with ctx.rss:
        scale = SpeedScale()
        start = time.perf_counter()
        for w in range(0, len(stream), inputs.WINDOW):
            if calls and time.perf_counter() - start >= ctx.seconds:
                break
            window = stream[w:w + inputs.WINDOW]
            calls += zip(window, run_analyses(ctx, window, scale))

    latencies, bad, failed, fails, busy_s = [], 0, 0, 0, 0.0
    raw_rates, scaled_rates = [], []
    for w in range(0, len(calls), inputs.WINDOW):
        ok_s, ok_scaled_s = [], 0.0
        for item, call in calls[w:w + inputs.WINDOW]:
            documented, n_fail, found = check_analysis(item, call)
            problems += found
            bad += not documented
            busy_s += call.seconds
            if item.exits != inputs.WELL_FORMED_EXITS:
                continue
            if n_fail is None:
                failed += 1
                continue
            fails += n_fail
            ok_s.append(call.seconds)
            ok_scaled_s += call.scaled_s
        if ok_s:
            raw_rates.append(len(ok_s) / sum(ok_s))
            scaled_rates.append(len(ok_s) / ok_scaled_s)
            latencies += ok_s
    well_formed = sum(item.exits == inputs.WELL_FORMED_EXITS for item, _ in calls)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    shown = {
        **throughput(raw_rates, scaled_rates, scale),
        "analysis_ms_p50": (1000.0 * statistics.median(latencies), "ms"),
        "analysis_ms_p99": (1000.0 * cuts[98], "ms"),
        "windows": (len(raw_rates), "count"),
        "analyses": (len(latencies), "count"),
        "bad_exit_rate": (bad / len(calls), "ratio"),
        "malformed_calls": (len(calls) - well_formed, "count"),
        "estimator_fail_rate": (fails / (TASKS_PER_ANALYSIS * len(latencies)),
                                "ratio"),
    }
    return {"attempted": well_formed, "failed": failed, "problems": problems,
            "sha": digest.hexdigest(), "shown": shown, "busy_s": busy_s,
            "extra": extra}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_metrics(rows: dict) -> None:
    for name, (value, unit) in rows.items():
        print(f"  {name:<38} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smdmeta" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workers = len(os.sched_getaffinity(0))
    warmup = warmup_argv(args.workload, args.seed, work, workers)
    setup = ([] if args.trace else
             [setup_seconds(warmup) for _ in range(SETUP_PROBES)])

    sys.path.insert(0, str(SRC))
    from smdmeta import cli
    if Path(cli.__file__).resolve().parent != SRC / "smdmeta":
        print(f"error: imported smdmeta from {cli.__file__}", file=sys.stderr)
        return 2
    warm = call_cli(cli, warmup, SpeedScale())
    if warm.outcome != "0":
        print(f"error: warm-up call ended with {warm.outcome}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        (work / "worker-spans").mkdir()
        tracer = Tracer(str(work / "worker-spans"))
    rss = PeakRss()
    ctx = Context(cli, args.seed, args.seconds, work, workers, tracer, rss)
    if args.workload == "analyze-stream":
        res = run_analyze(ctx)
    else:
        res = run_grid(ctx, 1 if args.workload == "grid-serial" else workers)

    print(f"smdmeta benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} workers={workers}")
    if args.trace:
        metrics = finish_tracing(ctx, res["busy_s"], res["extra"])
        shown = {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
    else:
        setup_s = statistics.median(setup)
        metrics = {"setup_s": setup_s, "peak_rss_mb": rss.mb,
                   "norm_reps_per_s": res["shown"]["norm_reps_per_s"][0]}
        shown = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss.mb, "MB"),
                 **res["shown"]}
    print_metrics(shown)
    print(f"  outputs_sha256 {res['sha']}")
    for problem in res["problems"][:20]:
        print(f"check failed: {problem}")
    units = PER_LAYER if args.trace else END_TO_END
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
