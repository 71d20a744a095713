"""Command-line surface: analyze real data, run simulations, render plots.

Exit codes: 0 ok, 2 input error, 3 data invariant violation, 4 numerical
non-convergence summary.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import tempfile

from . import simlab, svgplot
from .numkernel import DomainError
from .qstat import MetaBatch
from .smd import ArmSummary, Study, hedges_g

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_NONCONVERGENCE = 4

RESULTS_HEADER = ("delta", "tau2", "k", "pattern", "n_bar", "q",
                  "estimator", "metric", "value", "mc_se", "reps", "seed")

RAW_COLUMNS = ("mean_t", "sd_t", "mean_c", "sd_c")
PRECOMP_COLUMNS = ("g", "var_g")

FAMILIES = {
    "equal-main": ("equal", simlab.EQUAL_SIZES[:4]),
    "equal-small": ("equal", simlab.EQUAL_SIZES[4:]),
    "unequal": ("unequal", tuple(simlab.UNEQUAL_SIZES)),
}

TAU2_METHODS = tuple(dict.fromkeys(simlab.TAU2_POINT + simlab.TAU2_CI))

METRIC_ESTIMATORS = {
    "tau2_bias": list(simlab.TAU2_POINT),
    "tau2_trunc_rate": list(simlab.TAU2_POINT),
    "tau2_coverage": list(simlab.TAU2_CI),
    "delta_bias": list(simlab.DELTA_POINT),
    "delta_coverage": list(simlab.DELTA_CI),
    "delta_mse_ratio": [label for label, _, _ in simlab.MSE_RATIOS],
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _check_level(level: float) -> None:
    if not 0.5 < level < 1.0:
        raise CliError(f"--level must be in (0.5, 1), got {level}", EXIT_INPUT)


def _fmt(x: float) -> str:
    return "%.9g" % x


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cell_float(row: dict, col: str, line_no: int) -> float:
    raw = (row.get(col) or "").strip()
    if raw == "":
        raise CliError(f"row {line_no}: missing value in column '{col}'",
                       EXIT_INPUT)
    try:
        return float(raw)
    except ValueError:
        raise CliError(f"row {line_no}: column '{col}' is not a number: "
                       f"{raw!r}", EXIT_INPUT)


def _cell_int(row: dict, col: str, line_no: int) -> int:
    val = _cell_float(row, col, line_no)
    if not val.is_integer():
        raise CliError(f"row {line_no}: column '{col}' must be an integer, "
                       f"got {val}", EXIT_INPUT)
    return int(val)


def _read_csv(path: str, what: str) -> tuple[list[str], list[dict]]:
    """Column names and rows of a UTF-8 CSV file (a byte-order mark is
    skipped); one that cannot be opened, decoded or parsed, or a row with
    more fields than the header, is an input error."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            columns = reader.fieldnames or []
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CliError(f"cannot read {what}: {exc}", EXIT_INPUT)
    for line_no, row in enumerate(rows, start=2):
        if None in row:  # DictReader's key for the fields past the header
            raise CliError(f"row {line_no}: more fields than the header",
                           EXIT_INPUT)
    return columns, rows


def read_analysis_csv(path: str) -> MetaBatch:
    """Parse the analyze input schema.

    Columns: study_id, n_t, n_c, then arm summaries (mean_t, sd_t, mean_c,
    sd_c) and/or precomputed (g, var_g).  When both are present the raw
    summaries win and a mismatch beyond 1e-6 is an invariant violation.
    """
    cols, rows = _read_csv(path, "input")
    for col in ("study_id", "n_t", "n_c"):
        if col not in cols:
            raise CliError(f"missing required column '{col}'", EXIT_INPUT)
    has_raw = all(c in cols for c in RAW_COLUMNS)
    has_pre = all(c in cols for c in PRECOMP_COLUMNS)
    if not has_raw and not has_pre:
        raise CliError(
            "need either arm-summary columns "
            f"{RAW_COLUMNS} or precomputed columns {PRECOMP_COLUMNS}",
            EXIT_INPUT)
    studies = []
    for line_no, row in enumerate(rows, start=2):
        n_t = _cell_int(row, "n_t", line_no)
        n_c = _cell_int(row, "n_c", line_no)
        try:
            if has_raw:
                study = hedges_g(
                    ArmSummary(n_t, _cell_float(row, "mean_t", line_no),
                               _cell_float(row, "sd_t", line_no)),
                    ArmSummary(n_c, _cell_float(row, "mean_c", line_no),
                               _cell_float(row, "sd_c", line_no)))
                if has_pre:
                    g = _cell_float(row, "g", line_no)
                    var_g = _cell_float(row, "var_g", line_no)
                    if not (abs(study.g - g) <= 1e-6
                            and abs(study.v2 - var_g) <= 1e-6):
                        raise CliError(
                            f"row {line_no}: precomputed (g, var_g) "
                            f"disagree with arm summaries by more than "
                            f"1e-6", EXIT_INVARIANT)
            else:
                study = Study(n_t, n_c,
                              _cell_float(row, "g", line_no),
                              _cell_float(row, "var_g", line_no))
        except DomainError as exc:
            raise CliError(f"row {line_no}: {exc}", EXIT_INVARIANT)
        studies.append(study)
    if len(studies) < 2:
        raise CliError(f"need at least 2 studies, got {len(studies)}",
                       EXIT_INVARIANT)
    return MetaBatch.of(studies)


def _analysis_payload(results: dict, failures, level: float,
                      tau2_methods, delta_methods) -> dict:
    def found(kind, names):
        return [(n, results[kind, n]) for n in names if (kind, n) in results]

    return {
        "level": level,
        "tau2": {n: {"estimate": r.value, "status": r.status,
                     "iterations": r.iterations}
                 for n, r in found("tau2_est", tau2_methods)},
        "tau2_intervals": {n: {"lo": ci.lo, "hi": ci.hi,
                               "flags": list(ci.flags)}
                           for n, ci in found("tau2_cover", tau2_methods)},
        "delta": {n: {"estimate": r.value, "variance": r.variance}
                  for n, r in found("delta_est", simlab.DELTA_POINT)},
        "delta_intervals": {n: {"center": ci.center,
                                "half_width": ci.half_width, "lo": ci.lo,
                                "hi": ci.hi, "flags": list(ci.flags)}
                            for n, ci in found("delta_cover", delta_methods)},
        "failures": [{"estimator": n, "message": m} for n, m in failures]}


def _print_analysis_text(payload: dict) -> None:
    w = sys.stdout.write
    w(f"confidence level: {payload['level']:g}\n\n")
    w("tau^2 point estimates\n")
    for name, r in payload["tau2"].items():
        w(f"  {name:<6} {_fmt(r['estimate']):>12}  {r['status']}"
          f" ({r['iterations']} iter)\n")
    w("\ntau^2 intervals\n")
    for name, ci in payload["tau2_intervals"].items():
        flags = f"  [{', '.join(ci['flags'])}]" if ci["flags"] else ""
        w(f"  {name:<6} [{_fmt(ci['lo'])}, {_fmt(ci['hi'])}]{flags}\n")
    w("\noverall effect\n")
    for name, r in payload["delta"].items():
        w(f"  {name:<8} {_fmt(r['estimate']):>12}  var {_fmt(r['variance'])}\n")
    w("\ndelta intervals\n")
    for name, ci in payload["delta_intervals"].items():
        flags = f"  [{', '.join(ci['flags'])}]" if ci["flags"] else ""
        w(f"  {name:<9} {_fmt(ci['center']):>12} +/- {_fmt(ci['half_width'])}"
          f"  -> [{_fmt(ci['lo'])}, {_fmt(ci['hi'])}]{flags}\n")
    if payload["failures"]:
        w("\nnon-convergent estimators\n")
        for f in payload["failures"]:
            w(f"  {f['estimator']}: {f['message']}\n")


def cmd_analyze(args) -> int:
    _check_level(args.level)
    tau2_methods = tuple(args.tau2_methods.split(",")) if args.tau2_methods \
        else TAU2_METHODS
    delta_methods = tuple(args.delta_methods.split(",")) if args.delta_methods \
        else simlab.DELTA_CI
    for name in tau2_methods:
        if name not in TAU2_METHODS:
            raise CliError(f"unknown tau^2 method '{name}'", EXIT_INPUT)
    for name in delta_methods:
        if name not in simlab.DELTA_CI:
            raise CliError(f"unknown delta interval method '{name}'",
                           EXIT_INPUT)
    data = read_analysis_csv(args.input)
    (results, failures), = simlab.estimate_all(data, args.level)
    payload = _analysis_payload(results, failures, args.level, tau2_methods,
                                delta_methods)
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, allow_nan=True) + "\n")
    else:
        _print_analysis_text(payload)
    if failures:
        print(f"{len(failures)} estimator(s) did not converge",
              file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"{flag}: expected comma-separated numbers, got "
                       f"{text!r}", EXIT_INPUT)


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    vals = _float_list(text, flag)
    if not all(v.is_integer() for v in vals):
        raise CliError(f"{flag}: expected integers, got {text!r}", EXIT_INPUT)
    return tuple(int(v) for v in vals)


def write_results_csv(path: str, reports: list[simlab.CellReport]) -> None:
    """Write the long-format results CSV atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(RESULTS_HEADER) + "\n")
            for report in reports:
                c = report.cell
                head = (f"{_fmt(c.delta)},{_fmt(c.tau2)},{c.k},{c.pattern},"
                        f"{c.size},{_fmt(c.q)},")
                for r in report.rows:
                    fh.write(f"{head}{r.estimator},{r.metric},{_fmt(r.value)},"
                             f"{_fmt(r.mc_se)},{c.reps},{c.seed}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_simulate(args) -> int:
    if args.n is None and args.nbar is None:
        raise CliError("need --n (equal sizes) and/or --nbar (unequal sizes)",
                       EXIT_INPUT)
    _check_level(args.level)
    if args.threads < 1:
        raise CliError(f"--threads must be >= 1, got {args.threads}",
                       EXIT_INPUT)
    config = simlab.GridConfig(
        deltas=_float_list(args.delta, "--delta"),
        tau2s=_float_list(args.tau2, "--tau2"),
        ks=_int_list(args.k, "--k"),
        equal_sizes=_int_list(args.n, "--n") if args.n else (),
        unequal_sizes=_int_list(args.nbar, "--nbar") if args.nbar else (),
        qs=_float_list(args.q, "--q"),
        reps=args.reps, seed=args.seed)
    try:
        cells = simlab.expand_grid(config, allow_custom=args.allow_custom)
    except simlab.GridValidationError as exc:
        raise CliError(str(exc), EXIT_INPUT)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        raise CliError(f"--out: no such directory {out_dir}", EXIT_INPUT)
    if os.path.isdir(args.out):
        raise CliError(f"--out: {args.out} is a directory", EXIT_INPUT)
    reports = simlab.run_grid(cells, level=args.level, threads=args.threads)
    try:
        write_results_csv(args.out, reports)
    except OSError as exc:
        raise CliError(f"cannot write results: {exc}", EXIT_INPUT)
    print(f"wrote {sum(len(r.rows) for r in reports)} rows "
          f"for {len(cells)} cell(s) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _read_results(path: str) -> list[dict]:
    columns, rows = _read_csv(path, "results")
    if tuple(columns) != RESULTS_HEADER:
        raise CliError(
            f"results header mismatch: expected {','.join(RESULTS_HEADER)}",
            EXIT_INPUT)
    return rows


def cmd_plot(args) -> int:
    rows = _read_results(args.results)
    metric = args.metric
    if metric not in METRIC_ESTIMATORS:
        raise CliError(f"unknown metric '{metric}'; choose from "
                       f"{sorted(METRIC_ESTIMATORS)}", EXIT_INPUT)
    estimators = METRIC_ESTIMATORS[metric]
    data: dict = {}
    for line_no, r in enumerate(rows, start=2):
        if r["metric"] != metric:
            continue
        try:
            key = (float(r["delta"]), float(r["q"]), r["pattern"],
                   int(r["n_bar"]), int(r["k"]), r["estimator"])
            point = (float(r["tau2"]), float(r["value"]))
            if not math.isfinite(point[0]):
                raise ValueError(f"tau2 is {r['tau2']}")
        except (TypeError, ValueError) as exc:
            raise CliError(f"results row {line_no}: {exc}", EXIT_INPUT)
        data.setdefault(key, []).append(point)

    if args.delta is not None and args.q is not None and args.family:
        combos = [(args.delta, args.q, args.family)]
    else:
        combos = sorted({
            (d, q, fam)
            for (d, q, pattern, size, _k, _e) in data
            for fam, (fpattern, fsizes) in FAMILIES.items()
            if pattern == fpattern and size in fsizes})
        if args.delta is not None:
            combos = [c for c in combos if c[0] == args.delta]
        if args.q is not None:
            combos = [c for c in combos if c[1] == args.q]
        if args.family:
            combos = [c for c in combos if c[2] == args.family]
    if not combos:
        raise CliError("no matching figures in the results file", EXIT_INPUT)

    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create --out-dir: {exc}", EXIT_INPUT)
    written = []
    for delta, q, family in combos:
        pattern, sizes = FAMILIES[family]
        ks = list(simlab.KS)
        series = {}
        missing = []
        for size in sizes:
            for k in ks:
                panel_ok = False
                for name in estimators:
                    pts = data.get((delta, q, pattern, size, k, name))
                    if pts:
                        series[(size, k, name)] = sorted(pts)
                        panel_ok = True
                if not panel_ok:
                    missing.append(f"(n={size}, K={k})")
        if missing:
            raise CliError(
                f"missing cells for metric={metric}, delta={delta:g}, "
                f"q={q:g}, family={family}: {', '.join(missing)}", EXIT_INPUT)
        reference = None
        if metric.endswith("coverage"):
            reference = args.level
        elif metric.endswith("bias"):
            reference = 0.0
        elif metric == "delta_mse_ratio":
            reference = 1.0
        title = (f"{metric}  |  delta={delta:g}, q={q:g}, {family} sizes")
        name = f"{metric}_delta{delta:g}_q{q:g}_{family}.svg"
        try:
            svg = svgplot.figure_svg(title, list(sizes), ks, series,
                                     estimators, reference)
        except ValueError as exc:
            raise CliError(f"figure {name}: {exc}", EXIT_INPUT)
        path = os.path.join(args.out_dir, name)
        with open(path, "w") as fh:
            fh.write(svg)
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="smdmeta",
        description="Random-effects meta-analysis of the standardized mean "
                    "difference, and its simulation lab.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="estimate tau^2 and the overall "
                                       "effect from a study-level CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--tau2-methods", default="",
                   help="comma list from " + ",".join(TAU2_METHODS))
    p.add_argument("--delta-methods", default="",
                   help="comma list from " + ",".join(simlab.DELTA_CI))
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run simulation cells and write a "
                                        "long-format results CSV")
    p.add_argument("--delta", required=True, help="comma list")
    p.add_argument("--tau2", required=True, help="comma list")
    p.add_argument("--k", required=True, help="comma list")
    p.add_argument("--q", required=True, help="comma list")
    p.add_argument("--n", default=None, help="equal study sizes, comma list")
    p.add_argument("--nbar", default=None,
                   help="unequal mean sizes, comma list")
    p.add_argument("--reps", type=int, default=2000)
    # ignored: bench/inputs.py passes --chunks 4 (2 at warm-up) to every run
    p.add_argument("--chunks", help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-custom", action="store_true",
                   help="accept grid values outside the built-in table")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot", help="render 4x3 panel SVG figures from a "
                                    "results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--family", default=None, choices=sorted(FAMILIES))
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
