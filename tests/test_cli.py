import ctypes
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from smdmeta import cli, numkernel, simlab
from smdmeta import tau2 as t2
from smdmeta.cli import RESULTS_HEADER, main

TOY_PRECOMP = """study_id,n_t,n_c,g,var_g
s1,10,10,0,1
s2,10,10,2,1
"""

TOY_RAW = """study_id,n_t,n_c,mean_t,sd_t,mean_c,sd_c
s1,10,10,1.0,1.0,0.0,1.0
s2,10,10,2.5,1.3,1.1,0.9
"""

FLAT = """study_id,n_t,n_c,g,var_g
s1,10,10,0.4,0.5
s2,10,10,0.4,0.5
s3,10,10,0.4,0.5
"""


def write(path, text):
    path.write_text(text)
    return str(path)


class TestAnalyze:
    def test_hand_values_in_text_output(self, tmp_path, capsys):
        path = write(tmp_path / "toy.csv", TOY_PRECOMP)
        code = main(["analyze", "--input", path])
        out = capsys.readouterr().out
        assert code == 0
        # DL and MP both solve to tau2 = 1 for this input
        dl_line = next(l for l in out.splitlines() if l.strip().startswith("DL"))
        assert "1" in dl_line.split()[1]
        assert "interior" in dl_line

    def test_json_format(self, tmp_path, capsys):
        path = write(tmp_path / "toy.csv", TOY_PRECOMP)
        code = main(["analyze", "--input", path, "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau2"]["DL"]["estimate"] == pytest.approx(1.0)
        assert payload["tau2"]["MP"]["estimate"] == pytest.approx(1.0, rel=1e-6)
        assert payload["delta"]["IV-DL"]["estimate"] == pytest.approx(1.0)
        assert payload["delta_intervals"]["HKSJ"]["half_width"] == \
            pytest.approx(12.7062, abs=1e-3)

    def test_raw_and_precomputed_agree(self, tmp_path, capsys):
        raw_path = write(tmp_path / "raw.csv", TOY_RAW)
        main(["analyze", "--input", raw_path, "--format", "json"])
        from_raw = json.loads(capsys.readouterr().out)
        # re-express the same studies as precomputed g, var_g
        import csv as _csv
        import io
        from smdmeta.smd import ArmSummary, hedges_g
        rows = list(_csv.DictReader(io.StringIO(TOY_RAW)))
        buf = ["study_id,n_t,n_c,g,var_g"]
        for r in rows:
            s = hedges_g(ArmSummary(int(r["n_t"]), float(r["mean_t"]),
                                    float(r["sd_t"])),
                         ArmSummary(int(r["n_c"]), float(r["mean_c"]),
                                    float(r["sd_c"])))
            buf.append(f"{r['study_id']},{s.n_t},{s.n_c},{s.g!r},{s.v2!r}")
        pre_path = write(tmp_path / "pre.csv", "\n".join(buf) + "\n")
        main(["analyze", "--input", pre_path, "--format", "json"])
        from_pre = json.loads(capsys.readouterr().out)
        assert from_raw == from_pre

    def test_both_forms_mismatch_is_invariant_violation(self, tmp_path, capsys):
        text = ("study_id,n_t,n_c,mean_t,sd_t,mean_c,sd_c,g,var_g\n"
                "s1,10,10,1.0,1.0,0.0,1.0,0.5,0.2\n"
                "s2,10,10,0.0,1.0,0.0,1.0,0.0,0.2\n")
        path = write(tmp_path / "bad.csv", text)
        assert main(["analyze", "--input", path]) == 3

    def test_malformed_csv_reports_row_and_column(self, tmp_path, capsys):
        text = "study_id,n_t,n_c,g,var_g\ns1,10,10,zzz,1\ns2,10,10,0,1\n"
        path = write(tmp_path / "bad.csv", text)
        assert main(["analyze", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "'g'" in err

    @pytest.mark.parametrize("cells", ["nan,1", "0.5,inf"])
    def test_non_finite_precomputed_is_invariant_violation(self, tmp_path,
                                                           capsys, cells):
        text = f"study_id,n_t,n_c,g,var_g\ns1,10,10,0,1\ns2,10,10,{cells}\n"
        path = write(tmp_path / "bad.csv", text)
        assert main(["analyze", "--input", path, "--format", "json"]) == 3
        assert "row 3" in capsys.readouterr().err

    def test_non_finite_precomputed_beside_arm_summaries(self, tmp_path):
        text = ("study_id,n_t,n_c,mean_t,sd_t,mean_c,sd_c,g,var_g\n"
                "s1,10,10,1.0,1.0,0.0,1.0,nan,nan\n"
                "s2,10,10,0.0,1.0,0.0,1.0,nan,nan\n")
        path = write(tmp_path / "bad.csv", text)
        assert main(["analyze", "--input", path]) == 3

    def test_non_finite_arm_summary_is_invariant_violation(self, tmp_path,
                                                           capsys):
        text = ("study_id,n_t,n_c,mean_t,sd_t,mean_c,sd_c\n"
                "s1,10,10,1.0,inf,0.0,1.0\ns2,10,10,0.0,1.0,0.0,1.0\n")
        path = write(tmp_path / "bad.csv", text)
        assert main(["analyze", "--input", path]) == 3
        assert "row 2" in capsys.readouterr().err

    def test_successive_calls_parse_their_own_flags(self, tmp_path, capsys):
        path = write(tmp_path / "toy.csv", TOY_PRECOMP)
        assert main(["analyze", "--input", path, "--format", "json",
                     "--level", "0.9", "--tau2-methods", "DL"]) == 0
        first = json.loads(capsys.readouterr().out)
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", *SIM_FLAGS, "--reps", "4", "--out", out]) == 0
        capsys.readouterr()
        assert main(["analyze", "--input", path, "--format", "json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["level"] == 0.9 and list(first["tau2"]) == ["DL"]
        assert second["level"] == 0.95 and len(second["tau2"]) == 5

    def test_small_arm_is_invariant_violation(self, tmp_path):
        text = "study_id,n_t,n_c,g,var_g\ns1,1,10,0,1\ns2,10,10,0,1\n"
        path = write(tmp_path / "bad.csv", text)
        assert main(["analyze", "--input", path]) == 3

    @pytest.mark.parametrize("header, row", [
        ("g,var_g", "0.3,0.2"), ("mean_t,sd_t,mean_c,sd_c", "1,1,0,1")])
    def test_arm_size_past_exact_floats_is_invariant_violation(
            self, tmp_path, capsys, header, row):
        # 10^20 ended in a TypeError traceback from the corrected E[Q]
        text = (f"study_id,n_t,n_c,{header}\ns1,10,10,{row}\n"
                f"s2,{10 ** 20},10,{row}\n")
        path = write(tmp_path / "big.csv", text)
        assert main(["analyze", "--input", path]) == 3
        assert "row 3: arm sizes must be in [2, 2^53]" in capsys.readouterr().err
        text = text.replace(str(10 ** 20), str(2 ** 53))
        path = write(tmp_path / "edge.csv", text)
        assert main(["analyze", "--input", path]) in (0, 4)

    def test_row_with_more_fields_than_header_is_input_error(
            self, tmp_path, capsys):
        # a thousands comma used to be read as g = 1, var_g = 234, exit 0
        text = ("study_id,n_t,n_c,g,var_g\ns1,10,10,0.5,0.3\n"
                "s2,10,10,1,234,0.2\ns3,12,10,0.1,0.25\n")
        path = write(tmp_path / "extra.csv", text)
        assert main(["analyze", "--input", path]) == 2
        assert "row 3: more fields than the header" in capsys.readouterr().err

    def test_single_study_rejected(self, tmp_path):
        text = "study_id,n_t,n_c,g,var_g\ns1,10,10,0,1\n"
        path = write(tmp_path / "one.csv", text)
        assert main(["analyze", "--input", path]) == 3

    def test_missing_columns(self, tmp_path):
        path = write(tmp_path / "cols.csv", "study_id,n_t,n_c\ns1,10,10\n")
        assert main(["analyze", "--input", path]) == 2

    def test_homogeneous_input_flags_degenerate(self, tmp_path, capsys):
        path = write(tmp_path / "flat.csv", FLAT)
        code = main(["analyze", "--input", path, "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(v["estimate"] == 0.0 for v in payload["tau2"].values())
        assert "degenerate" in payload["delta_intervals"]["HKSJ"]["flags"]

    def test_bad_level(self, tmp_path):
        path = write(tmp_path / "toy.csv", TOY_PRECOMP)
        assert main(["analyze", "--input", path, "--level", "0.4"]) == 2

    @pytest.mark.parametrize("col", ["n_t", "n_c"])
    @pytest.mark.parametrize("val", ["inf", "nan", "1e400"])
    def test_non_finite_size_is_input_error(self, tmp_path, capsys, col, val):
        sizes = {"n_t": "10", "n_c": "10", col: val}
        text = ("study_id,n_t,n_c,g,var_g\ns1,10,10,0,1\n"
                f"s2,{sizes['n_t']},{sizes['n_c']},0,1\n")
        path = write(tmp_path / "bad.csv", text)
        assert main(["analyze", "--input", path]) == 2
        assert f"row 3: column '{col}' must be an integer" in \
            capsys.readouterr().err

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("study_id,n_t,n_c,g,var_g\nm\xfcller,10,10,0,1\n"
                         "s2,10,10,2,1\n".encode("latin-1"))
        assert main(["analyze", "--input", str(path)]) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_golden_json_bytes(self, tmp_path, capsys):
        path = write(tmp_path / "golden.csv", GOLDEN_ANALYSIS)
        assert main(["analyze", "--input", path, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            GOLDEN_ANALYSIS_SHA256

    def test_golden_text_bytes(self, tmp_path, capsys):
        path = write(tmp_path / "golden.csv", GOLDEN_ANALYSIS)
        assert main(["analyze", "--input", path]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            GOLDEN_ANALYSIS_TEXT_SHA256

    def test_byte_order_mark_is_read_past(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" files start with a UTF-8 byte-order mark
        plain = write(tmp_path / "golden.csv", GOLDEN_ANALYSIS)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + GOLDEN_ANALYSIS.encode())
        outs = []
        for path in (plain, str(marked)):
            assert main(["analyze", "--input", path]) == 0
            outs.append(capsys.readouterr().out.encode())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("rows", [
        [("1e200", "1"), ("-1e200", "1"), ("0", "1")],  # Q(0) overflows
        [("1e154", "1"), ("-1e154", "1")],
        [("1e300", "1"), ("-1e300", "1")],
        [("1e100", "1"), ("-1e100", "1"), ("0", "1")],  # REML's sum w^2 = 0
        [("0.3", "1e300"), ("1.2", "1e300")],
    ])
    def test_extreme_finite_input_exits_with_message(self, tmp_path, capsys,
                                                     rows):
        text = "study_id,n_t,n_c,g,var_g\n" + "".join(
            f"s{i},10,10,{g},{v}\n" for i, (g, v) in enumerate(rows))
        path = write(tmp_path / "extreme.csv", text)
        code = main(["analyze", "--input", path])
        err = capsys.readouterr().err
        assert code in (3, 4)
        assert ("error: " if code == 3 else "did not converge") in err

    def test_subnormal_variance_fails_rows_without_warnings(self, tmp_path,
                                                             capsys):
        # 1/v^2 overflows: DL, J, QP, BJ and the J interval fail their rows
        # (exit 4), and no numpy RuntimeWarning reaches the user
        path = write(tmp_path / "tiny.csv", "study_id,n_t,n_c,g,var_g\n"
                     "s1,10,10,0.1,5e-324\ns2,10,10,0.5,0.2\n"
                     "s3,10,10,0.9,0.3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--input", path]) == 4
        assert "did not converge" in capsys.readouterr().err

    def test_battery_runs_on_one_blas_thread(self, tmp_path, capsys):
        # numpy's OpenBLAS threads eigvalsh from K = 65 on, with other bits
        # in the BJ and J intervals than one thread gives
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is None or put is None:
            pytest.skip("numpy's OpenBLAS exports no thread-count functions")
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        rng = np.random.default_rng(150)
        v2 = rng.uniform(0.02, 0.5, 150)
        g = 0.3 + rng.standard_normal(150) * np.sqrt(v2 + 0.1)
        path = write(tmp_path / "k150.csv", "study_id,n_t,n_c,g,var_g\n"
                     + "".join(f"s{i},20,20,{a!r},{b!r}\n" for i, (a, b)
                               in enumerate(zip(g.tolist(), v2.tolist()))))
        before = get()
        try:
            put(2)
            assert main(["analyze", "--input", path, "--format", "json"]) == 0
            assert get() == 2
            put(1)
            data = cli.read_analysis_csv(path)
            (results, failures), = simlab.estimate_all(data)
        finally:
            put(before)
        payload = cli._analysis_payload(results, failures, 0.95,
                                        cli.TAU2_METHODS, simlab.DELTA_CI)
        assert capsys.readouterr().out == \
            json.dumps(payload, indent=2, allow_nan=True) + "\n"

    def test_oversized_field_is_input_error(self, tmp_path, capsys):
        text = TOY_PRECOMP + "s3" + "x" * 140_000 + ",10,10,0,1\n"
        path = write(tmp_path / "big.csv", text)
        assert main(["analyze", "--input", path]) == 2
        assert "cannot read input" in capsys.readouterr().err


SIM_FLAGS = ["--delta", "0", "--tau2", "0", "--k", "5", "--n", "20",
             "--q", "0.5", "--reps", "40", "--seed", "7"]


# SHA-256 of the CSV from GOLDEN_FLAGS; any change to a simulated number or
# to the CSV format changes it.
GOLDEN_FLAGS = ["--delta", "0.5", "--tau2", "0,1.5", "--k", "5", "--n", "20",
                "--q", "0.5", "--reps", "20", "--chunks", "2", "--seed", "1"]
GOLDEN_SHA256 = \
    "47032589e80062c437b572f257f67cc56bccc9d78a74c52dba012b83b5f30004"

# SHA-256 of `analyze --format json` stdout on GOLDEN_ANALYSIS: K = 12 with
# distinct arm sizes, the last with m >= 1000 (the large-m series branch of
# the corrected E[Q]); any change to an estimate or the JSON changes it.
GOLDEN_ANALYSIS = """study_id,n_t,n_c,g,var_g
s1,8,9,0.91,0.260467
s2,10,12,-0.12,0.183661
s3,14,11,0.48,0.166946
s4,20,18,1.35,0.129536
s5,25,30,0.27,0.0739961
s6,33,40,0.66,0.0582866
s7,47,41,-0.31,0.0462129
s8,60,55,0.83,0.0378437
s9,75,90,0.15,0.0245126
s10,120,100,0.52,0.0189479
s11,150,180,0.38,0.012441
s12,600,700,0.44,0.0031697
"""
GOLDEN_ANALYSIS_SHA256 = \
    "c7976277d276a6472373034aadee49f1a2ff83eb6d4c2b515cc4a07ebbb76f10"
# SHA-256 of the default text stdout on GOLDEN_ANALYSIS, which prints every
# output name of the estimator table beside its numbers
GOLDEN_ANALYSIS_TEXT_SHA256 = \
    "43a47d748ca488bf77991bc134fe6af97e2ac8cd37332e739ad6a56747e71257"


class TestSimulate:
    def test_golden_bytes(self, tmp_path, capsys):
        path = tmp_path / "golden.csv"
        assert main(["simulate", *GOLDEN_FLAGS, "--out", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256

    @pytest.mark.parametrize("flag, value", [
        ("--k", "inf"), ("--tau2", "-1"), ("--q", "nan"), ("--q", "0"),
        ("--q", "1.5"), ("--k", "1"), ("--n", "3"), ("--n", "4"),
        ("--delta", "nan"), ("--delta", "0,nan"), ("--tau2", "inf"),
        ("--seed", "-3"), ("--seed", str(2**64))])
    def test_bad_grid_value_is_input_error(self, tmp_path, monkeypatch,
                                           flag, value):
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(simlab, "run_grid", no_run)
        args = ["simulate", *SIM_FLAGS, "--allow-custom", flag, value,
                "--out", str(tmp_path / "r.csv")]
        assert main(args) == 2

    @pytest.mark.parametrize("extra", [
        ["--allow-custom", "--tau2", "-1"],
        ["--allow-custom", "--k", "6", "--nbar", "30"],
        ["--reps", "0"],
        ["--allow-custom", "--q", "nan"], ["--allow-custom", "--k", "1"],
        ["--allow-custom", "--n", "4"], ["--allow-custom", "--delta", "nan"],
        ["--allow-custom", "--tau2", "inf"], ["--seed", "-3"],
        ["--allow-custom", "--nbar", "30", "--q", "0.95"]])
    def test_unliftable_value_has_no_allow_custom_hint(self, tmp_path,
                                                       capsys, extra):
        args = ["simulate", *SIM_FLAGS, *extra,
                "--out", str(tmp_path / "r.csv")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "unsupported value" in err and "allow_custom" not in err

    def test_arm_size_past_exact_floats_is_input_error(self, tmp_path,
                                                       capsys):
        # 10^20 ended in a casting error from the corrected E[Q]
        args = ["simulate", *SIM_FLAGS, "--allow-custom", "--n",
                str(10 ** 20), "--out", str(tmp_path / "r.csv")]
        assert main(args) == 2
        assert "unsupported value for arm sizes" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_input_error(self, tmp_path, capsys,
                                              monkeypatch, threads):
        # they used to run the grid serially, without a word
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran with --threads < 1")

        monkeypatch.setattr(simlab, "run_grid", no_run)
        args = ["simulate", *SIM_FLAGS, "--threads", threads,
                "--out", str(tmp_path / "r.csv")]
        assert main(args) == 2
        assert f"--threads must be >= 1, got {threads}" \
            in capsys.readouterr().err

    def test_off_grid_value_has_allow_custom_hint(self, tmp_path, capsys):
        args = ["simulate", *SIM_FLAGS, "--delta", "0.3",
                "--out", str(tmp_path / "r.csv")]
        assert main(args) == 2
        assert "(pass allow_custom to override)" in capsys.readouterr().err

    def test_missing_out_directory_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "nowhere" / "r.csv"
        assert main(["simulate", *SIM_FLAGS, "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_naming_a_directory_is_input_error(self, tmp_path, capsys,
                                                   monkeypatch):
        # it used to run every cell and only then fail at the rename
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran before --out was checked")

        monkeypatch.setattr(simlab, "run_grid", no_run)
        assert main(["simulate", *SIM_FLAGS, "--out", str(tmp_path)]) == 2
        assert f"--out: {tmp_path} is a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_reps_need_no_divisor(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["simulate", *SIM_FLAGS, "--reps", "25",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[1].endswith(",25,7")

    def test_chunks_flag_is_parsed_and_ignored(self, tmp_path, capsys):
        # the benchmark's argv still passes --chunks
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["simulate", *SIM_FLAGS, "--reps", "20"]
        assert main([*flags, "--chunks", "3", "--out", str(a)]) == 0
        assert main([*flags, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_deterministic_bytes(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", *SIM_FLAGS, "--out", p1]) == 0
        assert main(["simulate", *SIM_FLAGS, "--out", p2]) == 0
        capsys.readouterr()
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_schema(self, tmp_path, capsys):
        path = str(tmp_path / "r.csv")
        main(["simulate", *SIM_FLAGS, "--out", path])
        capsys.readouterr()
        header = open(path).readline().strip()
        assert header == ",".join(RESULTS_HEADER)

    def test_cell_count_in_output(self, tmp_path, capsys):
        path = str(tmp_path / "r.csv")
        code = main(["simulate", "--delta", "0,0.2", "--tau2", "0,0.5",
                     "--k", "5", "--n", "20", "--q", "0.5,0.75",
                     "--reps", "4", "--seed", "1", "--out", path])
        capsys.readouterr()
        assert code == 0
        import csv as _csv
        rows = list(_csv.DictReader(open(path)))
        cells = {(r["delta"], r["tau2"], r["q"]) for r in rows}
        assert len(cells) == 8

    def test_off_grid_rejected_without_allow_custom(self, tmp_path, capsys):
        path = str(tmp_path / "r.csv")
        args = ["simulate", "--delta", "0.3", "--tau2", "0", "--k", "5",
                "--n", "20", "--q", "0.5", "--reps", "4", "--seed", "1",
                "--out", path]
        assert main(args) == 2
        capsys.readouterr()
        assert main([*args, "--allow-custom"]) == 0

    def test_requires_some_size_flag(self, tmp_path):
        assert main(["simulate", "--delta", "0", "--tau2", "0", "--k", "5",
                     "--q", "0.5", "--out", str(tmp_path / "x.csv")]) == 2

    def test_no_partial_file_on_error(self, tmp_path):
        out = tmp_path / "sub" / "r.csv"
        code = main(["simulate", "--delta", "bogus", "--tau2", "0", "--k", "5",
                     "--n", "20", "--q", "0.5", "--out", str(out)])
        assert code == 2
        assert not out.exists()


def run_fresh(code, *args):
    """`python -c code *args` in a fresh interpreter that imports this
    smdmeta, as a user's shell would start it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# The studies of a J-interval CDF whose coefficient spread (3.4e8) sends
# Ruben's series to its cap and Imhof's quadrature to a failure.
IMHOF_FAILS = """study_id,n_t,n_c,g,var_g
s1,2,600,-1.9e44,1.72e113
s2,600,2,0.221,1.72e113
s3,3000,2,6.05e100,1.95e130
s4,3000,600,-5.48e135,1.72e113
"""

LAZY_SCIPY = ("scipy.integrate", "scipy.optimize")


class TestStartUp:
    def test_battery_imports_no_integrate_or_optimize(self, tmp_path):
        # one analyze and one simulate load only the scipy they call
        code = """if True:
            import contextlib, io, json, sys
            from smdmeta import cli
            analysis, sim = json.loads(sys.argv[1]), json.loads(sys.argv[2])
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(analysis) == 0
                assert cli.main(sim) == 0
            print(json.dumps(sorted(sys.modules)))
            """
        path = write(tmp_path / "golden.csv", GOLDEN_ANALYSIS)
        analysis = ["analyze", "--input", path, "--format", "json"]
        sim = ["simulate", *SIM_FLAGS, "--reps", "4",
               "--out", str(tmp_path / "sim.csv")]
        run = run_fresh(code, json.dumps(analysis), json.dumps(sim))
        assert run.returncode == 0, run.stderr
        loaded = set(json.loads(run.stdout))
        assert "smdmeta.tau2" in loaded and "scipy.special" in loaded
        assert loaded.isdisjoint(LAZY_SCIPY)

    def test_lazy_names_are_scipys_own(self):
        from scipy.integrate import quad
        from scipy.optimize import brentq
        assert t2.quad is quad and numkernel.quad is quad
        assert t2.brentq is brentq
        for mod in (t2, numkernel):
            assert not hasattr(mod, "no_such_name")
            with pytest.raises(AttributeError, match="no_such_name"):
                getattr(mod, "no_such_name")
        assert not hasattr(numkernel, "brentq")

    def test_first_imhof_call_imports_quad(self):
        # Ruben's series gives up on this spread (1e6), so Imhof runs
        code = """if True:
            import sys
            import numpy as np
            from smdmeta import numkernel
            assert "scipy.integrate" not in sys.modules
            lam = np.geomspace(1.0, 1e6, 30)
            p = numkernel.mixture_cdf(lam.sum(), lam)
            assert "scipy.integrate" in sys.modules
            print(repr(p))
            """
        run = run_fresh(code)
        assert run.returncode == 0, run.stderr
        lam = np.geomspace(1.0, 1e6, 30)
        p = numkernel.mixture_cdf(lam.sum(), lam)
        assert float(run.stdout) == p
        assert p == pytest.approx(0.61052, abs=1e-5)

    def test_failed_imhof_quadrature_prints_no_warning(self, tmp_path):
        path = write(tmp_path / "imhof.csv", IMHOF_FAILS)
        run = run_fresh("import sys\nfrom smdmeta import cli\n"
                        "sys.exit(cli.main(sys.argv[1:]))",
                        "analyze", "--input", path)
        assert run.returncode == 4
        assert "could not certify" in run.stdout
        assert "did not converge" in run.stderr
        assert "Warning" not in run.stderr


@pytest.fixture(scope="module")
def results_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plotdata")
    path = str(tmp / "results.csv")
    code = main(["simulate", "--delta", "0", "--tau2", "0,0.5",
                 "--k", "5,10,30", "--n", "20,40,100,250", "--q", "0.5",
                 "--reps", "4", "--seed", "3", "--out", path])
    assert code == 0
    return path


def with_values(path, tmp_path, metric, values):
    """A copy of the results file at path whose first rows of metric hold
    values, in order."""
    lines = Path(path).read_text().splitlines()
    at = RESULTS_HEADER.index("value")
    rows = [i for i, line in enumerate(lines)
            if line.split(",")[RESULTS_HEADER.index("metric")] == metric]
    for i, value in zip(rows, values):
        fields = lines[i].split(",")
        fields[at] = value
        lines[i] = ",".join(fields)
    return write(tmp_path / "edited.csv", "\n".join(lines) + "\n")


class TestPlot:
    def test_reads_a_results_file_with_a_byte_order_mark(self, tmp_path,
                                                         results_csv, capsys):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(results_csv).read_bytes())
        assert main(["plot", "--results", str(marked), "--metric", "tau2_bias",
                     "--out-dir", str(tmp_path / "f")]) == 0
        capsys.readouterr()

    def test_cell_number_spelling_does_not_reach_the_file(self, tmp_path,
                                                          results_csv, capsys):
        # the fixture's grid, with sizes as floats and K as numpy integers
        config = simlab.GridConfig(
            deltas=(0,), tau2s=(0, 0.5), ks=tuple(np.array([5, 10, 30])),
            equal_sizes=(20.0, 40.0, 100.0, 250.0), unequal_sizes=(),
            qs=(0.5,), reps=4, seed=3)
        path = tmp_path / "spelled.csv"
        cli.write_results_csv(str(path),
                              simlab.run_grid(simlab.expand_grid(config)))
        assert path.read_bytes() == Path(results_csv).read_bytes()
        assert main(["plot", "--results", str(path), "--metric", "tau2_bias",
                     "--out-dir", str(tmp_path / "f")]) == 0
        capsys.readouterr()

    def test_round_trip_produces_svg(self, tmp_path, results_csv, capsys):
        out_dir = str(tmp_path / "figs")
        code = main(["plot", "--results", results_csv,
                     "--metric", "tau2_coverage", "--out-dir", out_dir])
        capsys.readouterr()
        assert code == 0
        files = os.listdir(out_dir)
        assert len(files) == 1 and files[0].endswith(".svg")
        svg = open(os.path.join(out_dir, files[0])).read()
        assert "<svg" in svg and "polyline" in svg
        # nominal-level reference line present for coverage plots
        assert 'stroke-dasharray="3,3"' in svg

    def test_bias_plot(self, tmp_path, results_csv, capsys):
        out_dir = str(tmp_path / "figs2")
        code = main(["plot", "--results", results_csv,
                     "--metric", "tau2_bias", "--out-dir", out_dir])
        capsys.readouterr()
        assert code == 0

    def test_missing_cells_listed(self, tmp_path, results_csv, capsys):
        out_dir = str(tmp_path / "figs3")
        code = main(["plot", "--results", results_csv,
                     "--metric", "tau2_coverage", "--out-dir", out_dir,
                     "--delta", "0", "--q", "0.5", "--family", "equal-small"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("K=") == 12  # all 12 panels missing

    def test_unknown_metric(self, tmp_path, results_csv):
        assert main(["plot", "--results", results_csv, "--metric", "nope",
                     "--out-dir", str(tmp_path / "f")]) == 2

    def test_out_dir_below_a_file_is_input_error(self, tmp_path, results_csv,
                                                 capsys):
        blocker = write(tmp_path / "file", "")
        assert main(["plot", "--results", results_csv,
                     "--metric", "tau2_bias",
                     "--out-dir", os.path.join(blocker, "figs")]) == 2
        assert "--out-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--delta", "--q"])
    def test_non_numeric_figure_flag_is_usage_error(self, tmp_path,
                                                    results_csv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--results", results_csv, "--metric", "tau2_bias",
                  "--out-dir", str(tmp_path / "f"), flag, "abc"])
        assert exc.value.code == 2

    def test_figure_with_no_finite_value_is_input_error(self, tmp_path,
                                                        capsys):
        # one replicate per cell: every MSE ratio of the figure is NaN
        path = str(tmp_path / "one.csv")
        assert main(["simulate", "--delta", "0", "--tau2", "0", "--k",
                     "5,10,30", "--n", "20,40,100,250", "--q", "0.5",
                     "--reps", "1", "--out", path]) == 0
        capsys.readouterr()
        assert main(["plot", "--results", path, "--metric", "delta_mse_ratio",
                     "--out-dir", str(tmp_path / "f")]) == 2
        assert "figure delta_mse_ratio_delta0_q0.5_equal-main.svg: " \
            "no finite value to plot" in capsys.readouterr().err

    def test_infinite_value_is_skipped(self, tmp_path, results_csv, capsys):
        edited = with_values(results_csv, tmp_path, "tau2_bias", ["inf"])
        out_dir = tmp_path / "f"
        assert main(["plot", "--results", edited, "--metric", "tau2_bias",
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        svg, = [path.read_text() for path in out_dir.iterdir()]
        assert "inf" not in svg and "nan" not in svg and "polyline" in svg

    def test_values_past_the_float_range_are_input_error(
            self, tmp_path, results_csv, capsys):
        edited = with_values(results_csv, tmp_path, "tau2_bias",
                             ["1e308", "-1e308"])
        assert main(["plot", "--results", edited, "--metric", "tau2_bias",
                     "--out-dir", str(tmp_path / "f")]) == 2
        assert "figure tau2_bias_delta0_q0.5_equal-main.svg: values span " \
            "more than the float range" in capsys.readouterr().err

    def test_non_numeric_results_value_is_input_error(self, tmp_path,
                                                      results_csv, capsys):
        lines = open(results_csv).read().splitlines()
        lines[1] = "abc" + lines[1][lines[1].index(","):]
        bad = write(tmp_path / "bad.csv", "\n".join(lines) + "\n")
        assert main(["plot", "--results", bad, "--metric", "tau2_bias",
                     "--out-dir", str(tmp_path / "f")]) == 2
        assert "results row 2" in capsys.readouterr().err
