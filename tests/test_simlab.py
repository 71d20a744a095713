import ast
import collections
import dataclasses
import math
import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from smdmeta import simlab
from smdmeta import tau2 as t2
from smdmeta.numkernel import NonConvergenceError
from smdmeta.qstat import MetaInput
from smdmeta.simlab import (
    CellReport,
    GridConfig,
    GridValidationError,
    MetricRow,
    RawCellResult,
    SimCell,
    estimate_all,
    expand_grid,
    metrics,
    run_cell,
    run_cell_raw,
    simulate_meta_input,
    study_sizes,
    validate_cell,
)
from smdmeta.smd import Study


class TestExpandGrid:
    def test_full_grid_count(self):
        cells = expand_grid(GridConfig())
        assert len(cells) == 2160

    def test_singleton(self):
        config = GridConfig(deltas=(0.0,), tau2s=(0.5,), ks=(5,),
                            equal_sizes=(20,), unequal_sizes=(), qs=(0.5,))
        cells = expand_grid(config)
        assert len(cells) == 1
        assert cells[0] == SimCell(0.0, 0.5, 5, "equal", 20, 0.5)

    def test_tau2_progression(self):
        config = GridConfig(deltas=(0.0,), ks=(5,), equal_sizes=(20,),
                            unequal_sizes=(), qs=(0.5,))
        cells = expand_grid(config)
        assert [c.tau2 for c in cells] == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]

    def test_rejects_off_grid_without_allow_custom(self):
        config = GridConfig(deltas=(0.3,), tau2s=(0.0,), ks=(5,),
                            equal_sizes=(20,), unequal_sizes=(), qs=(0.5,))
        with pytest.raises(GridValidationError):
            expand_grid(config)
        assert len(expand_grid(config, allow_custom=True)) == 1

    def test_validation_names_field(self):
        try:
            validate_cell(SimCell(0.0, 0.0, 5, "equal", 21, 0.5))
        except GridValidationError as exc:
            assert "size" in exc.field
        else:
            raise AssertionError("expected GridValidationError")


class TestStudySizes:
    def test_ceiling_rule(self):
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.75)
        assert study_sizes(cell) == tuple([(5, 15)] * 5)

    def test_equal_split(self):
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5)
        assert study_sizes(cell) == tuple([(10, 10)] * 5)

    def test_unequal_repeats(self):
        cell = SimCell(0.0, 0.0, 10, "unequal", 30, 0.5)
        totals = [n_t + n_c for n_t, n_c in study_sizes(cell)]
        assert totals == [12, 16, 18, 20, 84, 12, 16, 18, 20, 84]

    def test_unequal_k_must_divide(self):
        with pytest.raises(GridValidationError):
            SimCell(0.0, 0.0, 6, "unequal", 30, 0.5, reps=6, chunks=1)

    def test_unequal_nbar_must_be_tabled(self):
        with pytest.raises(GridValidationError) as exc:
            SimCell(0.0, 0.0, 5, "unequal", 31, 0.5)
        assert "nbar" in exc.value.field

    def test_odd_total_with_q_half(self):
        cell = SimCell(0.0, 0.0, 5, "unequal", 30, 0.5)
        n_t, n_c = study_sizes(cell)[0]  # total 12
        assert (n_t, n_c) == (6, 6)


class TestSimulateMetaInput:
    def test_reproducible(self):
        cell = SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=9)
        a = simulate_meta_input(cell, 3)
        b = simulate_meta_input(cell, 3)
        assert a == b

    def test_replicates_differ(self):
        cell = SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=9)
        assert simulate_meta_input(cell, 3) != simulate_meta_input(cell, 4)

    def test_seed_matters(self):
        a = simulate_meta_input(SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=1), 0)
        b = simulate_meta_input(SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=2), 0)
        assert a != b

    def test_number_spelling_does_not_enter_streams(self):
        a = simulate_meta_input(SimCell(0, 1, 5, "equal", 20, 0.5), 3)
        b = simulate_meta_input(SimCell(0.0, 1.0, 5, "equal", 20, 0.5), 3)
        c = simulate_meta_input(
            SimCell(np.float64(0.0), 1.0, np.int64(5), "equal", 20.0, 0.5), 3)
        assert a == b == c

    def test_chunking_does_not_enter_streams(self):
        a = simulate_meta_input(
            SimCell(0.5, 1.0, 5, "equal", 20, 0.5, reps=100, chunks=1, seed=3), 7)
        b = simulate_meta_input(
            SimCell(0.5, 1.0, 5, "equal", 20, 0.5, reps=1000, chunks=10, seed=3), 7)
        assert a == b


def _fail(*args):
    raise NonConvergenceError("forced")


def _names(results, kind):
    return {name for k, name in results if k == kind}


class TestEstimateAll:
    def test_full_battery_present(self):
        data = simulate_meta_input(
            SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=4), 0)
        results, failures = estimate_all(data)
        assert _names(results, "tau2_est") == {"DL", "MP", "REML", "J", "KDB"}
        assert _names(results, "tau2_cover") == {"QP", "BJ", "J", "PL", "KDB"}
        assert _names(results, "delta_est") == {"IV-DL", "IV-MP", "IV-REML",
                                                "IV-J", "IV-KDB", "SSW"}
        assert _names(results, "delta_cover") == {
            "Z-DL", "Z-MP", "Z-REML", "Z-J", "Z-KDB", "HKSJ", "HKSJ-KDB",
            "SSW-KDB"}
        assert failures == ()

    def test_interval_failures_are_named_apart(self, monkeypatch):
        monkeypatch.setattr(t2, "ci_jackson_batch", _fail)
        monkeypatch.setattr(t2, "ci_kdb_batch", _fail)
        data = simulate_meta_input(
            SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=4), 0)
        results, failures = estimate_all(data)
        assert failures == (("J-interval", "forced"),
                            ("KDB-interval", "forced"))
        assert {"J", "KDB"} <= _names(results, "tau2_est")
        assert _names(results, "tau2_cover") == {"QP", "BJ", "PL"}

    def test_failed_prerequisite_fails_its_dependents(self, monkeypatch):
        monkeypatch.setattr(t2, "expected_q_batch", _fail)
        data = simulate_meta_input(
            SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=4), 0)
        results, failures = estimate_all(data)
        assert failures == (
            ("KDB", "forced"), ("KDB-interval", "prerequisite failed"),
            ("IV-KDB", "prerequisite failed"), ("SSW", "prerequisite failed"),
            ("Z-KDB", "prerequisite failed"),
            ("HKSJ-KDB", "prerequisite failed"),
            ("SSW-KDB", "prerequisite failed"))
        assert ("tau2_est", "KDB") not in results \
            and ("delta_cover", "HKSJ") in results

    def test_reml_stopped_at_max_iter_is_kept(self, monkeypatch):
        def stopped(batch, dls):
            return [t2.Tau2Result(0.7, "max_iter", 200)] * len(dls)

        monkeypatch.setattr(t2, "tau2_reml_batch", stopped)
        cell = SimCell(0.5, 0.5, 5, "equal", 20, 0.5, reps=4, chunks=2,
                       seed=4)
        results, _ = estimate_all(simulate_meta_input(cell, 0))
        assert results["tau2_est", "REML"].status == "max_iter"
        assert results["tau2_cover", "PL"] == t2.ci_pl(
            simulate_meta_input(cell, 0), stopped(None, [None])[0], 0.95)
        raw = run_cell_raw(cell)
        assert np.array_equal(raw.tau2_est["REML"], np.full(4, 0.7))
        assert not np.isnan(raw.tau2_cover["PL"]).any()
        assert "REML" not in raw.n_failed
        report = metrics(raw)
        assert report.value("REML", "tau2_bias") == pytest.approx(0.2)

    def test_homogeneous_input_flags(self):
        data = MetaInput(tuple(Study(10, 10, 0.4, 0.25) for _ in range(4)))
        results = estimate_all(data)[0]
        assert all(r.value == 0.0 for (kind, _), r in results.items()
                   if kind == "tau2_est")
        assert "degenerate" in results["delta_cover", "HKSJ"].flags

    def test_each_estimator_runs_once_per_row(self, monkeypatch):
        calls = collections.Counter()

        def counted(fn, name):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module, name in {(row[3], row[4]) for row in simlab.ESTIMATORS}:
            monkeypatch.setattr(module, name,
                                counted(getattr(module, name), name))
        data = simulate_meta_input(
            SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=4), 0)
        estimate_all(data)
        expected = collections.Counter(row[4] for row in simlab.ESTIMATORS)
        assert calls == expected
        assert calls["effect_iv_batch"] == 5 and calls["effect_ssw_batch"] == 1
        assert calls["tau2_reml_batch"] == calls["ci_pl_batch"] == 1

    def test_prerequisites_are_earlier_rows(self):
        keys = set()
        for _, kind, name, module, function, prereqs in simlab.ESTIMATORS:
            assert all(key in keys for key in prereqs), (kind, name)
            assert (kind, name) not in keys
            assert callable(getattr(module, function))
            assert function.endswith("_batch")
            keys.add((kind, name))

    def test_derived_name_orders(self):
        assert simlab.TAU2_POINT == ("DL", "MP", "REML", "J", "KDB")
        assert simlab.TAU2_CI == ("QP", "BJ", "J", "PL", "KDB")
        assert simlab.DELTA_POINT == ("IV-DL", "IV-MP", "IV-REML", "IV-J",
                                      "IV-KDB", "SSW")
        assert simlab.DELTA_CI == ("Z-DL", "Z-MP", "Z-REML", "Z-J", "Z-KDB",
                                   "HKSJ", "HKSJ-KDB", "SSW-KDB")

    def test_names_are_spelled_only_in_the_tables(self):
        # Results carry numbers; names come from ESTIMATORS (simlab.py, with
        # the MSE lists) and the plot styles (svgplot.py), and nowhere else.
        names = {row[i] for row in simlab.ESTIMATORS for i in (0, 2)}
        found = [(path.name, node.lineno, node.value)
                 for path in sorted(Path(simlab.__file__).parent.glob("*.py"))
                 if path.name not in ("simlab.py", "svgplot.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant) and node.value in names]
        assert found == []


def use_in_process_helpers(monkeypatch, sizes):
    """Replace simlab's Process and Pipe with stand-ins: each helper records
    how many chunks it was given in sizes and runs them in this process."""
    class Conn:
        def __init__(self, box):
            self.box = box

        def send(self, obj):
            self.box.append(obj)

        def recv(self):
            if not self.box:
                raise EOFError
            return self.box.pop()

        def close(self):
            pass

    class Helper:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            sizes.append(len(self.args[1]))
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    def pipe(duplex):
        box = []
        return Conn(box), Conn(box)

    monkeypatch.setattr(simlab, "Process", Helper)
    monkeypatch.setattr(simlab, "Pipe", pipe)


def assert_same_bits(a, b):
    assert a.n_failed == b.n_failed
    for fld in ("tau2_est", "tau2_trunc", "tau2_cover", "delta_est",
                "delta_cover"):
        da, db = getattr(a, fld), getattr(b, fld)
        assert da.keys() == db.keys()
        for name in da:
            assert da[name].tobytes() == db[name].tobytes(), (fld, name)


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so threads=2 starts exactly one real helper, and a
    60 s alarm, so a call that would hang fails instead."""
    def expired(signum, frame):
        raise TimeoutError("run_cell_raw did not return")

    monkeypatch.setattr(simlab.os, "cpu_count", lambda: 2)
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# A stand-in chunk function reaches a real helper only when it is forked.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="helpers do not inherit a monkeypatched chunk function")


def failing_chunk(on_caller, on_helper):
    """A _run_chunk that calls on_caller() in the caller's chunk 0 and
    on_helper() in the helper's chunk 1."""
    original = simlab._run_chunk

    def chunk(cell, rep_lo, rep_hi, level):
        (on_helper if rep_lo else on_caller)()
        return original(cell, rep_lo, rep_hi, level)

    return chunk


class TestRunCell:
    def test_chunk_count_invariance(self):
        base = dict(delta=0.5, tau2=0.5, k=5, pattern="equal", size=20, q=0.5,
                    reps=20, seed=11)
        a = run_cell_raw(SimCell(chunks=1, **base))
        b = run_cell_raw(SimCell(chunks=10, **base))
        for attr in ("tau2_est", "tau2_trunc", "tau2_cover", "delta_est",
                     "delta_cover"):
            da, db = getattr(a, attr), getattr(b, attr)
            for name in da:
                assert np.array_equal(da[name], db[name], equal_nan=True), \
                    (attr, name)

    def test_thread_count_invariance(self):
        base = dict(delta=0.0, tau2=0.0, k=5, pattern="equal", size=20, q=0.5,
                    reps=12, chunks=4, seed=12)
        a = run_cell_raw(SimCell(**base), threads=1)
        b = run_cell_raw(SimCell(**base), threads=3)
        for name in a.delta_est:
            assert np.array_equal(a.delta_est[name], b.delta_est[name],
                                  equal_nan=True)

    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        # workers = min(threads, chunks, cores): the caller plus one helper
        # per worker after the first, each helper with every workers-th chunk
        sizes = []
        use_in_process_helpers(monkeypatch, sizes)
        monkeypatch.setattr(simlab.os, "cpu_count", lambda: 8)
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=4, chunks=4,
                       seed=12)
        pooled = run_cell_raw(cell, threads=64)
        assert sizes == [1, 1, 1]
        halved = run_cell_raw(cell, threads=2)
        assert sizes == [1, 1, 1, 2]
        serial = run_cell_raw(cell, threads=1)
        assert_same_bits(pooled, serial)
        assert_same_bits(halved, serial)

    @pytest.mark.parametrize("cores, sizes", [(2, [32]), (1, []), (None, [])])
    def test_pool_has_no_more_workers_than_cores(self, monkeypatch, cores,
                                                 sizes):
        # --threads 64 --chunks 64 on two cores: one helper, not 63; one
        # core (or an unknown count) runs the chunks in this process
        made = []
        use_in_process_helpers(monkeypatch, made)
        monkeypatch.setattr(simlab.os, "cpu_count", lambda: cores)
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=64, chunks=64,
                       seed=12)
        pooled = run_cell_raw(cell, threads=64)
        assert made == sizes
        serial = run_cell_raw(dataclasses.replace(cell, chunks=1))
        assert_same_bits(pooled, serial)

    def test_uneven_split_over_a_real_helper(self, two_cores):
        # three chunks on two workers: the caller runs chunks 0 and 2
        cell = SimCell(0.5, 1.0, 5, "unequal", 30, 0.75, reps=6, chunks=3,
                       seed=21)
        assert_same_bits(run_cell_raw(cell, threads=2),
                         run_cell_raw(dataclasses.replace(cell, chunks=1)))

    @needs_fork
    def test_helper_exception_is_raised_in_the_caller(self, monkeypatch,
                                                      two_cores):
        def fail():
            raise NonConvergenceError("chunk 1 failed", error_bound=0.25)

        monkeypatch.setattr(simlab, "_run_chunk",
                            failing_chunk(lambda: None, fail))
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=2, chunks=2,
                       seed=12)
        with pytest.raises(NonConvergenceError, match="chunk 1 failed") as err:
            run_cell_raw(cell, threads=2)
        assert err.value.error_bound == 0.25
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_helper_that_dies_without_sending_raises(self, monkeypatch,
                                                     two_cores):
        monkeypatch.setattr(simlab, "_run_chunk",
                            failing_chunk(lambda: None, lambda: os._exit(3)))
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=2, chunks=2,
                       seed=12)
        with pytest.raises(RuntimeError, match="helper died"):
            run_cell_raw(cell, threads=2)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_caller_exception_ends_the_helpers(self, monkeypatch, two_cores):
        # the helper would sleep for a minute; an interrupt in the caller's
        # chunk must end it rather than wait for it
        def interrupt():
            raise KeyboardInterrupt

        monkeypatch.setattr(simlab, "_run_chunk",
                            failing_chunk(interrupt, lambda: time.sleep(60)))
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=2, chunks=2,
                       seed=12)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_cell_raw(cell, threads=2)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30

    def test_report_shape(self):
        report = run_cell(SimCell(0.5, 0.5, 5, "equal", 20, 0.5,
                                  reps=20, chunks=2, seed=13))
        assert isinstance(report, CellReport)
        assert 0.0 <= report.value("QP", "tau2_coverage") <= 1.0
        assert report.value("DL", "tau2_trunc_rate") >= 0.0
        assert math.isfinite(report.value("SSW", "delta_bias"))
        assert math.isfinite(report.value("SSW/IV-MP", "delta_mse_ratio"))


class TestMetrics:
    def _raw(self, cell, est, cover):
        names_p = ("DL", "MP", "REML", "J", "KDB")
        names_ci = ("QP", "BJ", "J", "PL", "KDB")
        names_dp = ("IV-DL", "IV-MP", "IV-REML", "IV-J", "IV-KDB", "SSW")
        names_dci = ("Z-DL", "Z-MP", "Z-REML", "Z-J", "Z-KDB", "HKSJ",
                     "HKSJ-KDB", "SSW-KDB")
        return RawCellResult(
            cell=cell,
            tau2_est={m: est.copy() for m in names_p},
            tau2_trunc={m: np.zeros_like(est) for m in names_p},
            tau2_cover={m: cover.copy() for m in names_ci},
            delta_est={m: est.copy() for m in names_dp},
            delta_cover={m: cover.copy() for m in names_dci},
            n_failed={},
        )

    def test_zero_bias_zero_mse(self):
        cell = SimCell(1.0, 1.0, 5, "equal", 20, 0.5, reps=3, chunks=1)
        raw = self._raw(cell, np.array([1.0, 1.0, 1.0]), np.ones(3))
        report = metrics(raw)
        assert report.value("IV-DL", "delta_bias") == 0.0
        assert report.value("SSW", "delta_mse") == 0.0
        assert report.value("DL", "tau2_bias") == 0.0

    def test_always_covering_interval(self):
        cell = SimCell(0.0, 0.5, 5, "equal", 20, 0.5, reps=4, chunks=1)
        raw = self._raw(cell, np.zeros(4), np.ones(4))
        report = metrics(raw)
        assert report.value("QP", "tau2_coverage") == 1.0
        assert report.value("HKSJ", "delta_coverage") == 1.0

    def test_coverage_se_formula(self):
        cell = SimCell(0.0, 0.5, 5, "equal", 20, 0.5, reps=4, chunks=1)
        raw = self._raw(cell, np.zeros(4), np.array([1.0, 0.0, 1.0, 1.0]))
        report = metrics(raw)
        p = 0.75
        assert report.se("QP", "tau2_coverage") == pytest.approx(
            math.sqrt(p * (1 - p) / 4))

    def test_nan_exclusion_counts(self):
        cell = SimCell(0.0, 0.5, 5, "equal", 20, 0.5, reps=4, chunks=1)
        est = np.array([0.1, np.nan, 0.3, 0.2])
        raw = self._raw(cell, est, np.ones(4))
        raw.n_failed = {"BJ": 1}
        report = metrics(raw)
        assert report.value("BJ", "n_failed") == 1.0
        assert report.value("DL", "tau2_bias") == pytest.approx(
            np.nanmean(est) - 0.5)
