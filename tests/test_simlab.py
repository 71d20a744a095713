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

from smdmeta import numkernel, simlab
from smdmeta import tau2 as t2
from smdmeta.numkernel import NonConvergenceError
from smdmeta.qstat import MetaBatch
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
    simulate_batch,
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


def one_replicate(cell, r):
    """Replicate r of cell, as a batch of one."""
    return simulate_batch(cell, r, r + 1)


def same(*batches):
    """Whether the batches hold the same arm sizes, g and v^2."""
    return all(b.arm_sizes == batches[0].arm_sizes
               and np.array_equal(b.g, batches[0].g)
               and np.array_equal(b.v2, batches[0].v2) for b in batches)


class TestSimulateMetaInput:
    def test_reproducible(self):
        cell = SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=9)
        a = one_replicate(cell, 3)
        b = one_replicate(cell, 3)
        assert same(a, b)

    def test_replicates_differ(self):
        cell = SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=9)
        assert not same(one_replicate(cell, 3), one_replicate(cell, 4))

    def test_seed_matters(self):
        a = one_replicate(SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=1), 0)
        b = one_replicate(SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=2), 0)
        assert not same(a, b)

    def test_number_spelling_does_not_enter_streams(self):
        a = one_replicate(SimCell(0, 1, 5, "equal", 20, 0.5), 3)
        b = one_replicate(SimCell(0.0, 1.0, 5, "equal", 20, 0.5), 3)
        c = one_replicate(
            SimCell(np.float64(0.0), 1.0, np.int64(5), "equal", 20.0, 0.5), 3)
        assert same(a, b, c)

    def test_chunking_does_not_enter_streams(self):
        a = one_replicate(
            SimCell(0.5, 1.0, 5, "equal", 20, 0.5, reps=100, chunks=1, seed=3), 7)
        b = one_replicate(
            SimCell(0.5, 1.0, 5, "equal", 20, 0.5, reps=1000, chunks=10, seed=3), 7)
        assert same(a, b)

    @pytest.mark.parametrize("cell", [
        SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=9),
        SimCell(1.0, 2.5, 10, "unequal", 30, 0.75, seed=9)])
    def test_batch_is_the_stack_of_its_replicates(self, cell):
        whole = simulate_batch(cell, 3, 9)
        rows = [one_replicate(cell, r) for r in range(3, 9)]
        assert whole.arm_sizes == study_sizes(cell) and len(whole) == 6
        assert np.concatenate([b.g for b in rows]).tobytes() \
            == whole.g.tobytes()
        assert np.concatenate([b.v2 for b in rows]).tobytes() \
            == whole.v2.tobytes()


def _fail(*args):
    raise NonConvergenceError("forced")


def _names(results, kind):
    return {name for k, name in results if k == kind}


class TestEstimateAll:
    def test_full_battery_present(self):
        data = one_replicate(
            SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=4), 0)
        (results, failures), = estimate_all(data)
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
        data = one_replicate(
            SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=4), 0)
        (results, failures), = estimate_all(data)
        assert failures == (("J-interval", "forced"),
                            ("KDB-interval", "forced"))
        assert {"J", "KDB"} <= _names(results, "tau2_est")
        assert _names(results, "tau2_cover") == {"QP", "BJ", "PL"}

    def test_failed_prerequisite_fails_its_dependents(self, monkeypatch):
        monkeypatch.setattr(t2, "expected_q_batch", _fail)
        data = one_replicate(
            SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=4), 0)
        (results, failures), = estimate_all(data)
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
        (results, _), = estimate_all(one_replicate(cell, 0))
        assert results["tau2_est", "REML"].status == "max_iter"
        assert results["tau2_cover", "PL"] == t2.ci_pl_batch(
            one_replicate(cell, 0), stopped(None, [None]), 0.95)[0]
        raw = run_cell_raw(cell)
        assert np.array_equal(raw.tau2_est["REML"], np.full(4, 0.7))
        assert not np.isnan(raw.tau2_cover["PL"]).any()
        assert "REML" not in raw.n_failed
        report = metrics(raw)
        assert report.value("REML", "tau2_bias") == pytest.approx(0.2)

    def test_two_runs_give_equal_results(self):
        # every result is a value: a second run on the same input compares
        # equal, result by result, and each result hashes
        data = one_replicate(SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=4),
                             0)
        (first, _), = estimate_all(data)
        (second, _), = estimate_all(data)
        assert first["delta_est", "IV-DL"] == second["delta_est", "IV-DL"]
        assert first == second
        assert {key: hash(r) for key, r in first.items()} \
            == {key: hash(r) for key, r in second.items()}

    def test_homogeneous_input_flags(self):
        data = MetaBatch.of([Study(10, 10, 0.4, 0.25) for _ in range(4)])
        (results, _), = estimate_all(data)
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
        data = one_replicate(
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

    def test_one_estimator_path(self):
        # every estimator is a *_batch row reached through estimate_all, and
        # a MetaBatch is the one input type: no parameter is annotated
        # MetaInput, and the single-input adapters, the scalar Q helpers,
        # MetaInput, its sampler and the batch's tuple of inputs are gone
        import smdmeta
        gone = {"tau2_dl", "tau2_mp", "restricted_loglik", "tau2_reml",
                "tau2_jackson", "corrected_expected_q", "tau2_kdb",
                "_q_profile_of", "ci_qp", "ci_kdb", "ci_bj", "ci_jackson",
                "ci_pl", "ssw_variance", "_one", "effect_iv", "effect_ssw",
                "ci_z", "ci_hksj", "ci_ssw_kdb", "WeightedFit", "_fit",
                "iv_weighted_mean", "q_statistic", "solve_q_equals",
                "MetaInput", "simulate_meta_input", "inputs"}
        takers, defined = [], []
        for path in sorted(Path(simlab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append(node.name)
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Store):
                    defined.append(node.id)
                if not isinstance(node, ast.FunctionDef):
                    continue
                a = node.args
                for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                            a.vararg, a.kwarg):
                    if arg is not None and arg.annotation is not None and any(
                            isinstance(n, ast.Name) and n.id == "MetaInput"
                            for n in ast.walk(arg.annotation)):
                        takers.append((path.name, node.name))
        assert takers == []
        assert gone.isdisjoint(defined)
        assert gone.isdisjoint(dir(smdmeta))


def use_in_process_helpers(monkeypatch, ranges):
    """Replace simlab's Process and Pipe with stand-ins: each helper records
    the replicate range (rep_lo, rep_hi) of its share in ranges and runs it
    in this process."""
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
            ranges.append(self.args[1][1:3])
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


def set_usable_cores(monkeypatch, cores):
    """Let this process run on `cores` CPUs; None stands for a platform with
    no affinity set whose host CPU count is unknown."""
    if cores is None:
        monkeypatch.delattr(simlab.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simlab.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(simlab.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so threads=2 starts exactly one real helper, and a
    60 s alarm, so a call that would hang fails instead."""
    def expired(signum, frame):
        raise TimeoutError("run_cell_raw did not return")

    set_usable_cores(monkeypatch, 2)
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

    def test_batch_size_invariance(self, monkeypatch):
        # a share of 30 replicates in 30 batches of one, in 5 batches of at
        # most 7 (the last of 2) and in one batch of 30: the same bits
        cell = SimCell(0.5, 1.0, 5, "unequal", 30, 0.75, reps=30, chunks=1,
                       seed=17)
        runs = []
        for size in (1, 7, 200):
            monkeypatch.setattr(simlab, "_BATCH_REPS", size)
            runs.append(run_cell_raw(cell))
        for run in runs[1:]:
            assert_same_bits(run, runs[0])

    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        # workers = min(threads, chunks, cores): the caller plus one helper
        # per worker after the first, each with one contiguous run of chunks
        ranges = []
        use_in_process_helpers(monkeypatch, ranges)
        set_usable_cores(monkeypatch, 8)
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=4, chunks=4,
                       seed=12)
        pooled = run_cell_raw(cell, threads=64)
        assert ranges == [(1, 2), (2, 3), (3, 4)]
        halved = run_cell_raw(cell, threads=2)
        assert ranges == [(1, 2), (2, 3), (3, 4), (2, 4)]
        serial = run_cell_raw(cell, threads=1)
        assert_same_bits(pooled, serial)
        assert_same_bits(halved, serial)

    @pytest.mark.parametrize("cores, sizes",
                             [(2, [(32, 64)]), (1, []), (None, [])])
    def test_pool_has_no_more_workers_than_cores(self, monkeypatch, cores,
                                                 sizes):
        # --threads 64 --chunks 64 on two cores: one helper with the second
        # half, not 63; one core (or an unknown count) runs the chunks in
        # this process
        made = []
        use_in_process_helpers(monkeypatch, made)
        set_usable_cores(monkeypatch, cores)
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=64, chunks=64,
                       seed=12)
        pooled = run_cell_raw(cell, threads=64)
        assert made == sizes  # each helper's replicate range
        serial = run_cell_raw(dataclasses.replace(cell, chunks=1))
        assert_same_bits(pooled, serial)

    def test_cores_are_the_usable_ones_not_the_hosts(self, monkeypatch):
        # taskset -c 0 on a two-CPU host: threads=2 starts no helper
        made = []
        use_in_process_helpers(monkeypatch, made)
        monkeypatch.setattr(simlab.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(simlab.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert simlab.usable_cores() == 1
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=4, chunks=2,
                       seed=12)
        run_cell_raw(cell, threads=2)
        assert made == []
        monkeypatch.delattr(simlab.os, "sched_getaffinity")
        assert simlab.usable_cores() == 2

    def test_uneven_split_over_a_real_helper(self, two_cores):
        # three chunks on two workers: the caller runs chunks 0 and 1
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

    @needs_fork
    def test_cell_runs_on_one_blas_thread(self, monkeypatch):
        # the helpers, forked while the caller is on one OpenBLAS thread,
        # inherit that count (and start no thread pool); the caller's count
        # is back afterwards
        functions = numkernel._blas_thread_count_functions()
        if functions is None or simlab.usable_cores() < 2:
            pytest.skip("no OpenBLAS thread-count functions, or one core")
        get, put = functions
        original = simlab.estimate_all

        def on_one_thread(batch, level):
            if get() != 1:
                raise AssertionError(f"estimate_all on {get()} threads")
            return original(batch, level)

        monkeypatch.setattr(simlab, "estimate_all", on_one_thread)
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=2, chunks=2,
                       seed=12)
        before = get()
        try:
            put(2)
            run_cell_raw(cell, threads=2)
            assert get() == 2
        finally:
            put(before)

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
