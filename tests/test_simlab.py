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

import oracles
from smdmeta import cli, simlab
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

    @pytest.mark.parametrize("fld, value", [
        ("size", 20.5), ("k", math.nan), ("k", "5"), ("reps", math.inf),
        ("seed", 1.5), ("q", "half"), ("q", "0.5"), ("delta", None),
        ("tau2", math.nan)])
    def test_non_number_names_its_field(self, fld, value):
        kwargs = dict(delta=0.0, tau2=0.0, k=5, pattern="equal", size=20,
                      q=0.5, reps=4)
        with pytest.raises(GridValidationError) as exc:
            SimCell(**{**kwargs, fld: value})
        assert exc.value.field == fld

    def test_numbers_are_stored_as_int_and_float(self):
        cell = SimCell(np.int64(0), 0, np.int64(5), "equal", 20.0, 0.5,
                       reps=4.0, seed=np.uint64(7))
        assert [type(getattr(cell, f)) for f in
                ("delta", "tau2", "k", "size", "q", "reps", "seed")
                ] == [float, float, int, int, float, int, int]

    def test_unequal_k_must_divide(self):
        with pytest.raises(GridValidationError):
            SimCell(0.0, 0.0, 6, "unequal", 30, 0.5, reps=6)

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
            SimCell(0.5, 1.0, 5, "equal", 20, 0.5, reps=100, seed=3), 7)
        b = one_replicate(
            SimCell(0.5, 1.0, 5, "equal", 20, 0.5, reps=1000, seed=3), 7)
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


# one cell per (K, pattern) stratum, as scripts/time_cells.py times them
STRATUM_CELLS = [
    SimCell(0.5, 1.0, 5, "equal", 20, 0.5),
    SimCell(0.2, 0.5, 5, "unequal", 60, 0.75),
    SimCell(1.0, 1.5, 10, "equal", 40, 0.75),
    SimCell(0.5, 2.0, 10, "unequal", 100, 0.5),
    SimCell(0.2, 0.5, 30, "equal", 100, 0.5),
    SimCell(1.0, 1.0, 30, "unequal", 30, 0.75)]


def same_bits(got, want):
    return (got.arm_sizes == want.arm_sizes
            and got.g.tobytes() == want.g.tobytes()
            and got.v2.tobytes() == want.v2.tobytes())


class TestSimulateBatchOracle:
    """The array path against one `sample_g` per study on a fresh
    generator per replicate, bit for bit."""

    @pytest.mark.parametrize("seed", [5, 2**63 + 11])
    @pytest.mark.parametrize("cell", STRATUM_CELLS,
                             ids=lambda c: f"{c.k}-{c.pattern}")
    def test_strata_match_per_study_draws(self, cell, seed):
        cell = dataclasses.replace(cell, reps=200, seed=seed)
        for lo, hi in ((0, 20), (0, 200), (180, 200)):
            assert same_bits(simulate_batch(cell, lo, hi),
                             oracles.simulate_batch(cell, lo, hi))

    def test_arm_product_past_2_53_matches(self):
        # arms of 2^27 + 3: their product is no float, so (n_t + n_c)/(n_t
        # n_c) on floats is not the int quotient that sample_g rounds once
        cell = SimCell(0.3, 0.7, 5, "equal", 2**28 + 6, 0.5, reps=20, seed=9)
        n_t, n_c = study_sizes(cell)[0]
        assert (n_t + n_c) / (float(n_t) * n_c) != (n_t + n_c) / (n_t * n_c)
        assert same_bits(simulate_batch(cell, 0, 20),
                         oracles.simulate_batch(cell, 0, 20))

    def test_seeds_past_2_63_share_keys(self):
        # the keys keep Philox's float64 rounding (numkernel.restart):
        # seeds 2^63 + 1 and 2^63 + 2 round alike against an id below 2^63,
        # so 9 of these 20 replicates draw the same g under both
        a, b = (simulate_batch(SimCell(0.5, 1.0, 5, "equal", 20, 0.5,
                                       reps=20, seed=seed), 0, 20)
                for seed in (2**63 + 1, 2**63 + 2))
        assert (a.g == b.g).all(1).tolist().count(True) == 9


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
        cell = SimCell(0.5, 0.5, 5, "equal", 20, 0.5, reps=4, seed=4)
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
def small_shares(monkeypatch):
    """Split cells of any size: one replicate per worker is enough."""
    monkeypatch.setattr(simlab, "_MIN_SHARE", 1)


@pytest.fixture
def two_cores(monkeypatch, small_shares):
    """Two usable cores and small shares, so threads=2 starts exactly one
    real helper, and a 60 s alarm, so a call that would hang fails
    instead."""
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
    """A _run_chunk that calls on_caller() in the caller's share and
    on_helper() in the helper's."""
    original = simlab._run_chunk

    def chunk(cell, rep_lo, rep_hi, level):
        (on_helper if rep_lo else on_caller)()
        return original(cell, rep_lo, rep_hi, level)

    return chunk


class TestRunCell:
    def test_thread_count_invariance(self, small_shares):
        base = dict(delta=0.0, tau2=0.0, k=5, pattern="equal", size=20, q=0.5,
                    reps=12, seed=12)
        a = run_cell_raw(SimCell(**base), threads=1)
        b = run_cell_raw(SimCell(**base), threads=3)
        for name in a.delta_est:
            assert np.array_equal(a.delta_est[name], b.delta_est[name],
                                  equal_nan=True)

    def test_batch_size_invariance(self, monkeypatch):
        # a share of 30 replicates in 30 batches of one, in 5 batches of at
        # most 7 (the last of 2) and in one batch of 30: the same bits
        cell = SimCell(0.5, 1.0, 5, "unequal", 30, 0.75, reps=30, seed=17)
        runs = []
        for size in (1, 7, 200):
            monkeypatch.setattr(simlab, "_BATCH_REPS", size)
            runs.append(run_cell_raw(cell))
        for run in runs[1:]:
            assert_same_bits(run, runs[0])

    def test_pool_has_no_more_workers_than_threads(self, monkeypatch,
                                                   small_shares):
        # on eight cores: the caller plus one helper per worker after the
        # first, worker h with replicates h reps // w .. (h + 1) reps // w
        ranges = []
        use_in_process_helpers(monkeypatch, ranges)
        set_usable_cores(monkeypatch, 8)
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=6, seed=12)
        pooled = run_cell_raw(cell, threads=4)
        assert ranges == [(1, 3), (3, 4), (4, 6)]
        halved = run_cell_raw(cell, threads=2)
        assert ranges == [(1, 3), (3, 4), (4, 6), (3, 6)]
        serial = run_cell_raw(cell, threads=1)
        assert_same_bits(pooled, serial)
        assert_same_bits(halved, serial)

    @pytest.mark.parametrize("cores, sizes",
                             [(2, [(32, 64)]), (1, []), (None, [])])
    def test_pool_has_no_more_workers_than_cores(self, monkeypatch, cores,
                                                 sizes, small_shares):
        # --threads 64 on two cores: one helper with the second half, not
        # 63; one core (or an unknown count) runs the cell in this process
        made = []
        use_in_process_helpers(monkeypatch, made)
        set_usable_cores(monkeypatch, cores)
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=64, seed=12)
        pooled = run_cell_raw(cell, threads=64)
        assert made == sizes  # each helper's replicate range
        serial = run_cell_raw(cell)
        assert_same_bits(pooled, serial)

    def test_cores_are_the_usable_ones_not_the_hosts(self, monkeypatch,
                                                     small_shares):
        # taskset -c 0 on a two-CPU host: threads=2 starts no helper
        made = []
        use_in_process_helpers(monkeypatch, made)
        monkeypatch.setattr(simlab.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(simlab.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert simlab.usable_cores() == 1
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=4, seed=12)
        run_cell_raw(cell, threads=2)
        assert made == []
        monkeypatch.delattr(simlab.os, "sched_getaffinity")
        assert simlab.usable_cores() == 2

    def test_uneven_split_over_a_real_helper(self, two_cores):
        # seven replicates on two workers: the caller runs 0..2, the
        # helper 3..6
        cell = SimCell(0.5, 1.0, 5, "unequal", 30, 0.75, reps=7, seed=21)
        assert_same_bits(run_cell_raw(cell, threads=2), run_cell_raw(cell))

    def test_odd_reps_split_50_51_as_one_worker(self, monkeypatch,
                                                two_cores):
        # the caller runs 0..49 and a real helper 50..100, with one
        # worker's bits
        shares = []
        task = simlab._chunk_task

        def recorded(args):
            shares.append(args[1:3])
            return task(args)

        monkeypatch.setattr(simlab, "_chunk_task", recorded)
        cell = SimCell(0.2, 0.5, 5, "equal", 20, 0.75, reps=101, seed=23)
        split = run_cell_raw(cell, threads=2)
        assert shares == [(0, 50)]
        assert_same_bits(split, run_cell_raw(cell))
        assert shares == [(0, 50), (0, 101)]

    @pytest.mark.parametrize("reps, ranges", [
        (20, []), (40, []), (60, []), (100, [(50, 100)]),
        (200, [(100, 200)])])
    def test_no_helper_for_less_than_a_share(self, monkeypatch, reps,
                                             ranges):
        # six cells at --threads 2 on two cores: a helper per
        # cell only once each worker has _MIN_SHARE replicates (the
        # benchmark's 20-replicate cells run whole in this process)
        made = []
        use_in_process_helpers(monkeypatch, made)
        set_usable_cores(monkeypatch, 2)
        simlab.run_grid([SimCell(0.5, tau2, 5, "equal", 20, 0.5, reps=reps,
                                 seed=12)
                         for tau2 in simlab.TAU2S], threads=2)
        assert made == ranges * len(simlab.TAU2S)

    def test_results_bytes_do_not_depend_on_threads(self, monkeypatch,
                                                    two_cores, tmp_path):
        set_usable_cores(monkeypatch, 3)
        written = set()
        for threads in (1, 2, 3):
            out = tmp_path / f"{threads}.csv"
            assert cli.main([
                "simulate", "--delta", "0.5", "--tau2", "0,1", "--k", "5",
                "--n", "20", "--nbar", "30", "--q", "0.5", "--reps", "200",
                "--seed", "12", "--threads", str(threads),
                "--out", str(out)]) == 0
            written.add(out.read_bytes())
        assert len(written) == 1

    @needs_fork
    def test_helper_exception_is_raised_in_the_caller(self, monkeypatch,
                                                      two_cores):
        def fail():
            raise NonConvergenceError("chunk 1 failed", error_bound=0.25)

        monkeypatch.setattr(simlab, "_run_chunk",
                            failing_chunk(lambda: None, fail))
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=2, seed=12)
        with pytest.raises(NonConvergenceError, match="chunk 1 failed") as err:
            run_cell_raw(cell, threads=2)
        assert err.value.error_bound == 0.25
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_helper_that_dies_without_sending_raises(self, monkeypatch,
                                                     two_cores):
        monkeypatch.setattr(simlab, "_run_chunk",
                            failing_chunk(lambda: None, lambda: os._exit(3)))
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=2, seed=12)
        with pytest.raises(RuntimeError, match="helper died"):
            run_cell_raw(cell, threads=2)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_failed_simulate_leaves_no_file(self, monkeypatch, two_cores,
                                            tmp_path):
        # a helper's exception ends a two-cell run with neither the results
        # file nor its temp file written
        def fail():
            raise NonConvergenceError("chunk 1 failed")

        monkeypatch.setattr(simlab, "_run_chunk",
                            failing_chunk(lambda: None, fail))
        with pytest.raises(NonConvergenceError, match="chunk 1 failed"):
            cli.main(["simulate", "--delta", "0", "--tau2", "0,0.5", "--k",
                      "5", "--n", "20", "--q", "0.5", "--reps", "2",
                      "--seed", "12", "--threads", "2",
                      "--out", str(tmp_path / "results.csv")])
        assert multiprocessing.active_children() == []
        assert os.listdir(tmp_path) == []

    @needs_fork
    def test_caller_exception_ends_the_helpers(self, monkeypatch, two_cores):
        # the helper would sleep for a minute; an interrupt in the caller's
        # chunk must end it rather than wait for it
        def interrupt():
            raise KeyboardInterrupt

        monkeypatch.setattr(simlab, "_run_chunk",
                            failing_chunk(interrupt, lambda: time.sleep(60)))
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=2, seed=12)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_cell_raw(cell, threads=2)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30

    def test_report_shape(self):
        report = run_cell(SimCell(0.5, 0.5, 5, "equal", 20, 0.5,
                                  reps=20, seed=13))
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
        cell = SimCell(1.0, 1.0, 5, "equal", 20, 0.5, reps=3)
        raw = self._raw(cell, np.array([1.0, 1.0, 1.0]), np.ones(3))
        report = metrics(raw)
        assert report.value("IV-DL", "delta_bias") == 0.0
        assert report.value("SSW", "delta_mse") == 0.0
        assert report.value("DL", "tau2_bias") == 0.0

    def test_always_covering_interval(self):
        cell = SimCell(0.0, 0.5, 5, "equal", 20, 0.5, reps=4)
        raw = self._raw(cell, np.zeros(4), np.ones(4))
        report = metrics(raw)
        assert report.value("QP", "tau2_coverage") == 1.0
        assert report.value("HKSJ", "delta_coverage") == 1.0

    def test_coverage_se_formula(self):
        cell = SimCell(0.0, 0.5, 5, "equal", 20, 0.5, reps=4)
        raw = self._raw(cell, np.zeros(4), np.array([1.0, 0.0, 1.0, 1.0]))
        report = metrics(raw)
        p = 0.75
        assert report.se("QP", "tau2_coverage") == pytest.approx(
            math.sqrt(p * (1 - p) / 4))

    def test_nan_exclusion_counts(self):
        cell = SimCell(0.0, 0.5, 5, "equal", 20, 0.5, reps=4)
        est = np.array([0.1, np.nan, 0.3, 0.2])
        raw = self._raw(cell, est, np.ones(4))
        raw.n_failed = {"BJ": 1}
        report = metrics(raw)
        assert report.value("BJ", "n_failed") == 1.0
        assert report.value("DL", "tau2_bias") == pytest.approx(
            np.nanmean(est) - 0.5)
