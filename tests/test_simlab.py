import collections
import math

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
        monkeypatch.setattr(t2, "ci_jackson", _fail)
        monkeypatch.setattr(t2, "ci_kdb", _fail)
        data = simulate_meta_input(
            SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=4), 0)
        results, failures = estimate_all(data)
        assert failures == (("J-interval", "forced"),
                            ("KDB-interval", "forced"))
        assert {"J", "KDB"} <= _names(results, "tau2_est")
        assert _names(results, "tau2_cover") == {"QP", "BJ", "PL"}

    def test_failed_prerequisite_fails_its_dependents(self, monkeypatch):
        monkeypatch.setattr(t2, "corrected_expected_q", _fail)
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
        def stopped(data):
            return t2.Tau2Result(0.7, "REML", "max_iter", 200)

        monkeypatch.setattr(t2, "tau2_reml", stopped)
        cell = SimCell(0.5, 0.5, 5, "equal", 20, 0.5, reps=4, chunks=2,
                       seed=4)
        results, _ = estimate_all(simulate_meta_input(cell, 0))
        assert results["tau2_est", "REML"].status == "max_iter"
        assert results["tau2_cover", "PL"] == t2.ci_pl(
            simulate_meta_input(cell, 0), stopped(None), 0.95)
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
        expected["tau2_dl"] += 1  # tau2_reml starts from the DL estimate
        assert calls == expected
        assert calls["effect_iv"] == 5 and calls["effect_ssw"] == 1

    def test_prerequisites_are_earlier_rows(self):
        keys = set()
        for _, kind, name, module, function, prereqs in simlab.ESTIMATORS:
            assert all(key in keys for key in prereqs), (kind, name)
            assert (kind, name) not in keys
            assert callable(getattr(module, function))
            keys.add((kind, name))

    def test_derived_name_orders(self):
        assert simlab.TAU2_POINT == ("DL", "MP", "REML", "J", "KDB")
        assert simlab.TAU2_CI == ("QP", "BJ", "J", "PL", "KDB")
        assert simlab.DELTA_POINT == ("IV-DL", "IV-MP", "IV-REML", "IV-J",
                                      "IV-KDB", "SSW")
        assert simlab.DELTA_CI == ("Z-DL", "Z-MP", "Z-REML", "Z-J", "Z-KDB",
                                   "HKSJ", "HKSJ-KDB", "SSW-KDB")


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
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(simlab, "ProcessPoolExecutor", SerialPool)
        cell = SimCell(0.0, 0.0, 5, "equal", 20, 0.5, reps=4, chunks=4,
                       seed=12)
        pooled = run_cell_raw(cell, threads=64)
        run_cell_raw(cell, threads=2)
        assert sizes == [4, 2]
        serial = run_cell_raw(cell, threads=1)
        for name in serial.delta_est:
            assert np.array_equal(pooled.delta_est[name],
                                  serial.delta_est[name], equal_nan=True)

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
