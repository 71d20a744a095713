import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from batch_of_one import q_at, row
from oracles import q_statistic
from smdmeta import effect, qstat, tau2
from smdmeta.numkernel import (
    DomainError,
    NonConvergenceError,
    _unwrap,
    chisq_quantile,
)
from smdmeta.qstat import (
    _MAX_BISECT,
    _REL_TOL,
    BRACKET_CAP,
    BracketCapExceeded,
    MetaBatch,
    Tau2Result,
    solve_q_roots,
)
from smdmeta.simlab import SimCell, simulate_batch
from smdmeta.smd import Study


def meta(gs, v2s, n=20):
    n_t = n // 2
    return MetaBatch.of([Study(n_t, n - n_t, g, v) for g, v in zip(gs, v2s)])


def iv_fit(data, tau2):
    """The inverse-variance effect row on one input at tau2."""
    status = "interior" if tau2 else "truncated_at_zero"
    return row(effect.effect_iv_batch, data, [Tau2Result(tau2, status)])


def solve(data, target):
    """`solve_q_roots` on one input and target; raises the failure."""
    return _unwrap(solve_q_roots(data.g, data.v2, [target])[0])


def expected_q(data):
    """The corrected E[Q] row on one input, or its failure."""
    return tau2.corrected_expected_q_batch(data)[0]


class TestMetaInput:
    def test_needs_two_studies(self):
        with pytest.raises(DomainError):
            MetaBatch.of((Study(10, 10, 0.0, 1.0),))

    @pytest.mark.parametrize("arm_sizes, g, v2", [
        (((10, 10), (8, 9)), [[0.0, math.nan]], [[1.0, 1.0]]),
        (((10, 10), (8, 9)), [[0.0, math.inf]], [[1.0, 1.0]]),
        (((10, 10), (8, 9)), [[0.0, 1.0]], [[1.0, 0.0]]),
        (((10, 10), (8, 9)), [[0.0, 1.0]], [[-1.0, 1.0]]),
        (((10, 10), (8, 9)), [[0.0, 1.0]], [[1.0, math.inf]]),
        (((10, 10), (8, 9)), [[0.0, 1.0]], [[1.0, math.nan]]),
        (((10, 10),), [[0.0]], [[1.0]]),  # K = 1
        (((10, 10), (1, 9)), [[0.0, 1.0]], [[1.0, 1.0]]),  # an arm of 1
        (((10, 10), (8, 9)), [[0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]),
        (((10, 10), (8, 9)), [[0.0, 1.0, 2.0]], [[1.0, 1.0, 1.0]]),
        (((10, 10), (8, 9)), [0.0, 1.0], [1.0, 1.0]),  # not (R, K)
        (((10, 10), (8, 9)), np.zeros((0, 2)), np.ones((0, 2))),  # R = 0
        (((10, 10), (8, 9)), 0.0, 1.0),  # scalars
    ], ids=["nan-g", "inf-g", "zero-v2", "negative-v2", "inf-v2", "nan-v2",
            "k-1", "arm-of-1", "rows-differ", "k-differs", "not-2d", "r-0",
            "scalar"])
    def test_batch_refuses_what_a_study_refuses(self, arm_sizes, g, v2):
        with pytest.raises(DomainError):
            MetaBatch(arm_sizes, np.array(g), np.array(v2))

    def test_batch_of_one_and_its_rows(self):
        data = MetaBatch(((10, 10), (6, 14)), np.array([[0.1, 0.2], [0.3, 0.4],
                                                        [0.5, 0.6]]),
                         np.full((3, 2), 0.25))
        assert len(data) == 3 and data.k == 2
        assert np.array_equal(data.eff_n, [5.0, 4.2])
        sub = data.rows([2, 0])
        assert np.array_equal(sub.g, [[0.5, 0.6], [0.1, 0.2]])
        assert sub.arm_sizes == data.arm_sizes and len(sub) == 2
        one = MetaBatch.of([Study(10, 10, 0.1, 0.25), Study(6, 14, 0.2, 0.25)])
        assert np.array_equal(one.g, data.rows([0]).g)
        assert np.array_equal(one.v2, data.rows([0]).v2)

    def test_cached_arrays(self):
        data = meta([0.0, 1.0], [1.0, 3.0])
        assert np.allclose(data.g, [[0.0, 1.0]])
        assert np.allclose(data.v2, [[1.0, 3.0]])
        assert data.k == 2


class TestWeightedMean:
    def test_equal_weights(self):
        data = meta([-1.0, 0.0, 4.0], [2.0, 2.0, 2.0])
        fit = iv_fit(data, 0.0)
        assert fit.value == pytest.approx(1.0)

    def test_large_tau2_equalizes(self):
        data = meta([0.0, 1.0, 5.0], [0.1, 2.0, 7.0])
        fit = iv_fit(data, 1e9)
        assert fit.value == pytest.approx(2.0, rel=1e-6)

    def test_hand_case(self):
        data = meta([0.0, 1.0], [1.0, 3.0])
        fit = iv_fit(data, 1.0)
        weights = qstat._row_fits(data.g, data.v2, np.array([1.0]))[0]
        assert np.allclose(weights, [[0.5, 0.25]])
        assert fit.value == pytest.approx(1 / 3, rel=1e-14)

    def test_negative_tau2_rejected(self):
        with pytest.raises(DomainError):
            iv_fit(meta([0.0, 1.0], [1.0, 1.0]), -0.5)


class TestQStatistic:
    def test_zero_when_homogeneous(self):
        data = meta([0.7, 0.7, 0.7], [1.0, 2.0, 0.5])
        for tau2 in (0.0, 1.0, 10.0):
            assert q_at(data, tau2) == pytest.approx(0.0, abs=1e-14)

    def test_unit_weights(self):
        data = meta([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        assert q_at(data, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_equal_weight_scaling(self):
        data = meta([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        assert q_at(data, 3.0) == pytest.approx(2.0, rel=1e-14)

    def test_location_invariance(self):
        rng = np.random.default_rng(5)
        gs = rng.standard_normal(6)
        v2s = rng.uniform(0.2, 3.0, 6)
        a = meta(list(gs), list(v2s))
        b = meta(list(gs + 11.25), list(v2s))
        for tau2 in (0.0, 0.7, 5.0):
            assert q_at(a, tau2) == pytest.approx(
                q_at(b, tau2), rel=1e-11, abs=1e-11)

    def test_vanishes_at_infinity(self):
        data = meta([-2.0, 1.0, 4.0], [1.0, 0.5, 2.0])
        assert q_at(data, 1e9) < 1e-7


class TestSolveQEquals:
    def test_hand_case(self):
        data = meta([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        root = solve(data, 2.0)
        assert root.status == "interior"
        assert root.value == pytest.approx(3.0, rel=1e-7)

    def test_two_study_case(self):
        data = meta([0.0, 2.0], [1.0, 1.0])
        root = solve(data, 1.0)
        assert root.value == pytest.approx(1.0, rel=1e-7)

    def test_truncation(self):
        data = meta([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        root = solve(data, 2.0)  # Q(0) == target
        assert root.status == "truncated_at_zero"
        assert root.value == 0.0

    def test_residual_tolerance(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            data = meta(list(rng.standard_normal(k) * 2),
                        list(rng.uniform(0.1, 2.0, k)))
            q0 = q_statistic(data, 0.0)
            if q0 < 1e-6:
                continue
            target = q0 * rng.uniform(0.05, 0.95)
            root = solve(data, target)
            assert abs(q_statistic(data, root.value) - target) <= 1e-8 * target

    def test_bracket_cap(self):
        # target below Q(1e7) forces the cap error
        data = meta([0.0, 2e5], [1.0, 1.0])
        with pytest.raises(BracketCapExceeded):
            solve(data, 1e-4)

    def test_first_bracket_end_is_capped(self):
        # Q(0) max v^2 is about 8e8: an uncapped first bracket end would
        # bisect past the cap and return tau2 = 5e7
        data = meta([0.0, 2e4, -2e4], [1.0, 1e3, 1e3])
        assert first_bracket_past_cap(data)
        with pytest.raises(BracketCapExceeded):
            solve(data, q_statistic(data, 5e7))
        root = solve(data, q_statistic(data, 5e6))
        assert abs(q_statistic(data, root.value) - q_statistic(data, 5e6)) \
            <= 1e-8 * q_statistic(data, 5e6)

    def test_target_domain(self):
        with pytest.raises(DomainError):
            solve(meta([0.0, 1.0], [1.0, 1.0]), 0.0)


def reference_solve_q_equals(data: MetaBatch, target: float) -> Tau2Result:
    """Plain bisection, evaluating Q at every midpoint and not capping its
    first bracket end: the oracle for solve_q_roots."""
    if not target > 0:
        raise DomainError(f"target must be > 0, got {target}")
    q0 = q_statistic(data, 0.0)
    if q0 <= target:
        return Tau2Result(0.0, "truncated_at_zero")

    hi = max(1.0, q0 * float(data.v2.max()))
    lo = 0.0
    while q_statistic(data, hi) >= target:
        lo = hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise BracketCapExceeded(
                f"Q({BRACKET_CAP:g}) still >= target {target:g}")

    tol = _REL_TOL * target
    for it in range(1, _MAX_BISECT + 1):
        mid = 0.5 * (lo + hi)
        q = q_statistic(data, mid)
        if abs(q - target) <= tol:
            return Tau2Result(mid, "interior", it)
        if q > target:
            lo = mid
        else:
            hi = mid
    raise NonConvergenceError(
        f"bisection did not reach |Q - target| <= {tol:g} in {_MAX_BISECT} "
        f"steps; bracket [{lo:g}, {hi:g}]")


def first_bracket_past_cap(data):
    """The inputs on which the reference, which does not cap its first
    bracket end, may return a root above the cap."""
    return max(1.0, q_statistic(data, 0.0) * float(data.v2.max())) \
        > BRACKET_CAP


def outcome(solve, data, target):
    try:
        return solve(data, target)
    except NonConvergenceError as exc:
        return type(exc)


def stress_input(rng):
    """K in {2, ..., 100}, |g| up to 1e3, v^2 over four decades."""
    k = int(rng.choice([2, 3, 5, 10, 30, 100]))
    loc = rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-2.0, 2.7)
    g = loc + 10 ** rng.uniform(-3.0, 2.7) * rng.uniform(-1.0, 1.0, k)
    v2 = 10 ** rng.uniform(-2.0, 2.0, k) * 10 ** rng.uniform(-1.0, 1.0)
    n = rng.integers(2, 300, (k, 2))
    return MetaBatch.of([Study(int(a), int(b), float(x), float(v))
                         for (a, b), x, v in zip(n, g, v2)])


def stress_targets(data, rng):
    k, q0 = data.k, q_statistic(data, 0.0)
    targets = [k - 1.0, chisq_quantile(0.025, k - 1),
               chisq_quantile(0.975, k - 1), q0 * (1.0 - 1e-9),
               q0 * (1.0 - 1e-6), q0, 1.5 * q0, q0 * rng.uniform(),
               0.5 * q_statistic(data, BRACKET_CAP),
               2.0 * q_statistic(data, BRACKET_CAP)]
    eq = expected_q(data)
    if not isinstance(eq, NonConvergenceError):
        targets.append(eq)
    return [t for t in targets if t > 0.0]


def grid_inputs():
    for k in (5, 10, 30):
        for pattern, size in (("equal", 40), ("unequal", 30)):
            for tau2 in (0.0, 0.5, 2.0):
                cell = SimCell(0.5, tau2, k, pattern, size, 0.5, seed=19)
                for rep in range(3):
                    yield simulate_batch(cell, rep, rep + 1)


def battery_targets(data):
    """The six targets one replicate solves for: MP, KDB, QP and the
    corrected Q-profile (KDB) interval."""
    eq = _unwrap(expected_q(data))
    return [data.k - 1.0, eq] + [
        chisq_quantile(p, df) for df in (data.k - 1.0, eq)
        for p in (0.025, 0.975)]


class TestSolverMatchesPlainBisection:
    def test_seeded_stress_inputs(self):
        rng = np.random.default_rng(2024)
        statuses = set()
        for _ in range(300):
            data = stress_input(rng)
            if first_bracket_past_cap(data):
                continue
            for target in stress_targets(data, rng):
                expected = outcome(reference_solve_q_equals, data, target)
                assert outcome(solve, data, target) == expected, \
                    (data.g, data.v2, target)
                statuses.add(getattr(expected, "status", expected))
        assert statuses == {"interior", "truncated_at_zero",
                            BracketCapExceeded}

    def test_grid_replicates(self):
        for data in grid_inputs():
            for target in battery_targets(data):
                assert solve(data, target) == \
                    reference_solve_q_equals(data, target)

    @given(st.integers(2, 30).flatmap(lambda k: st.tuples(
               st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k),
               st.lists(st.floats(1e-2, 1e2), min_size=k, max_size=k))),
           st.floats(1e-6, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_property(self, gv, fraction):
        gs, v2s = gv
        # shrink the spread of g until the first bracket end is inside the
        # cap, rather than filter out the many draws that are not
        excess = q_statistic(meta(gs, v2s), 0.0) * max(v2s) / BRACKET_CAP
        data = meta([g / math.sqrt(2.0 * excess) for g in gs] if excess > 0.5
                    else gs, v2s)
        assume(not first_bracket_past_cap(data))
        target = fraction * q_statistic(data, 0.0)
        assume(target > 0.0)
        assert outcome(solve, data, target) == \
            outcome(reference_solve_q_equals, data, target)

    def test_few_q_evaluations_per_solve(self, monkeypatch):
        # the reference evaluates Q through the oracle's iv_weighted_mean,
        # the solver through _row_fits, one row per Q value
        evaluations = [0]
        original = oracles.iv_weighted_mean
        original_rows = qstat._row_fits

        def counted(data, tau2):
            evaluations[0] += 1
            return original(data, tau2)

        def counted_rows(g, v2, tau2):
            evaluations[0] += len(tau2)
            return original_rows(g, v2, tau2)

        monkeypatch.setattr(oracles, "iv_weighted_mean", counted)
        monkeypatch.setattr(qstat, "_row_fits", counted_rows)
        mean_evaluations = {}
        for solver in (solve, reference_solve_q_equals):
            evaluations[0] = solves = 0
            for data in grid_inputs():
                for target in battery_targets(data):
                    before = evaluations[0]
                    if solver(data, target).status != "interior":
                        evaluations[0] = before
                        continue
                    solves += 1
            mean_evaluations[solver] = evaluations[0] / solves
        assert mean_evaluations[solve] <= 10.0
        assert mean_evaluations[reference_solve_q_equals] > 25.0


class TestLockstep:
    def test_rounds_failures_and_order(self):
        # walks end at once, on their last value, or on a failure, in an
        # order other than theirs; each round asks one point per live walk
        rounds, resumed = [], []

        def evaluate(keys, points):
            rounds.append((keys, points))
            return [NonConvergenceError(f"no value at {t:g}") if t < 0.0
                    else 10.0 * t for t in points]

        def total(n):  # asks 1, ..., n and returns the sum of the values
            out = 0.0
            for t in range(1, n + 1):
                out += yield float(t)
            return out

        def failing():
            yield 1.0
            yield -1.0
            resumed.append(True)
            return "resumed"

        def at_once():
            return "at once"
            yield

        out = qstat._lockstep({"c": total(3), "now": at_once(),
                               "f": failing(), "b": total(1)}, evaluate)
        assert list(out) == ["c", "now", "f", "b"]
        assert out["c"] == 60.0 and out["b"] == 10.0
        assert out["now"] == "at once"
        assert isinstance(out["f"], NonConvergenceError)
        assert str(out["f"]) == "no value at -1"
        assert not resumed
        assert rounds == [(["c", "f", "b"], [1.0, 1.0, 1.0]),
                          (["c", "f"], [2.0, -1.0]), (["c"], [3.0])]
