"""The replicate-batched battery against the scalar oracle in oracles.py:
values, statuses, iteration counts, flags and failures bit for bit, at any
batch size; the BJ and J intervals, whose CDFs come from another route than
the oracle's eigenvalues, within their certificate."""

import collections
import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from batch_of_one import each, stack
from oracles import q_statistic
from smdmeta import effect, qstat, simlab, tau2
from smdmeta.cli import main
from smdmeta.numkernel import (DomainError, NonConvergenceError, _unwrap,
                               chisq_quantile)
from smdmeta.qstat import (
    BRACKET_CAP,
    BracketCapExceeded,
    MetaBatch,
    solve_q_roots,
)
from smdmeta.simlab import SimCell, simulate_batch
from smdmeta.smd import Study, g_variance


@pytest.fixture(autouse=True)
def errstate_of_estimate_all():
    """Rows and oracles run here as estimate_all runs them: each turns the
    non-finite values it meets into its failures, with no numpy warning."""
    with np.errstate(all="ignore"):
        yield


def key(obj):
    """Everything an outcome holds, floats and arrays by their bits."""
    if isinstance(obj, NonConvergenceError):
        return type(obj).__name__, str(obj)
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return tuple(key(x) for x in obj)
    if isinstance(obj, dict):
        return {k: key(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        return tuple(key(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return obj


def within_certificate(got, expected):
    """A BJ or J outcome against the oracle's: the same failure, or the same
    flags and endpoints within brentq's xtol + rtol tau2, twice.  Each side
    certifies its CDFs within 1e-5 only, by its own route."""
    if isinstance(got, NonConvergenceError) \
            or isinstance(expected, NonConvergenceError):
        return key(got) == key(expected)
    return got.flags == expected.flags and all(
        new == ref or abs(new - ref) <= 2.0 * (1e-6 + 1e-5 * ref)
        for new, ref in ((got.lo, expected.lo), (got.hi, expected.hi)))


def oracle(fn, *args):
    try:
        return fn(*args)
    except NonConvergenceError as exc:
        return exc


def meta(gs, v2s, sizes=None):
    sizes = sizes or [(10, 10)] * len(gs)
    return MetaBatch.of([Study(a, b, float(g), float(v))
                         for (a, b), g, v in zip(sizes, gs, v2s)])


def solver_input(rng, k, kind):
    """One input of K studies: ordinary, stress (wide g and v^2), or
    extreme (equal huge g, v^2 over 600 decades: Q is all rounding noise,
    and bisection runs out of steps)."""
    if kind == "ordinary":
        return meta(rng.standard_normal(k) * rng.uniform(0.3, 3.0),
                    rng.uniform(0.1, 3.0, k))
    if kind == "stress":
        loc = rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-2.0, 2.7)
        return meta(loc + 10 ** rng.uniform(-3.0, 2.7) * rng.uniform(-1, 1, k),
                    10 ** rng.uniform(-2.0, 2.0, k) * 10 ** rng.uniform(-1, 1))
    return meta(np.full(k, -8.038537714388613e+143),
                10 ** rng.uniform(-300.0, 300.0, k))


def solver_targets(data, rng):
    q0, q_cap = q_statistic(data, 0.0), q_statistic(data, BRACKET_CAP)
    targets = [data.k - 1.0, 1.5 * q0, q0 * rng.uniform(0.05, 0.95),
               q0 * (1.0 - 1e-9), 0.5 * q_cap, 2.0 * q_cap]
    return [t for t in targets if t > 0.0 and math.isfinite(t)]


class TestSolveQRoots:
    @pytest.mark.parametrize("r", [1, 5, 37])
    def test_matches_scalar_oracle(self, r):
        rng = np.random.default_rng(r)
        outcomes = set()
        for trial in range(12 if r < 37 else 4):
            k = int(rng.choice([2, 3, 5, 10, 30]))
            kinds = rng.choice(["ordinary", "stress", "extreme"], r,
                               p=[0.45, 0.45, 0.1])
            inputs = [solver_input(rng, k, kind) for kind in kinds]
            rows = [(d, t) for d in inputs for t in solver_targets(d, rng)]
            got = solve_q_roots(np.concatenate([d.g for d, _ in rows]),
                                np.concatenate([d.v2 for d, _ in rows]),
                                [t for _, t in rows])
            for (data, target), out in zip(rows, got):
                expected = oracle(oracles.solve_q_equals, data, target)
                assert key(out) == key(expected), (data, target)
                outcomes.add(getattr(out, "status", type(out)))
        assert outcomes == {"interior", "truncated_at_zero",
                            BracketCapExceeded, NonConvergenceError}

    def test_few_q_evaluations_for_far_roots(self, monkeypatch):
        # targets Q(1e5) to Q(1e7): doubling from max(1, Q(0) max v^2) used
        # to evaluate Q at every doubling point, 22.6 evaluations per solve
        evaluations = [0]
        original = qstat._row_fits

        def counted(g, v2, tau2):
            evaluations[0] += len(tau2)
            return original(g, v2, tau2)

        monkeypatch.setattr(qstat, "_row_fits", counted)
        rng = np.random.default_rng(2024)
        solves = 0
        for _ in range(100):
            data = solver_input(rng, int(rng.choice([2, 3, 5, 10, 30])),
                                "stress")
            for t in 10 ** rng.uniform(5.0, 7.0, 3):
                before = evaluations[0]
                out = solve_q_roots(data.g, data.v2,
                                    [q_statistic(data, t)])[0]
                if getattr(out, "status", None) != "interior":
                    evaluations[0] = before
                    continue
                solves += 1
        assert solves > 200
        assert evaluations[0] / solves <= 8.0


def batch_of(sizes, rng, r, d):
    inputs = []
    for _ in range(r):
        gs = d + 0.4 * rng.standard_normal(len(sizes))
        inputs.append(MetaBatch.of([Study(a, b, float(g), g_variance(g, a, b))
                                    for (a, b), g in zip(sizes, gs)]))
    return stack(inputs)


# below m = 1000 (Laguerre rule), at and above it (series), and both mixed
SIZE_SETS = [[(10, 10)] * 5, [(6, 14), (12, 9), (30, 31), (6, 14)],
             [(600, 700), (900, 950)], [(500, 600), (10, 12), (480, 490)]]


class TestBatchedRows:
    @pytest.mark.parametrize("r", [1, 5])
    @pytest.mark.parametrize("sizes", SIZE_SETS)
    def test_point_and_effect_rows_match_scalar_oracle(self, r, sizes):
        rng = np.random.default_rng(len(sizes) * r)
        for d in (0.0, 0.7, -2.5):
            batch = batch_of(sizes, rng, r, d)
            level = 0.9 if d < 0 else 0.95
            dl = tau2.tau2_dl_batch(batch)
            roots = tau2.q_roots_batch(batch, level)
            kdb = tau2.tau2_kdb_batch(batch, roots)
            ivs = effect.effect_iv_batch(batch, dl)
            ssws = effect.effect_ssw_batch(batch, kdb)
            got = [tau2.tau2_jackson_batch(batch),
                   tau2.corrected_expected_q_batch(batch),
                   tau2.tau2_mp_batch(batch, roots), kdb,
                   tau2.ci_qp_batch(batch, roots, level),
                   tau2.ci_kdb_batch(batch, roots, None, level),
                   dl, ivs, ssws, effect.ci_z_batch(batch, ivs, level),
                   effect.ci_hksj_batch(batch, dl, ivs, level),
                   effect.ci_ssw_kdb_batch(batch, ssws, level)]
            for i, data in enumerate(each(batch)):
                eq = oracles.corrected_expected_q(data)
                o_dl = oracles.tau2_dl(data)
                o_kdb = oracles.tau2_kdb(data, eq)
                o_iv = oracles.effect_iv(data, o_dl)
                o_ssw = oracles.effect_ssw(data, o_kdb)
                expected = [
                    oracles.tau2_jackson(data), eq, oracles.tau2_mp(data),
                    o_kdb, oracle(oracles.ci_qp, data, level),
                    oracle(oracles.ci_kdb, data, eq, level), o_dl, o_iv,
                    o_ssw, oracles.ci_z(data, o_iv, level),
                    oracles.ci_hksj(data, o_dl, o_iv, level),
                    oracles.ci_ssw_kdb(data, o_ssw, level)]
                assert key([row[i] for row in got]) == key(expected)

    def test_adapters_are_a_batch_of_one(self):
        # analyze's one input is a batch of one: the rows on it match the
        # oracle as on any batch
        rng = np.random.default_rng(7)
        for sizes in SIZE_SETS:
            one = data = batch_of(sizes, rng, 1, 0.4)
            eq = oracles.corrected_expected_q(data)
            assert key(tau2.corrected_expected_q_batch(one)[0]) == key(eq)
            (_, _, qp, _, kdb), = tau2.q_roots_batch(one, 0.95)
            assert key(kdb) == key(oracles.ci_kdb(data, eq))
            assert key(qp) == key(oracles.ci_qp(data))
            ssw, = effect.effect_ssw_batch(one, [qstat.Tau2Result(0.3,
                                                                  "interior")])
            assert key(ssw.variance) == key(oracles.ssw_variance(data, 0.3))


CELLS = [SimCell(0.5, 0.5, 5, "equal", 20, 0.5, reps=6, seed=3),
         SimCell(1.0, 2.0, 10, "unequal", 30, 0.75, reps=6, seed=3),
         SimCell(0.0, 0.0, 5, "unequal", 160, 0.5, reps=6, seed=3)]


class TestEstimateAllBatch:
    @pytest.mark.parametrize("cell", CELLS)
    def test_chunk_as_one_batch_matches_each_replicate(self, cell):
        inputs = [simulate_batch(cell, i, i + 1) for i in range(cell.reps)]
        batched = simlab.estimate_all(simulate_batch(cell, 0, cell.reps))
        for data, pair in zip(inputs, batched):
            assert key([pair]) == key(simlab.estimate_all(data))
            results, failures = pair
            o_results, o_failures = oracles.estimate_all(data)
            assert failures == o_failures
            fixed = [("tau2_cover", "BJ"), ("tau2_cover", "J")]
            assert {k: key(v) for k, v in results.items()
                    if k[0] not in ("q_roots", "fixed_weight", "expected_q")
                    and k not in fixed} \
                == {k: key(v) for k, v in o_results.items()
                    if k[0] != "expected_q" and k not in fixed}
            assert all(within_certificate(results[k], o_results[k])
                       for k in fixed)
            assert key(results["expected_q", "KDB"]) \
                == key(o_results["expected_q", "KDB"])

    def test_failures_stay_with_their_replicate(self):
        # one replicate's overflowing input fails its own rows only
        ok = meta([0.1, 0.9, -0.4], [0.2, 0.3, 0.25])
        bad = meta([1e200, -1e200, 0.0], [1.0, 1.0, 1.0])
        batched = simlab.estimate_all(stack([ok, bad, ok]))
        assert key(batched[0:1]) == key(batched[2:3]) \
            == key(simlab.estimate_all(ok))
        assert batched[0][1] == ()
        assert key(batched[1:2]) == key(simlab.estimate_all(bad))
        assert batched[1][1][:2] == (("DL", "tau^2 estimate is inf"),
                                     ("MP", "Q(1e+07) still >= target 2"))

    def test_batch_needs_shared_arm_sizes(self):
        # one tuple of arm sizes serves every row: rows of another K do not
        # fit it
        with pytest.raises(DomainError, match="must be"):
            MetaBatch(((10, 10), (5, 6)), np.zeros((2, 3)), np.ones((2, 3)))


def count_rows(monkeypatch, module, name):
    """Count the rows (the length of the first argument, or 1 for a
    scalar) passed to module.name."""
    counts = [0]
    fn = getattr(module, name)

    def counted(x, *args, **kwargs):
        counts[0] += np.size(x)
        return fn(x, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counts


def check_fixed_weight_batch(monkeypatch, batches, level=0.95, failing=False):
    """fixed_weight_batch on each batch against the oracle's ci_bj and
    ci_jackson on each replicate, within the certificate, and, unless rows
    are failing, within 5% as many CDF evaluations in all."""
    evaluated = count_rows(monkeypatch, tau2, "mixture_cdfs")
    expected = count_rows(monkeypatch, oracles, "mixture_cdf")
    outcomes = []
    for batch in batches:
        got = tau2.fixed_weight_batch(batch, level)
        for data, pair in zip(each(batch), got):
            for new, fn in zip(pair, (oracles.ci_bj, oracles.ci_jackson)):
                assert within_certificate(new, oracle(fn, data, level)), (
                    data.g, data.v2, new)
            outcomes += [getattr(x, "flags", type(x)) for x in pair]
    assert failing or 0 < expected[0] and abs(
        evaluated[0] - expected[0]) <= 0.05 * expected[0]
    return outcomes


FIXED_WEIGHT_CELLS = [
    SimCell(0.5, 0.5, 5, "equal", 20, 0.5, seed=9),
    SimCell(1.0, 2.5, 10, "unequal", 30, 0.75, seed=9),
    SimCell(0.0, 0.0, 30, "unequal", 160, 0.5, seed=9),
    SimCell(2.0, 1.5, 30, "equal", 250, 0.75, seed=9)]


class TestFixedWeightBatch:
    @pytest.mark.parametrize("r", [1, 5, 20])
    def test_grid_cells_match_scalar_oracle(self, r, monkeypatch):
        batches = [simulate_batch(cell, 0, r) for cell in FIXED_WEIGHT_CELLS]
        check_fixed_weight_batch(monkeypatch, batches)

    def test_seeded_inputs_match_scalar_oracle(self, monkeypatch):
        # K 3-100, homogeneous to strongly heterogeneous, batches of 1-7
        # with the same K; plus all-equal (degenerate) and beyond-cap rows:
        # at K = 100 only the upper endpoint is past 2^23, below it both are
        # and the interval fails
        rng = np.random.default_rng(12)
        batches = []
        for k in (3, 4, 7, 12, 25, 60, 100):
            inputs = []
            for _ in range(int(rng.integers(1, 8))):
                v2 = rng.uniform(0.01, 1.0, k) * 10 ** rng.uniform(-1, 1)
                scale = rng.choice([0.0, 0.1, 1.0, 10.0])
                inputs.append(meta(rng.standard_normal(k)
                                   * np.sqrt(v2 + scale), v2))
            inputs.append(meta(np.zeros(k), rng.uniform(0.1, 1.0, k)))
            inputs.append(meta([0.0] * (k - 1) + [3e4], [0.1] * k))
            batches.append(stack(inputs))
        outcomes = check_fixed_weight_batch(monkeypatch, batches, 0.9)
        assert {(), ("degenerate",), ("upper-beyond-cap",),
                NonConvergenceError} <= set(outcomes)

    def test_failures_stay_with_their_row(self, monkeypatch):
        # an overflowing fixed-weight Q fails both intervals of its row.  BJ
        # weights 1/v^2 whose squares overflow the oracle's A fail its BJ.
        # The rank-one form squares no weight: with equal v^2 both
        # coefficients are 1 + 1e160 tau2, and Q = 1e160 sum (g - gbar)^2,
        # so each endpoint solves 0.08 / tau2 = a chi2_2 quantile
        rng = np.random.default_rng(3)
        ok = meta(rng.standard_normal(3), [0.2, 0.3, 0.25])
        tiny = meta([0.1, 0.5, 0.3], [1e-160] * 3)
        batch = stack([ok, meta([1e200, -1e200, 0.0], [1.0] * 3), ok])
        outcomes = check_fixed_weight_batch(monkeypatch, [batch], failing=True)
        assert outcomes[:2] == outcomes[4:6] == [(), ()]
        assert outcomes[2] is outcomes[3] is NonConvergenceError
        assert isinstance(oracle(oracles.ci_bj, tiny, 0.95),
                          NonConvergenceError)
        (bj, j), = tau2.fixed_weight_batch(tiny, 0.95)
        exact = [0.08 / chisq_quantile(p, 2.0) for p in (0.975, 0.025)]
        assert bj.flags == () and all(
            abs(end - ref) <= 2.0 * (1e-6 + 1e-5 * ref)
            for end, ref in zip((bj.lo, bj.hi), exact))
        assert within_certificate(j, oracles.ci_jackson(tiny))

    def test_failed_upper_endpoint_stops_its_row(self, monkeypatch):
        # a CDF that cannot be certified (as an Imhof failure) partway up the
        # BJ upper walk fails the BJ interval as the oracle's does, and its
        # lower walk, still going, asks for no CDF after that round
        data = meta([-1.2, 0.3, 2.1, 0.8, -0.5], [0.2, 0.3, 0.25, 0.4, 0.1])
        w = 1.0 / data.v2[0]
        x_bj = float((w * (data.g[0] - (w * data.g[0]).sum() / w.sum()) ** 2)
                     .sum())
        mu = oracles._eigenvalues(np.diag(w) - np.outer(w, w) / w.sum())
        bj = oracles.ci_bj(data)
        cap = math.sqrt(bj.lo * bj.hi)  # fail the CDFs at tau2 past it
        error = NonConvergenceError("mixture_cdf could not certify tol")
        batch_cdfs, oracle_cdfs = tau2.mixture_cdfs, oracles.mixture_cdf
        rounds = []  # per round, whether each CDF of the BJ row failed

        def oracle_cdf(x, lam, tol):  # lam = 1 + tau2 mu
            if x == x_bj and lam.max() > 1.0 + cap * mu.max():
                raise error
            return oracle_cdfs(x, lam, tol=tol)

        def batch_cdf(xs, c, p, tol):  # c = 1 + tau2 w
            failing = [x == x_bj and row.max() > 1.0 + cap * w.max()
                       for x, row in zip(xs.tolist(), c)]
            rounds.append([f for f, x in zip(failing, xs.tolist())
                           if x == x_bj])
            return [error if f else value
                    for f, value in zip(failing, batch_cdfs(xs, c, p, tol))]

        monkeypatch.setattr(tau2, "mixture_cdfs", batch_cdf)
        monkeypatch.setattr(oracles, "mixture_cdf", oracle_cdf)
        (got_bj, got_j), = tau2.fixed_weight_batch(data, 0.95)
        assert key(got_bj) == key(oracle(oracles.ci_bj, data, 0.95))
        assert within_certificate(got_j, oracles.ci_jackson(data))
        assert isinstance(got_bj, NonConvergenceError)
        first = next(r for r, row in enumerate(rounds) if any(row))
        assert False in rounds[first]  # the lower walk asked in that round
        assert not any(rounds[first + 1:])

    def test_adapters_are_a_batch_of_one(self):
        # each interval found alone (n_bj = 1: BJ, 0: J) is the one found in
        # lock-step with the other
        for data in each(batch_of([(10, 10)] * 6, np.random.default_rng(5), 4,
                                  0.3)):
            (bj, j), = tau2.fixed_weight_batch(data, 0.95)
            for n_bj, both in ((1, bj), (0, j)):
                alone, = tau2._fixed_weight_intervals(
                    data.g, data.v2, n_bj, 0.95)
                assert key(alone) == key(both)


def walk_brentq(f, a, b, **kwargs):
    """The brentq walk on f from [a, b], sent each point it asks for as the
    raw value there (the walk applies f): its outcome and the points it
    asked, after a and b."""
    walk, points = tau2._brentq(a, b, f(a), f(b), f, **kwargs), []
    try:
        x = next(walk)
        while True:
            points.append(x)
            x = walk.send(x)
    except StopIteration as stop:
        return stop.value, points


def scipy_brentq(f, a, b, **kwargs):
    """scipy's brentq on f: its root (or failure) and the points it asked."""
    points = []

    def recorded(x):
        points.append(x)
        return f(x)

    try:
        return brentq(recorded, a, b, **kwargs), points
    except RuntimeError as exc:
        return NonConvergenceError(str(exc)), points


class TestBrentqWalk:
    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x ** 3 - 2.0, 0.0, 3.0),
        (lambda x: math.exp(x) - 7.5, -1.0, 4.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: 0.975 - math.erf(x / 3.0), 0.01, 20.0),
        (lambda x: math.tanh(50.0 * (x - 0.3)), -2.0, 1.0),
        (lambda x: x - 1.0, 1.0, 3.0),  # f = 0 at a
        (lambda x: x - 1.0, -2.0, 1.0),  # f = 0 at b
    ])
    @pytest.mark.parametrize("xtol, rtol", [(1e-6, 1e-5), (1e-12, 1e-15)])
    def test_matches_scipy_point_for_point(self, f, a, b, xtol, rtol):
        got, points = walk_brentq(f, a, b, xtol=xtol, rtol=rtol)
        expected, scipy_points = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)
        assert [x.hex() for x in [a, b] + points] \
            == [x.hex() for x in scipy_points]
        assert got.hex() == expected.hex()

    def test_runs_out_of_steps_where_scipy_does(self):
        f = lambda x: math.tanh(50.0 * (x - 0.3))  # noqa: E731
        got, points = walk_brentq(f, -2.0, 1.0, xtol=1e-15, rtol=1e-15,
                                  maxiter=4)
        expected, scipy_points = scipy_brentq(f, -2.0, 1.0, xtol=1e-15,
                                              rtol=1e-15, maxiter=4)
        assert isinstance(got, NonConvergenceError)
        assert isinstance(expected, NonConvergenceError)
        assert [x.hex() for x in [-2.0, 1.0] + points] \
            == [x.hex() for x in scipy_points]


def label(outcome):
    """A failure's message without its tau2 or bracket."""
    return str(outcome).split(" at ")[0].split(": ")[-1]


def check_reml_pl(monkeypatch, batches):
    """tau2_reml_batch on each batch (less the rows whose DL failed), and
    ci_pl_batch at two levels on the rows whose REML did not, against the
    oracle's tau2_reml and ci_pl on each replicate: value bits, status,
    iterations, endpoints, flags and failure messages.  Returns what the
    rows showed."""
    calls = [0]
    loglik = oracles._loglik_and_fit

    def counted(data, tau2):
        calls[0] += 1
        return loglik(data, tau2)

    monkeypatch.setattr(oracles, "_loglik_and_fit", counted)
    seen = set()
    for batch in batches:
        dls = tau2.tau2_dl_batch(batch)
        rows = [i for i, dl in enumerate(dls)
                if not isinstance(dl, NonConvergenceError)]
        if not rows:
            continue
        batch = batch.rows(rows)
        remls = tau2.tau2_reml_batch(batch, [dls[i] for i in rows])
        for data, i, reml in zip(each(batch), rows, remls):
            calls[0] = 0
            assert key(reml) == key(oracle(oracles.tau2_reml, data, dls[i]))
            seen.add(getattr(reml, "status", None) or label(reml))
            if calls[0] > 1 + getattr(reml, "iterations", calls[0]):
                seen.add("halved")
        rows = [i for i, r in enumerate(remls)
                if not isinstance(r, NonConvergenceError)]
        if not rows:
            continue
        sub = batch.rows(rows)
        for level in (0.95, 0.9):
            pls = tau2.ci_pl_batch(sub, [remls[i] for i in rows], level)
            for data, i, pl in zip(each(sub), rows, pls):
                assert key(pl) == key(oracle(oracles.ci_pl, data, remls[i],
                                             level))
                if isinstance(pl, NonConvergenceError):
                    seen.add(label(pl))
                    continue
                seen.update(pl.flags)
                if pl.lo == 0.0:
                    seen.add("lo = 0")
                if oracles.restricted_loglik(data, 0.0) \
                        > oracles.restricted_loglik(data, remls[i].value):
                    seen.add("l(0) > l(REML)")
    return seen


# g and v^2 of inputs that take REML and PL down their rarer paths
REML_PL_INPUTS = [
    ([0.4] * 4, [0.25] * 4),  # REML truncated at zero, PL from 0
    ([0.1, 0.5, -0.3], [1e10] * 3),  # flat likelihood, PL beyond the cap
    ([0.0, 0.0, 3e4], [0.1] * 3),  # PL's first bracket point past the cap
    ([0.1, 0.5, -0.3], [1e200] * 3),  # sum of w^2 underflows
    # REML stops short of the boundary maximum: l(0) > l(REML)
    ([-2.0621227754264444, 1.744044560068809, -1.9534501533081121],
     [0.25730483917525676, 2.5987357941840394, 0.3070474903074277]),
    ([-9.711184782692178e+68, -2.5155792651219853e+64, 2.644077080307966e+62,
      -2.1077207103820242e+68, -2.2815844118654348e+69,
      -1.0031927028334205e+69, -1.0633190224891393e+74,
      -1.275350405661619e+64],  # one step halved
     [60.87209040040678, 109.73413783649407, 157.8463699071264,
      50.20279340177018, 188.30698154994747, 198.6491419335542,
      198.54726876685783, 70.75250812317962]),
    ([-1.1022890519523618e+53, -4.955965113814876e+56, -6.0270923258119854e+44,
      -5.878000437012691e+47, -2.638766486624688e+62, -1.482026763719763e+48,
      -2.0529036063974072e+57, -2.231051692784871e+47],  # nine halved
     [8.515138374961765e+106, 3.740473503481669e+99, 1.4831054508066366e+111,
      2.143817013390698e+99, 5.870894345443328e+96, 2.748504092588245e+105,
      6.157839613552807e+102, 1.4987123495671238e+103]),
    ([5.930636287253617e+92] * 20,  # 30 halvings in one step
     [3.0982488014523226e-122, 3.0120599069030017e-118, 2.894226614070558e-122,
      3.2356793533191394e-124, 2.069914914543383e-124, 1.2893250967096372e-118,
      2.480030085628643e-118, 1.3746928538192954e-122, 4.6477707046281587e-119,
      6.031052686952356e-118, 2.651099752411516e-123, 1.7513898932273318e-120,
      1.0933096302678827e-117, 2.2425809126235264e-117, 1.498567070693124e-124,
      4.151601481805152e-118, 1.9028643821000342e-118, 4.5625124967198705e-121,
      4.300682618782639e-124, 4.94095727357065e-118]),
    # the REML and PL inputs of TestExtremeInputs
    ([2.898068376972603e+180, 1.1500031881571115e-236, 1.775110927995382e-111],
     [6.295995871884031e+127, 1420801199.0777352, 6.021732848630333e-144]),
    ([343527.30125285935, -2.048559656969772e+188, -3.4976913865268908e+72,
      2.3972690698499787e-48],
     [3.0898014320104063e+117, 2.1964373174169613e+256,
      4.2435528634120785e-83, 2.2114228353578295e-79]),
]


def reml_pl_input(rng, k):
    """K studies with v^2 over one decade or over eight."""
    v2 = rng.uniform(0.1, 3.0, k) if rng.uniform() < 0.5 \
        else 10 ** rng.uniform(-4.0, 4.0, k)
    return meta(rng.standard_normal(k) * 10 ** rng.uniform(-1.0, 2.0), v2)


class TestRemlPlBatch:
    @pytest.mark.parametrize("r", [1, 5, 37])
    def test_matches_scalar_oracle(self, r, monkeypatch):
        # each input above among r - 1 seeded ones of its K
        rng = np.random.default_rng(r)
        batches = []
        for gs, v2s in REML_PL_INPUTS:
            inputs = [reml_pl_input(rng, len(gs)) for _ in range(r - 1)]
            inputs.insert(int(rng.integers(r)), meta(gs, v2s))
            batches.append(stack(inputs))
        seen = check_reml_pl(monkeypatch, batches)
        assert {"interior", "truncated_at_zero", "halved", "lo = 0",
                "l(0) > l(REML)", "upper-beyond-cap", "flat-likelihood",
                "sum w^2 underflowed", "sum of weights is 0.0",
                "convergence error"} <= seen

    def test_stopped_at_max_iter(self, monkeypatch):
        for module in (tau2, oracles):
            monkeypatch.setattr(module, "_REML_MAX_ITER", 2)
        rng = np.random.default_rng(8)
        batches = [stack([reml_pl_input(rng, k) for _ in range(5)])
                   for k in (2, 3, 5, 10)]
        assert "max_iter" in check_reml_pl(monkeypatch, batches)

    @pytest.mark.parametrize("seed, per_study", [(11, False), (12, True)])
    def test_seeded_fuzz_inputs_match_scalar_oracle(self, seed, per_study,
                                                    monkeypatch):
        # the inputs of TestExtremeInputs' fuzz runs, each a batch of one
        batches = [MetaBatch.of([Study(*row) for row in rows])
                   for rows in fuzz_inputs(np.random.default_rng(seed),
                                           per_study)]
        seen = check_reml_pl(monkeypatch, batches)
        assert {"sum w^2 underflowed", "upper-beyond-cap"} <= seen

    @pytest.mark.parametrize("nan_from", [4.0, 2.2])
    def test_nan_h_fails_the_interval(self, nan_from):
        # scipy's brentq raises on a NaN; the walk fails its row there, at
        # a bracket end (4) or at a brentq step in [2, 4]
        def loglik(t):
            return -(t - 1.0) ** 2 if t < nan_from or t >= 4.0 > nan_from \
                else math.nan

        crit = oracles.chisq_quantile(0.95, 1.0)
        walk, asked = tau2._pl_walk(1.0, crit, 0.95), []
        try:
            t = next(walk)
            while True:
                asked.append(t)
                t = walk.send(loglik(t))
        except StopIteration as stop:
            out = stop.value
        with pytest.raises(ValueError, match="is NaN") as raised:
            brentq(lambda t: 2.0 * (0.0 - loglik(t)) - crit, 2.0, 4.0,
                   xtol=1e-10, rtol=1e-8)
        assert str(out) == "profile-likelihood endpoint in [2, 4]: h is NaN"
        assert asked[-1] == float(str(raised.value).split("x=")[1].split()[0])

    def test_nan_likelihood_fails_where_scipy_raises(self):
        # l(0) is NaN (w g overflows to +inf and -inf), and so is h(0)
        data = meta([1.7e308, -1.7e308, 0.0], [1e-10] * 3)
        reml = qstat.Tau2Result(1.0, "interior")
        with pytest.raises(ValueError, match="is NaN"):
            oracles.ci_pl(data, reml)
        with pytest.raises(NonConvergenceError,
                           match="in \\[0, 1\\]: h is NaN"):
            _unwrap(tau2.ci_pl_batch(data, [reml], 0.95)[0])

    def test_adapters_are_a_batch_of_one(self):
        # the REML and PL rows on a batch of one are estimate_all's on one
        # input, and the fits under them match the oracle's
        rng = np.random.default_rng(6)
        for _ in range(5):
            one = data = reml_pl_input(rng, 4)
            dl, = tau2.tau2_dl_batch(one)
            reml, = tau2.tau2_reml_batch(one, [dl])
            (results, _), = simlab.estimate_all(data, 0.9)
            assert key(results["tau2_est", "REML"]) == key(reml)
            assert key(results["tau2_cover", "PL"]) \
                == key(tau2.ci_pl_batch(one, [reml], 0.9)[0])
            loglik = tau2._restricted_fits(data.g, data.v2)
            for t in (0.0, reml.value, 3.7):
                assert key(loglik([0], [t])[0]) \
                    == key(oracles.restricted_loglik(data, t))
                w, sum_w, mean, terms = qstat._row_fits(
                    data.g, data.v2, np.array([t]))
                assert key(oracles.WeightedFit(w[0], float(mean[0]),
                                               float(sum_w[0]))) \
                    == key(oracles.iv_weighted_mean(data, t))
                assert key(float(terms[0].sum())) \
                    == key(float(oracles._q_terms(data, t)[1].sum()))


def analyze(tmp_path, rows):
    path = tmp_path / "in.csv"
    path.write_text("study_id,n_t,n_c,g,var_g\n" + "".join(
        f"s{i},{n_t},{n_c},{g!r},{v!r}\n"
        for i, (n_t, n_c, g, v) in enumerate(rows)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


class TestExtremeInputs:
    def test_overflowing_corrected_expected_q_fails_kdb(self, tmp_path):
        rows = [(10, 10, g, 1.23e-72) for g in (-3.07e-172, 3.84e204, 0.0)]
        code, out, err = analyze(tmp_path, rows)
        assert code == 4 and "did not converge" in err
        assert "  KDB: corrected E[Q] came out non-positive (nan)" in out

    def test_overflowing_fixed_weight_q_fails_bj_and_j_rows(self, tmp_path):
        rows = [(10, 10, g, 1.0) for g in (1e200, -1e200, 0.0)]
        code, out, err = analyze(tmp_path, rows)
        assert code == 4 and "did not converge" in err
        assert "  BJ: fixed-weight Q is inf\n" in out
        assert "  J-interval: fixed-weight Q is inf\n" in out
        assert "  QP: Q(1e+07) still >= target" in out

    @pytest.mark.parametrize("name, rows, failed", [
        ("DL", [(10, 10, 0.1, 1e-160), (10, 10, 0.5, 1e-160),
                (12, 9, 0.3, 1e-160)],
         "  DL: degenerate DL denominator -inf\n"),
        # the J interval is [0, 0] here since its coefficients (spread
        # 1e110) come with no eigendecomposition
        ("BJ", [(5, 3000, 7.8e-241, 1.7e-50), (2, 10, 8.8e20, 3.2e-50),
                (5, 600, -1.26, 7.2e171), (10, 600, -1.8e41, 7.2e171),
                (600, 2, 1.4e-19, 7.2e171)],
         "  BJ: CDF(8.38861e+06) still >= target 0.975\n"),
        ("REML", [(10, 10, 2.898068376972603e+180, 6.295995871884031e+127),
                  (10, 10, 1.1500031881571115e-236, 1420801199.0777352),
                  (10, 10, 1.775110927995382e-111, 6.021732848630333e-144)],
         "  REML: sum of weights is 0.0 at tau2 = inf\n"),
        ("PL", [(10, 10, 343527.30125285935, 3.0898014320104063e+117),
                (10, 10, -2.048559656969772e+188, 2.1964373174169613e+256),
                (10, 10, -3.4976913865268908e+72, 4.2435528634120785e-83),
                (10, 10, 2.3972690698499787e-48, 2.2114228353578295e-79)],
         "  PL: profile-likelihood endpoint in [0, 3.80657e+84]: "
         "convergence error\n"),
    ])
    def test_failed_row_does_not_end_the_run(self, tmp_path, name, rows,
                                             failed):
        # each ended the whole run at the parent (exit 3, or a traceback)
        code, out, err = analyze(tmp_path, rows)
        assert code == 4 and "did not converge" in err
        assert failed in out
        assert out.count("\n  ") > out.count("\n  ", out.index(
            "non-convergent estimators"))  # some rows still print

    def test_overflowing_fit_with_both_endpoints_past_the_cap(self,
                                                               tmp_path):
        # the fit's traces overflow, so both endpoint walks start at 1, and
        # the CDF is still >= 0.975 at 2^23: BJ and J fail naming the cap, as
        # the Q-profile's lower root does, not print [inf, inf]
        code, out, err = analyze(tmp_path, [
            (5, 3000, 5.298634635385529e+119, 1.0363797623643172e+215),
            (2, 10, 6.034518261149089e-205, 1.6377865866954852e+171)])
        assert code == 4 and "did not converge" in err
        assert "[inf, inf]" not in out
        assert "  BJ: CDF(8.38861e+06) still >= target 0.975\n" in out
        assert "  J-interval: CDF(8.38861e+06) still >= target 0.975\n" in out
        assert "  QP: Q(1e+07) still >= target 5.02389\n" in out

    def test_seeded_fuzz_ends_with_documented_exit_codes(self, tmp_path):
        # K 2-5, |g| up to 1e307, var_g from 1e-300 to 1e308 (mostly one
        # value per input), arms of 2 to 3000
        codes = fuzz_codes(tmp_path, np.random.default_rng(11), False)
        assert set(codes) <= {0, 4}
        assert codes.count(4) > 100

    def test_seeded_fuzz_with_per_study_variances(self, tmp_path):
        # as above, with var_g drawn per study: 282 of these 300 ended the
        # run with exit 3 at the parent
        codes = fuzz_codes(tmp_path, np.random.default_rng(12), True)
        assert set(codes) <= {0, 4}
        assert codes.count(4) > 100


def fuzz_codes(tmp_path, rng, per_study):
    """analyze's exit codes on 300 seeded extreme inputs."""
    return [analyze(tmp_path, rows)[0]
            for rows in fuzz_inputs(rng, per_study)]


def fuzz_inputs(rng, per_study):
    """300 seeded extreme inputs, each a list of (n_t, n_c, g, var_g)."""
    inputs = []
    for _ in range(300):
        k = int(rng.integers(2, 6))
        shared = 10 ** rng.uniform(-300.0, 308.0)
        rows = []
        for _ in range(k):
            g = float(rng.choice([-1.0, 1.0])
                      * 10 ** rng.uniform(-300.0, 307.0))
            if rng.uniform() < 0.3:
                g = float(rng.standard_normal())
            v = shared if not per_study and rng.uniform() < 0.7 \
                else 10 ** rng.uniform(-300.0, 308.0)
            n_t, n_c = (int(x) for x in rng.choice([2, 5, 10, 600, 3000], 2))
            rows.append((n_t, n_c, g, float(v)))
        inputs.append(rows)
    return inputs


# ---------------------------------------------------------------------------
# simulate's coverage from the test each interval inverts
# ---------------------------------------------------------------------------

STRATUM_CELLS = [
    SimCell(0.5, 1.0, 5, "equal", 20, 0.5, seed=21),
    SimCell(0.2, 0.5, 5, "unequal", 60, 0.75, seed=21),
    SimCell(1.0, 1.5, 10, "equal", 40, 0.75, seed=21),
    SimCell(0.5, 2.0, 10, "unequal", 100, 0.5, seed=21),
    SimCell(0.2, 0.5, 30, "equal", 100, 0.5, seed=21),
    SimCell(1.0, 1.0, 30, "unequal", 30, 0.75, seed=21)]


def endpoint_tol(t, name):
    """How far from an endpoint the two routes may disagree: brentq's
    xtol + rtol t, twice (1e-10 and 1e-8 in PL's brentq, else 1e-6 and
    1e-5)."""
    xtol, rtol = (1e-10, 1e-8) if name == "PL" else (1e-6, 1e-5)
    return 2.0 * (xtol + rtol * t)


def pl_both_ways(batch, truths, level):
    """{truth: [(PL interval or failure, decision or failure), ...]} over
    the rows whose DL and REML estimates did not fail, as estimate_all
    runs PL."""
    dls = tau2.tau2_dl_batch(batch)
    rows = [i for i, dl in enumerate(dls)
            if not isinstance(dl, NonConvergenceError)]
    remls = tau2.tau2_reml_batch(batch.rows(rows), [dls[i] for i in rows]) \
        if rows else []
    rows = [i for i, r in zip(rows, remls)
            if not isinstance(r, NonConvergenceError)]
    remls = [r for r in remls if not isinstance(r, NonConvergenceError)]
    if not rows:
        return {t: [] for t in truths}
    sub = batch.rows(rows)
    found = tau2.ci_pl_batch(sub, remls, level)
    return {t: list(zip(found, tau2.ci_pl_batch(sub, remls, level, t)))
            for t in truths}


def covered_both_ways(batch, truths, level=0.95):
    """Per truth, replicate and interval (QP, KDB, BJ, J, then PL on the
    rows with a REML estimate): (truth, name, the interval or its failure,
    the decision at truth or its failure), after checking that the point
    entries of both routes are bit for bit the same."""
    with np.errstate(all="ignore"):  # as estimate_all runs the rows
        found = tau2.q_roots_batch(batch, level)
        fixed = tau2.fixed_weight_batch(batch, level)
        tested = {t: (tau2.q_roots_batch(batch, level, t),
                      tau2.fixed_weight_batch(batch, level, t))
                  for t in truths}
        pl = pl_both_ways(batch, truths, level)
    out = []
    for truth, (tested, fixed_tested) in tested.items():
        for i, (roots, decided) in enumerate(zip(found, tested)):
            assert len(roots) == len(decided)
            assert key(roots[:2] + roots[3:4]) \
                == key(decided[:2] + decided[3:4])  # E[Q], MP, KDB
            out += [(truth, name, roots[j], decided[j]) for name, j
                    in zip(("QP", "KDB")[:len(roots) // 2], (2, 4))]
            out += [(truth, name, ci, cover) for name, ci, cover
                    in zip(("BJ", "J"), fixed[i], fixed_tested[i])]
        out += [(truth, "PL", ci, cover) for ci, cover in pl[truth]]
    return out


def near_endpoint(truth, name, ci):
    return min(abs(truth - ci.lo), abs(truth - ci.hi)) \
        <= endpoint_tol(truth, name)


class TestCoverageByTest:
    @pytest.mark.parametrize("cell", STRATUM_CELLS)
    def test_strata_agree_with_contains(self, cell):
        # every (K, pattern) stratum at its own tau2 and at 0, with a
        # degenerate (all g equal, q = 0) and an overflowing row added
        # (whose DL fails, so it has no PL)
        batch = simulate_batch(cell, 0, 40)
        sizes = batch.arm_sizes
        extra = [MetaBatch(sizes, np.full((1, cell.k), 0.4), batch.v2[:1]),
                 MetaBatch(sizes, np.resize([1e200, -1e200], (1, cell.k)),
                           batch.v2[:1])]
        batch = stack([batch, *extra])
        seen = set()
        for truth, name, ci, cover in covered_both_ways(batch,
                                                        (cell.tau2, 0.0)):
            failed = isinstance(ci, NonConvergenceError)
            assert failed == isinstance(cover, NonConvergenceError)
            if failed:
                seen.add("failed")
                continue
            assert isinstance(cover, bool)
            seen.add((ci.contains(truth), cover))
            seen.add((name, cover))
            if ci.contains(truth) != cover:  # never at 0: the same test
                assert truth > 0 and near_endpoint(truth, name, ci)
        assert {"failed", (True, True), (False, False), ("PL", True),
                ("PL", False)} <= seen

    def test_degenerate_row_is_covered_only_at_zero(self):
        # by the Q-based intervals; its likelihood is not degenerate
        data = meta([0.4] * 4, [0.25] * 4)
        decisions = [(truth, cover) for truth, name, _, cover in
                     covered_both_ways(data, (0.0, 0.5)) if name != "PL"]
        assert decisions == [(0.0, True)] * 4 + [(0.5, False)] * 4

    @pytest.mark.parametrize("seed, per_study", [(11, False), (12, True)])
    def test_fuzz_inputs_agree_with_contains(self, seed, per_study):
        # where both routes answer they agree, within an endpoint's
        # tolerance (a J row whose coefficients span more than 1/eps fails
        # on both).  A lower Q-profile endpoint past the bracket cap fails
        # the search, and the test finds the truth below it.  The truth
        # cycles through 0, 0.5, 1e3.  No PL row here fails on either
        # route, so both must answer.
        seen = collections.Counter()
        for i, rows in enumerate(fuzz_inputs(np.random.default_rng(seed),
                                             per_study)):
            data = MetaBatch.of([Study(*row) for row in rows])
            for truth, name, ci, cover in covered_both_ways(
                    data, [(0.0, 0.5, 1e3)[i % 3]]):
                if isinstance(ci, BracketCapExceeded):
                    assert cover is False or isinstance(
                        cover, NonConvergenceError)
                    seen["beyond cap"] += 1
                if name == "PL":
                    assert isinstance(cover, bool) and not isinstance(
                        ci, NonConvergenceError), (rows, truth, ci, cover)
                if isinstance(ci, NonConvergenceError) \
                        or isinstance(cover, NonConvergenceError):
                    continue
                seen[name] += 1
                assert ci.contains(truth) == cover or (
                    truth > 0 or name != "PL") and near_endpoint(
                    truth, name, ci), (rows, truth, name, ci, cover)
        assert min(seen[name] for name in ("QP", "KDB", "BJ", "J")) > 30
        assert seen["PL"] >= 5  # few of these inputs have a REML estimate
        assert seen["beyond cap"] > 100

    def test_reml_pl_inputs_agree_with_contains(self):
        # PL's rarer paths (REML_PL_INPUTS) at 0, 0.5 and 1e3 (two REMLs
        # fail and leave no PL).  On the last input the walk fails, its
        # lower brentq in [0, 3.8e84] out of steps, and the test, needing
        # no endpoint, does not cover.  The decisions agree, but for one.
        # The 20 equal g of 5.9e92 have Q = 0 at every tau2 in exact
        # arithmetic; in floats the uncentered mean's rounding gives Q(0)
        # = 2.3e278 and Q = 1.8e70 at the REML estimate 1.3e86, while at
        # 0.5 all weights are equal and Q is 0.  So l(0.5) = 5.09 is above
        # l at the estimate: the walk from the estimate finds [3.4e85, inf)
        # and the test at 0.5 covers, far from either endpoint.
        seen = collections.Counter()
        for gs, v2s in REML_PL_INPUTS:
            with np.errstate(all="ignore"):
                pl = pl_both_ways(meta(gs, v2s), (0.0, 0.5, 1e3), 0.95)
            for truth, pairs in pl.items():
                for ci, cover in pairs:
                    assert not isinstance(cover, NonConvergenceError)
                    if isinstance(ci, NonConvergenceError):
                        assert gs == REML_PL_INPUTS[-1][0] and str(ci) == (
                            "profile-likelihood endpoint in [0, 3.80657e+84]"
                            ": convergence error")
                        seen["walk failed", cover] += 1
                    elif ci.contains(truth) != cover:
                        assert (gs[0], truth) == (5.930636287253617e+92, 0.5)
                        seen["rounding"] += 1
                    else:
                        seen[cover] += 1
        assert seen == {True: 7, False: 13, ("walk failed", False): 3,
                        "rounding": 1}

    def test_pl_centers_off_the_maximum_agree_with_contains(self):
        # l_hat is l at the center, or l(0) where that is larger, on both
        # routes: centers past the maximum (at 0 for equal g) or short of it
        batch = simulate_batch(STRATUM_CELLS[2], 0, 20)
        batch = stack([MetaBatch(batch.arm_sizes, np.full((1, 10), 0.4),
                                 batch.v2[:1]), batch])
        seen = set()
        for center in (0.0, 0.3, 1.0, 5.0):
            remls = [qstat.Tau2Result(center, "interior")] * len(batch)
            found = tau2.ci_pl_batch(batch, remls, 0.95)
            for truth in (0.0, 0.2, 0.5, 1.0, 3.0, 10.0):
                for ci, cover in zip(found, tau2.ci_pl_batch(
                        batch, remls, 0.95, truth)):
                    seen.add((ci.lo == 0.0, cover))
                    assert ci.contains(truth) == cover or truth > 0 \
                        and near_endpoint(truth, "PL", ci)
        assert len(seen) == 4

    @pytest.mark.parametrize("cell", [
        SimCell(0.5, 0.0, 5, "equal", 20, 0.5, seed=21), STRATUM_CELLS[5]])
    def test_estimate_all_pl_column_is_the_walk_s(self, cell):
        # simulate's battery, given the truth, and analyze's, given none
        batch = simulate_batch(cell, 0, 200)
        tested, found = (simlab.estimate_all(batch, 0.95, truth)
                         for truth in (cell.tau2, None))
        assert [r["tau2_cover", "PL"] for r, _ in tested] == [
            r["tau2_cover", "PL"].contains(cell.tau2) for r, _ in found]
        assert [f for _, f in tested] == [f for _, f in found] == [()] * 200


def count_targets(monkeypatch):
    """The number of targets of each `solve_q_roots` call, in a list."""
    targets = []
    solve = tau2.solve_q_roots

    def counted(g, v2, row_targets):
        targets.append(len(row_targets))
        return solve(g, v2, row_targets)

    monkeypatch.setattr(tau2, "solve_q_roots", counted)
    return targets


class TestCoverageCounts:
    def test_simulate_evaluates_one_cdf_and_two_roots_per_replicate(
            self, monkeypatch):
        cdfs = count_rows(monkeypatch, tau2, "mixture_cdfs")
        targets = count_targets(monkeypatch)
        for cell in STRATUM_CELLS:
            cdfs[0], targets[:] = 0, []
            raw = simlab._run_chunk(cell, 0, 10, 0.95)
            assert not raw.n_failed
            assert cdfs[0] == 2 * 10  # one BJ and one J CDF per replicate
            assert targets == [2 * 10]  # the MP and KDB points, one call

    def test_analyze_counts_and_endpoints_are_unchanged(self, monkeypatch):
        # the endpoint route: within 5% as many CDFs as the scalar oracle,
        # 6 Q-root targets per input, and the oracle's intervals, QP and KDB
        # bit for bit, BJ and J within the certificate
        cdfs = count_rows(monkeypatch, tau2, "mixture_cdfs")
        oracle_cdfs = count_rows(monkeypatch, oracles, "mixture_cdf")
        targets = count_targets(monkeypatch)
        rng = np.random.default_rng(20)
        for cell in STRATUM_CELLS:
            r = int(rng.integers(100))
            data = simulate_batch(cell, r, r + 1)
            (results, failures), = simlab.estimate_all(data)
            assert failures == () and targets[-1] == 6
            assert key([results["tau2_cover", name] for name in
                        ("QP", "KDB")]) == key([
                oracles.ci_qp(data),
                oracles.ci_kdb(data, oracles.corrected_expected_q(data))])
            assert within_certificate(results["tau2_cover", "BJ"],
                                      oracles.ci_bj(data))
            assert within_certificate(results["tau2_cover", "J"],
                                      oracles.ci_jackson(data))
        assert 0 < oracle_cdfs[0] and abs(
            cdfs[0] - oracle_cdfs[0]) <= 0.05 * oracle_cdfs[0]
