"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Simulation cells run at reps=2000 (seed fixed) except the delta-bias cell,
which needs more replications for its +/-0.012 band to sit at 3 MC
standard errors.  For the same reason the tau^2 bias fan checks KDB's
upward bias on its mean over the four tau^2 >= 1 cells: KDB's bias there
(about +0.03 to +0.06) is only one to two per-cell MC standard errors at
2000 replications, so a 2-SE test in each cell would fail on noise, while
the pooled mean halves the SE.  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines as they complete.
"""

import math

import numpy as np
import pytest
from scipy.special import erfinv

from smdmeta.cli import main
from smdmeta.numkernel import (
    RandomStream,
    derive_stream_id,
    mixture_cdf,
    t_quantile,
)
from smdmeta.qstat import MetaInput, q_statistic
from smdmeta.effect import ci_hksj, ci_z, effect_iv
from smdmeta.simlab import SimCell, run_cell_raw
from smdmeta.smd import Study, g_variance, j_factor, sample_g
from smdmeta.tau2 import (
    ci_bj,
    ci_jackson,
    ci_kdb,
    ci_pl,
    ci_qp,
    corrected_expected_q,
    tau2_dl,
    tau2_jackson,
    tau2_mp,
    tau2_reml,
)

SEED = 1
REPS = 2000


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sim():
    cache: dict = {}

    def get(delta, tau2, k, n, q=0.5, reps=REPS):
        key = (delta, tau2, k, n, q, reps)
        if key not in cache:
            cell = SimCell(delta, tau2, k, "equal", n, q,
                           reps=reps, chunks=10, seed=SEED)
            cache[key] = run_cell_raw(cell)
        return cache[key]

    return get


def bias_and_se(values: np.ndarray, truth: float) -> tuple[float, float]:
    ok = values[~np.isnan(values)]
    return float(ok.mean() - truth), float(ok.std(ddof=1) / math.sqrt(ok.size))


def coverage(values: np.ndarray) -> float:
    ok = values[~np.isnan(values)]
    return float(ok.mean())


def meta(gs, v2s, n=20):
    n_t = n // 2
    return MetaInput(tuple(Study(n_t, n - n_t, g, v) for g, v in zip(gs, v2s)))


def homogeneous_input(k, n, q, d):
    n_t = math.ceil((1 - q) * n)
    n_c = n - n_t
    return MetaInput(tuple(Study(n_t, n_c, d, g_variance(d, n_t, n_c))
                           for _ in range(k)))


def test_c01_analytic_oracles():
    checks = []
    spread = meta([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
    checks.append(abs(tau2_dl(spread).value - 3.0) < 1e-10)
    checks.append(abs(tau2_mp(spread).value - 3.0) < 1e-6)
    checks.append(abs(tau2_reml(spread).value - 3.0) < 1e-6)
    jx = tau2_jackson(meta([0.0, 2.0], [1.0, 4.0]))
    checks.append(jx.value == 0.0 and jx.status == "truncated_at_zero")
    checks.append(abs(j_factor(2) - 1 / math.sqrt(math.pi)) < 1e-12)
    checks.append(abs(j_factor(10) - 0.9227456) < 1e-7)
    checks.append(abs(g_variance(0.0, 10, 10) - 0.2) < 1e-14)
    j2 = j_factor(18) ** 2
    checks.append(abs(g_variance(1.0, 10, 10) - (0.2 + 1 - 16 / (18 * j2)))
                  < 1e-12)
    two = meta([0.0, 2.0], [1.0, 1.0])
    qp = ci_qp(two)
    q025 = 2 * erfinv(0.025) ** 2
    checks.append(qp.lo == 0.0 and abs(qp.hi - (2 / q025 - 1)) < 1e-3 * qp.hi)
    hksj = ci_hksj(two, effect_iv(two, tau2_dl(two)))
    checks.append(abs(hksj.half_width - t_quantile(0.975, 1)) < 1e-9)
    report(1, all(checks), f"analytic oracles: {sum(checks)}/{len(checks)} ok")


def test_c02_mixture_cdf_oracle():
    lam = (2.0, 1.0, 0.5)
    rng = np.random.default_rng(SEED)
    z = rng.standard_normal((200_000, 3))
    q = (np.array(lam) * z * z).sum(axis=1)
    probes = np.quantile(q, np.linspace(0.05, 0.95, 10))
    worst = max(abs(mixture_cdf(float(x), lam) - float((q <= x).mean()))
                for x in probes)
    report(2, worst <= 0.005,
           f"mixture CDF vs 2e5-draw MC at 10 probes: worst |diff|={worst:.5f}")


def test_c03_kdb_moment_oracle():
    k, n, q, d = 5, 20, 0.5, 0.5
    data = homogeneous_input(k, n, q, d)
    expected = corrected_expected_q(data)
    reps = 100_000
    n_t = math.ceil((1 - q) * n)
    n_c = n - n_t
    qs = np.empty(reps)
    for r in range(reps):
        gen = RandomStream(SEED, derive_stream_id("c3", r)).generator()
        studies = tuple(sample_g(gen, n_t, n_c, d) for _ in range(k))
        qs[r] = q_statistic(MetaInput(studies), 0.0)
    mc, se = float(qs.mean()), float(qs.std(ddof=1) / math.sqrt(reps))
    ok_mc = abs(expected - mc) <= 3 * se
    big = corrected_expected_q(homogeneous_input(k, 10**6, q, d))
    ok_limit = abs(big - (k - 1)) <= 1e-3
    report(3, ok_mc and ok_limit,
           f"corrected E[Q]={expected:.4f} vs MC {mc:.4f}+/-{se:.4f}; "
           f"n=1e6 value {big:.6f}")


def test_c04_tau2_bias_fan(sim):
    lines = []
    ok = True
    kdb_high = []
    for tau2 in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        raw = sim(0.5, tau2, 10, 20)
        b_kdb, se_kdb = bias_and_se(raw.tau2_est["KDB"], tau2)
        b_dl, se_dl = bias_and_se(raw.tau2_est["DL"], tau2)
        b_mp, _ = bias_and_se(raw.tau2_est["MP"], tau2)
        if tau2 >= 1.0:
            kdb_high.append((b_kdb, se_kdb))
            ok &= b_dl + 2 * se_dl < 0.0
        if tau2 >= 0.5:
            diff = raw.tau2_est["MP"] - raw.tau2_est["DL"]
            se_pair = float(np.nanstd(diff, ddof=1) / math.sqrt(len(diff)))
            ok &= abs(b_dl) - abs(b_mp) > 2 * se_pair
        lines.append(f"tau2={tau2:g}: KDB{b_kdb:+.3f}({se_kdb:.3f}) "
                     f"MP{b_mp:+.3f} DL{b_dl:+.3f}")
    # the cells draw independent streams, so the SEs add in quadrature
    b_pool = sum(b for b, _ in kdb_high) / len(kdb_high)
    se_pool = math.sqrt(sum(se * se for _, se in kdb_high)) / len(kdb_high)
    ok &= b_pool - 2 * se_pool > 0.0
    lines.append(f"KDB mean bias over tau2>=1: {b_pool:+.3f}({se_pool:.3f})")
    report(4, ok, "bias fan " + "; ".join(lines))


def test_c05_tau2_coverage_at_zero(sim):
    raw = sim(0.5, 0.0, 5, 20)
    covs = {name: coverage(raw.tau2_cover[name]) for name in raw.tau2_cover}
    ok = all(c >= 0.945 for c in covs.values())
    ok &= abs(covs["KDB"] - 0.99) <= 0.015
    report(5, ok, "tau2 CI coverage at tau2=0: "
           + ", ".join(f"{n}={c:.3f}" for n, c in covs.items()))


def test_c06_bj_collapse_at_k30(sim):
    raw = sim(0.5, 2.5, 30, 20)
    bj = coverage(raw.tau2_cover["BJ"])
    qp = coverage(raw.tau2_cover["QP"])
    ok = abs(bj - 0.77) <= 0.03 and abs(qp - 0.95) <= 0.02
    report(6, ok, f"K=30, tau2=2.5: BJ={bj:.3f} (target 0.77+/-0.03), "
                  f"QP={qp:.3f} (target 0.95+/-0.02)")


def test_c07_delta_point_bias(sim):
    # +/-0.012 at >= 3 MC SE requires smaller SE than 2000 reps give here
    raw = sim(1.0, 2.5, 10, 20, reps=20_000)
    b_kdb, se1 = bias_and_se(raw.delta_est["IV-KDB"], 1.0)
    b_dl, se2 = bias_and_se(raw.delta_est["IV-DL"], 1.0)
    b_ssw, se3 = bias_and_se(raw.delta_est["SSW"], 1.0)
    ok = (abs(b_kdb + 0.05) <= 0.012 and abs(b_dl + 0.07) <= 0.012
          and abs(b_ssw) <= 0.012)
    report(7, ok, f"delta bias: KDB {b_kdb:+.4f}({se1:.4f}) "
                  f"DL {b_dl:+.4f}({se2:.4f}) SSW {b_ssw:+.4f}({se3:.4f})")


def test_c08_z_interval_undercoverage(sim):
    raw = sim(0.5, 0.5, 5, 20)
    cov = coverage(raw.delta_cover["Z-DL"])
    report(8, 0.885 <= cov <= 0.925,
           f"Z-DL coverage at K=5, tau2=0.5: {cov:.3f} (target [0.885,0.925])")


def test_c09_hksj_failure_region(sim):
    raw = sim(2.0, 0.0, 30, 20)
    covs = {name: coverage(raw.delta_cover[name]) for name in raw.delta_cover}
    ok = covs["HKSJ"] <= 0.87
    others = [c for n, c in covs.items() if n != "SSW-KDB"]
    ok &= covs["SSW-KDB"] >= max(others)
    report(9, ok, "delta CI coverage at delta=2, K=30, tau2=0: "
           + ", ".join(f"{n}={c:.3f}" for n, c in covs.items()))


def _mse_ratios(raw):
    out = {}
    for label, num_name, den_name in (("SSW/KDB", "SSW", "IV-KDB"),
                                      ("SSW/MP", "SSW", "IV-MP")):
        a = (raw.delta_est[num_name] - raw.cell.delta) ** 2
        b = (raw.delta_est[den_name] - raw.cell.delta) ** 2
        both = ~np.isnan(a) & ~np.isnan(b)
        out[label] = float(a[both].mean() / b[both].mean())
    return out


def test_c10_mse_ratios(sim):
    r20 = _mse_ratios(sim(0.0, 1.0, 5, 20))
    r250 = _mse_ratios(sim(0.0, 1.0, 5, 250))
    r_sep = _mse_ratios(sim(2.0, 0.0, 30, 20))
    r_sep_hi = _mse_ratios(sim(2.0, 2.5, 30, 20))
    ok = all(abs(v - 1.1) <= 0.05 for v in r20.values())
    ok &= all(abs(v - 1.0) <= 0.03 for v in r250.values())
    ok &= all(abs(v - 0.55) <= 0.06 for v in r_sep.values())
    ok &= all(v < 1.0 for v in r_sep_hi.values())
    report(10, ok,
           f"MSE ratios: n=20 {r20}, n=250 {r250}, delta=2 tau2=0 {r_sep}, "
           f"delta=2 tau2=2.5 {r_sep_hi}")


def test_c11_simulate_determinism(tmp_path, capsys):
    flags = ["--delta", "0", "--tau2", "0", "--k", "5", "--n", "20",
             "--q", "0.5", "--reps", "80", "--seed", "7"]
    outputs = []
    for i, (threads, chunks) in enumerate(
            [(1, 10), (4, 10), (16, 10), (1, 1), (4, 1)]):
        path = str(tmp_path / f"r{i}.csv")
        code = main(["simulate", *flags, "--threads", str(threads),
                     "--chunks", str(chunks), "--out", path])
        assert code == 0
        outputs.append(open(path, "rb").read())
    capsys.readouterr()
    ok = all(o == outputs[0] for o in outputs)
    report(11, ok, "byte-identical CSV across threads {1,4,16} x chunks {1,10}")


def test_c12_property_suites():
    rng = np.random.default_rng(SEED)
    total = 10_000
    interval_fns = (ci_qp, lambda d: ci_kdb(d, corrected_expected_q(d)),
                    ci_bj, ci_jackson, lambda d: ci_pl(d, tau2_reml(d)))
    violations = 0

    def rand_meta(k_max=6):
        k = int(rng.integers(2, k_max + 1))
        n = int(rng.integers(6, 41)) * 2
        gs = rng.standard_normal(k) * rng.uniform(0.3, 1.5)
        v2s = rng.uniform(0.08, 2.5, k)
        return meta(list(gs), list(v2s), n=n)

    for i in range(total):
        data = rand_meta()
        kind = i % 5
        if kind == 0:  # Q monotone in tau2
            t1, t2 = sorted(rng.uniform(0.0, 8.0, 2))
            if q_statistic(data, t2) > q_statistic(data, t1) + 1e-9:
                violations += 1
        elif kind == 1:  # shift equivariance of delta estimators
            c = float(rng.uniform(-3, 3))
            shifted = MetaInput(tuple(
                Study(s.n_t, s.n_c, s.g + c, s.v2) for s in data.studies))
            dl_a, dl_b = tau2_dl(data), tau2_dl(shifted)
            if abs(effect_iv(shifted, dl_b).value
                   - effect_iv(data, dl_a).value - c) > 1e-9:
                violations += 1
            if abs(ci_z(shifted, effect_iv(shifted, dl_b)).half_width
                   - ci_z(data, effect_iv(data, dl_a)).half_width) > 1e-9:
                violations += 1
        elif kind == 2:  # equal-variance DL = MP = Jackson
            v = float(rng.uniform(0.1, 2.0))
            eq = MetaInput(tuple(Study(s.n_t, s.n_c, s.g, v)
                                 for s in data.studies))
            dl = tau2_dl(eq).value
            if abs(tau2_mp(eq).value - dl) > max(1e-6 * (1 + dl), 1e-8):
                violations += 1
            if abs(tau2_jackson(eq).value - dl) > 1e-10 * (1 + dl):
                violations += 1
        elif kind == 3:  # interval ordering, rotating across all five methods
            ci = interval_fns[(i // 5) % 5](data)
            if not (0.0 <= ci.lo <= ci.hi):
                violations += 1
        else:  # truncation-flag consistency
            for r in (tau2_dl(data), tau2_mp(data), tau2_jackson(data)):
                if (r.status == "truncated_at_zero") != (r.value == 0.0):
                    violations += 1
            mp = tau2_mp(data)
            q0 = q_statistic(data, 0.0)
            if (mp.status == "truncated_at_zero") != (q0 <= data.k - 1):
                violations += 1
    report(12, violations == 0,
           f"{total} randomized property instances, {violations} violations")
