"""`scripts/bench_pairs.py`'s summary of alternating pairs."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "norm_reps_per_s", "better": "higher", "bound": 0.2},
           {"name": "setup_s", "better": "lower", "bound": 0.25}]


def runs_of(values):
    """One run per (side, seed) from {side: [(rate, setup), ...]}."""
    return [{"side": side, "seed": seed, "result": {"metrics": {
                "norm_reps_per_s": {"value": rate},
                "setup_s": {"value": setup}}}}
            for side, pairs in values.items()
            for seed, (rate, setup) in enumerate(pairs)]


def test_summary_counts_wins_ties_and_the_move_against_the_bound():
    runs = runs_of({"parent": [(100.0, 1.0), (110.0, 1.0), (90.0, 1.0),
                               (100.0, 1.0)],
                    "change": [(70.0, 1.0), (110.0, 1.5), (95.0, 1.2),
                               (80.0, 1.0)]})
    rate, setup = bench_pairs.summarize(runs, "pairs", "grid-serial",
                                        [0, 1, 2, 3], METRICS)
    assert rate["parent_median"] == 100.0 and rate["change_median"] == 87.5
    assert (rate["change_better_pairs"], rate["tied_pairs"]) == (1, 1)
    # 12.5% fewer replicates per second: worse, inside the 20% bound
    assert rate["move"] == pytest.approx(0.125)
    assert rate["beyond_bound"] is False
    assert (setup["change_better_pairs"], setup["tied_pairs"]) == (0, 2)
    # a 10% longer median setup is worse too, and a 30% one beyond 25%
    assert setup["move"] == pytest.approx(0.1)
    assert setup["beyond_bound"] is False
    runs = runs_of({"parent": [(100.0, 1.0)], "change": [(100.0, 1.3)]})
    _, setup = bench_pairs.summarize(runs, "pairs", "grid-serial", [0],
                                     METRICS)
    assert setup["move"] == pytest.approx(0.3) and setup["beyond_bound"]
    assert setup["ratio"] == 1.3


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0,
              100.0]  # quartiles 99.25 and 100.75: IQR 1.5
    setups = [1.0] * 10

    def claims(change_rates, change_setups=setups):
        runs = runs_of({"parent": list(zip(parent, setups)),
                        "change": list(zip(change_rates, change_setups))})
        rate, setup = bench_pairs.summarize(runs, "pairs", "grid-parallel",
                                            list(range(10)), METRICS)
        return rate["claim_met"], setup["claim_met"]

    # nine wins and a tie, medians 100 -> 110: met
    assert claims([p + 10.0 for p in parent[:9]] + [100.0]) == (True, False)
    # eight wins and two ties: not met, however large the gap
    assert claims([p + 10.0 for p in parent[:8]] + parent[8:]) \
        == (False, False)
    # every pair won by 1, inside the parent's IQR of 1.5: not met
    assert claims([p + 1.0 for p in parent]) == (False, False)
    # lower is better for setup_s: ten shorter set-ups by 0.2 s are met
    # (the parent's IQR is 0), and a slower rate is never a claim
    assert claims([p - 10.0 for p in parent], [0.8] * 10) == (False, True)


def test_unresolved_when_the_parent_spread_is_wider_than_the_bound():
    # setup_s bound 0.25: parent quartiles 1.0 and 1.5 around a median of
    # 1.25 are 40% apart, wider than the bound
    parent = [(100.0, 1.0), (100.0, 1.0), (100.0, 1.5), (100.0, 1.5)]

    def setup_of(change_setups):
        runs = runs_of({"parent": parent,
                        "change": [(100.0, s) for s in change_setups]})
        rate, setup = bench_pairs.summarize(runs, "pairs", "analyze-stream",
                                            [0, 1, 2, 3], METRICS)
        assert rate["unresolved"] is False  # the rates do not spread
        return setup

    # a change inside the parent's spread: unresolved, not unchanged
    assert setup_of([1.1, 1.2, 1.3, 1.4])["unresolved"] is True
    # every change run shorter than every parent run: resolved
    setup = setup_of([0.5, 0.6, 0.7, 0.9])
    assert setup["unresolved"] is False and setup["move"] < 0.0
    # one change run level with the parent's best: unresolved again
    assert setup_of([0.5, 0.6, 0.7, 1.0])["unresolved"] is True


def test_counts_the_pairs_whose_runs_printed_the_same_outputs_hash():
    runs = runs_of({"parent": [(100.0, 1.0)] * 4, "change": [(100.0, 1.0)] * 4})
    hashes = {"parent": ["a", "b", "c", None], "change": ["a", "b", "x", None]}
    for run in runs:
        run["outputs_sha256"] = hashes[run["side"]][run["seed"]]
    rows = bench_pairs.summarize(runs, "pairs", "grid-serial", [0, 1, 2, 3],
                                 METRICS)
    # seeds 0 and 1 match; a changed hash or none printed is no match
    assert [row["same_outputs_pairs"] for row in rows] == [2, 2]
    # runs recorded before the hash was kept count as no match
    for run in runs:
        del run["outputs_sha256"]
    rows = bench_pairs.summarize(runs, "pairs", "grid-serial", [0, 1, 2, 3],
                                 METRICS)
    assert rows[0]["same_outputs_pairs"] == 0
