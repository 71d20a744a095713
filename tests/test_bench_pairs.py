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
