"""Fast checks of the benchmark itself:  python3 -m pytest bench"""

import json
import types
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
from spans import Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def test_spec_matches_the_metrics_the_runner_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END),
                                          (1, run.PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(trace, units, capsys,
                                               monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "analyze-stream", "--seed", "3",
                     "--seconds", "0.2", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    printed = {tuple(line.split()[::2]) for line in lines[:-1]
               if len(line.split()) == 3}
    for name, unit in units.items():
        assert (name, unit) in printed


def _cells(seed, rounds):
    it = inputs.grid_rounds(seed)
    return [next(it) for _ in range(rounds)]


def test_a_different_seed_changes_the_grid_sample():
    assert _cells(1, 4) == _cells(1, 4)
    assert _cells(1, 4) != _cells(2, 4)


def test_grid_sample_is_stratified_and_balanced():
    rounds = _cells(5, 6)
    for r in rounds:
        assert [(c.k, c.pattern) for c in r] == list(inputs.STRATA)
    for si in range(len(inputs.STRATA)):
        tau2s = sorted(r[si].tau2 for r in rounds)
        assert tau2s == sorted(inputs.TAU2S)


def test_a_different_seed_changes_the_analyze_stream(tmp_path):
    texts = {}
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        (tmp_path / sub).mkdir()
        items = inputs.analysis_stream(seed, 2, str(tmp_path / sub))
        texts[sub] = [Path(item.path).read_text() for item in items]
        malformed = [(i % inputs.WINDOW, item.kind, item.exits)
                     for i, item in enumerate(items)
                     if item.exits != inputs.WELL_FORMED_EXITS]
        assert malformed == 2 * [(at, kind, (code,)) for at, (kind, code)
                                 in zip(inputs.MALFORMED_AT, inputs.MALFORMED)]
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]


def test_window_k_is_skewed_and_bounded():
    ks = inputs.window_ks(np.random.default_rng(0), 1000)
    assert min(ks) >= inputs.K_MIN and max(ks) <= inputs.K_MAX
    assert sum(k < 20 for k in ks) > 0.7 * len(ks)


def test_grid_core_hours_on_a_hand_made_table():
    flat = {s: 0.01 for s in inputs.STRATA}
    # 2160 cells x 2000 replicates x 10 ms
    assert inputs.grid_core_hours(flat) == pytest.approx(12.0)
    # equal strata hold 480 cells each, unequal strata 240
    skewed = {(k, p): 0.01 if p == "equal" else 0.02 for k, p in inputs.STRATA}
    assert inputs.grid_core_hours(skewed) == pytest.approx(
        (3 * 480 * 2000 * 0.01 + 3 * 240 * 2000 * 0.02) / 3600)
    assert sum(inputs.stratum_grid_cells(p) for _, p in inputs.STRATA) == 2160


def test_tracer_self_time_excludes_child_spans():
    mod = types.ModuleType("toy")
    exec("def inner(x):\n    return sum(range(x))\n\n"
         "def outer(x):\n    return inner(x) + inner(x)\n", mod.__dict__)
    original = mod.outer
    tracer = Tracer()
    tracer.install({"toy": mod})
    assert mod.outer(20000) == 2 * sum(range(20000))
    tracer.uninstall()
    assert mod.outer is original
    summary = tracer.summary()
    assert summary["toy.outer"]["calls"] == 1
    assert summary["toy.inner"]["calls"] == 2
    assert summary["toy.outer"]["self_s"] == pytest.approx(
        summary["toy.outer"]["s"] - summary["toy.inner"]["s"])
    assert summary["toy.inner"]["self_s"] == summary["toy.inner"]["s"]
