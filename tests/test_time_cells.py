"""`scripts/time_cells.py` on one tree as both sides."""

import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import time_cells  # noqa: E402


def test_one_tree_against_itself_writes_the_same_bytes(tmp_path):
    metric = {"name": "ms_per_rep", "better": "lower", "bound": 0.2}
    runs, row = time_cells.time_cell(time_cells.CELLS[1], str(ROOT),
                                     str(ROOT), 2, 4, metric, str(tmp_path))
    assert row["csv_identical"] is True and row["differing_rows"] == {}
    assert (row["workload"], row["metric"], row["pairs"]) \
        == (time_cells.cell_name(time_cells.CELLS[1]), "ms_per_rep", 2)
    assert [(r["seed"], r["side"]) for r in runs] \
        == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    assert all(r["reps"] == 4 and r["result"]["metrics"]["ms_per_rep"]
               ["value"] > 0 for r in runs)
    assert row["parent_median"] > 0 and row["change_median"] > 0


HEAD = "delta,tau2,k,pattern,size,q,estimator,metric,value,mc_se,reps,seed\n"
CELL = "0.5,1,5,equal,20,0.5,"


def test_differing_rows_names_each_row_that_moved():
    parent = HEAD + "".join(CELL + row for row in (
        "BJ,tau2_coverage,0.95,0.0154,200,1\n",
        "J,tau2_coverage,0.94,0.0168,200,1\n",
        "DL,tau2_bias,-0.1,0.05,200,1\n",
        "BJ,n_failed,1,0,200,1\n"))
    change = HEAD + "".join(CELL + row for row in (
        "BJ,tau2_coverage,0.955,0.0147,200,1\n",
        "J,tau2_coverage,0.94,0.0168,200,1\n",
        "DL,tau2_bias,-0.1,0.05,200,1\n",
        "J,n_failed,1,0,200,1\n"))
    assert time_cells.differing_rows(parent, change) == [
        "BJ n_failed", "BJ tau2_coverage", "J n_failed"]
    assert time_cells.differing_rows(parent, parent) == []
