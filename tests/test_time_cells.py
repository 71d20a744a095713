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
    assert row["csv_identical"] is True
    assert (row["workload"], row["metric"], row["pairs"]) \
        == (time_cells.cell_name(time_cells.CELLS[1]), "ms_per_rep", 2)
    assert [(r["seed"], r["side"]) for r in runs] \
        == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    assert all(r["reps"] == 4 and r["result"]["metrics"]["ms_per_rep"]
               ["value"] > 0 for r in runs)
    assert row["parent_median"] > 0 and row["change_median"] > 0
