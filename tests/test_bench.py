"""``scripts/bench.py compare`` on a small made-up record."""

import importlib.util
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("scripts_bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

END_TO_END = {
    "epoch_ms": ("lower", 0.25),
    "evaluate_ms": ("lower", 0.25),
    "rows_per_s": ("higher", 0.25),
    "setup_s": ("lower", 0.25),
    "minor_faults": ("lower", None),
}
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]  # quartiles 11 and 13
CHANGE = {
    "epoch_ms": [x - 3.0 for x in PARENT],          # 10 of 10 better, by 3 > 2
    "evaluate_ms": [x - 1.5 for x in PARENT],       # 10 of 10 better, by 1.5 < 2
    "rows_per_s": [x * 0.7 for x in PARENT],        # 30 % worse, bound 25 %
    "setup_s": [x - 5.0 for x in PARENT[:8]] + [x + 1.0 for x in PARENT[8:]],  # 8 of 10
    "minor_faults": [x * 10.0 for x in PARENT],     # worse, but it has no bound
}


def _tree(columns):
    runs = [{"metrics": {name: values[i] for name, values in columns.items()}}
            for i in range(len(PARENT))]
    trace = {"metrics": {"autodiff.backward.calls": 4, "autodiff.backward.self_s": 0.02,
                         "autodiff.graph_nodes": 63}}
    median = {name: statistics.median(values) for name, values in columns.items()}
    return {"workloads": {"train-full": {"runs": runs, "median": median, "trace": trace}}}


@pytest.fixture(scope="module")
def rows():
    trees = {"parent": _tree({name: PARENT for name in END_TO_END}), "change": _tree(CHANGE)}
    comparison = bench.compare(trees, END_TO_END)
    assert list(comparison) == ["change vs parent"]
    return comparison["change vs parent"]


@pytest.mark.parametrize("name, better_in, verdict", [
    ("epoch_ms", "10 of 10", "gain"),
    ("evaluate_ms", "10 of 10", "unresolved"),
    ("rows_per_s", "0 of 10", "worse"),
    ("setup_s", "8 of 10", "unresolved"),
    ("minor_faults", "0 of 10", "unresolved"),
])
def test_verdicts(rows, name, better_in, verdict):
    row = rows["train-full"][name]
    assert row["parent"] == 12.0
    assert row["parent_iqr"] == 2.0
    assert row["better_in"] == better_in
    assert row["verdict"] == verdict


def test_medians_and_layers(rows):
    assert rows["train-full"]["epoch_ms"]["change"] == 9.0
    assert rows["train-full"]["epoch_ms"]["relative"] == -0.25
    assert rows["train-full layers"]["autodiff.backward.self_ms_per_call"] == {
        "parent": 5.0, "change": 5.0}


def test_one_run_gives_no_spread_to_beat():
    assert bench.interquartile_range([3.0]) is None
    assert bench.verdict(10.0, 1.0, -1, 1, 1, None, 0.25) == "unresolved"
