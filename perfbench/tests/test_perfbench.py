"""Tests of the benchmark itself, at toy sizes.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import tracing  # noqa: E402
from mvtrust import autodiff as ad  # noqa: E402
from mvtrust import pipeline  # noqa: E402

TOY = bench.Scale(
    train_rows=200,
    test_rows=100,
    eval_rows=200,
    full_epochs=6,
    minibatch_epochs=2,
    sweep_epochs=2,
    batch_size=64,
    data_setups=2,
    model_setups=2,
    accuracy_floor=0.3,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(name, tmp_path, trace=0, seed=0):
    return bench.run_workload(name, seed, 0.0, trace, TOY, tmp_path)


@pytest.mark.parametrize("name", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_emits_every_metric(name, trace, tmp_path):
    originals = {f: getattr(pipeline, f) for f in ("train", "evaluate", "backward")}
    workload, metrics = run(name, tmp_path, trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in listed}
    for m in listed:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"]
        assert np.isfinite(value)
    assert workload.checks.attempted >= 1
    assert workload.checks.failed == 0, workload.checks.problems
    assert {f: getattr(pipeline, f) for f in originals} == originals  # tracer uninstalled
    if not trace:
        assert all(metrics[m["name"]][0] > 0 for m in listed)


def test_workload_list_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_self_time_on_hand_built_span_tree():
    #  0 root    [0, 10]
    #  1 a       [1, 4]   child of root
    #  2 b       [3, 6]   child of root, overlaps a
    #  3 a.kid   [2, 3]   child of a
    #  4 late    [9, 12]  child of root, sticks out past its end
    starts = [0.0, 1.0, 3.0, 2.0, 9.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_graph_walk_counts_nodes_without_a_parameter_upstream():
    tracer = tracing.Tracer()
    w = ad.Tensor(np.ones(3))
    x = ad.Tensor(np.arange(3.0))
    root = ((x * 2.0) + w).sum()  # nodes: x, 2.0, mul, w, add, sum
    tracer._params = {id(w)}
    tracer._count_graph(root)
    assert (tracer.graph_nodes, tracer.graph_nodes_no_param) == (6, 3)


def _corrupt_conflict(evaluate):
    def corrupted(*args, **kwargs):
        report = evaluate(*args, **kwargs)
        report.conflict_matrix[0, 1] += 0.5
        return report

    return corrupted


def _corrupt_every_other_report(write):
    calls = []

    def corrupted(report, out_dir, mask=None):
        write(report, out_dir, mask)
        calls.append(1)
        if len(calls) % 2 == 0:
            with open(Path(out_dir) / "metrics.tsv", "a") as fh:
                fh.write("extra\t1\n")

    return corrupted


def _corrupt_later_logs(train):
    calls = []

    def corrupted(ds, cfg):
        model, log_rows = train(ds, cfg)
        calls.append(1)
        if len(calls) > 1:
            log_rows[-1] = dataclasses.replace(log_rows[-1], con=log_rows[-1].con + 1e-9)
        return model, log_rows

    return corrupted


@pytest.mark.parametrize(
    "name, target, corrupt",
    [
        ("train-full", "evaluate", _corrupt_conflict),
        ("eval-sweep", "write_eval_report", _corrupt_every_other_report),
        ("train-minibatch", "train", _corrupt_later_logs),
    ],
)
def test_corrupted_output_counts_as_failed(name, target, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, target, corrupt(getattr(pipeline, target)))
    workload, _ = run(name, tmp_path)
    assert workload.checks.failed > 0
    assert workload.checks.failed <= workload.checks.attempted


def test_accuracy_below_floor_counts_as_failed(tmp_path, monkeypatch):
    evaluate = pipeline.evaluate

    def shuffled(trained, ds, mask=None):
        report = evaluate(trained, ds, mask)
        report.accuracy = 0.0
        return report

    monkeypatch.setattr(pipeline, "evaluate", shuffled)
    workload, _ = run("eval-sweep", tmp_path)
    assert workload.checks.failed > 0
    assert any("below floor" in p for p in workload.checks.problems)


def test_samples_get_the_speed_factor_of_their_operation(tmp_path, monkeypatch):
    passes = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(bench, "reference_seconds", lambda: next(passes))
    workload = bench.Workload(0, 0.0, None, TOY, tmp_path, None)
    workload.calibrated(lambda: workload.evaluate_s.extend([1.0, 2.0]))
    workload.calibrated(lambda: workload.setup_s.append(4.0))
    # Passes 10 ms then 30 ms around the first call, 30 ms then 20 ms around the second.
    assert workload.scaled("evaluate_s") == pytest.approx([0.5, 1.0])
    assert workload.scaled("setup_s") == pytest.approx([4.0 * 0.010 / 0.025])
    assert workload.factors["epoch_s"] == []


def test_warm_up_timings_are_not_samples(tmp_path):
    workload, _ = run("train-full", tmp_path)
    for name in ("epoch_s", "evaluate_s"):
        assert len(getattr(workload, name)) == len(workload.factors[name])
    # One train call and held_out_evaluates evaluate calls per timed operation.
    operations = sum(map(len, workload.op_s.values()))
    assert len(workload.epoch_s) == operations
    assert len(workload.evaluate_s) == operations * TOY.held_out_evaluates
