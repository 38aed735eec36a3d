"""``scripts/step_cost.py`` times the stages of a training step on this tree.

The script's full tables take seconds per batch size; here it is imported by
path and runs a few steps at one batch size and a few noise-sweep operations
on 20 held-out rows, so a renamed stage, a moved acceptance split or a broken
table fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def step_cost(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("step_cost", ROOT / "scripts" / "step_cost.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.use_tree(ROOT)
    return module


def test_times_every_stage_of_a_few_steps(step_cost):
    row = step_cost.stage_times(8, steps=3, warmup=1)
    assert list(row) == list(step_cost.STAGES)
    assert all(ms > 0.0 for ms in row.values())
    # the step is the sum of its four stages in every timed step
    assert row["step_ms"] >= max(row[stage] for stage in step_cost.STAGES[:-1])


def test_renders_one_row_per_batch_size(step_cost):
    rows = {1: dict.fromkeys(step_cost.STAGES, 0.5), 800: dict.fromkeys(step_cost.STAGES, 25.0)}
    assert step_cost.render(rows) == (
        "n\tforward_ms\tobjective_ms\tbackward_ms\tadam_ms\tstep_ms\n"
        "1\t0.500\t0.500\t0.500\t0.500\t0.500\n"
        "800\t25.000\t25.000\t25.000\t25.000\t25.000\n"
    )


def test_times_every_stage_of_a_few_noise_sweep_operations(step_cost):
    row = step_cost.eval_times(20, repeats=2, warmup=1)
    assert list(row) == list(step_cost.EVAL_STAGES)
    assert all(value > 0.0 for value in row.values())
    assert row["operation_ms"] >= max(row[stage] for stage in step_cost.EVAL_STAGES[:3])
    # 20 rows are one block: the traced peak is well under a MiB
    assert row["evaluate_peak_mb"] < 1.0


def test_renders_the_noise_sweep_table(step_cost):
    rows = {n: dict.fromkeys(step_cost.EVAL_STAGES, 2.0) for n in step_cost.EVAL_ROWS}
    assert step_cost.render(rows, step_cost.EVAL_STAGES) == (
        "n\tinject_noise_ms\tevaluate_ms\twrite_eval_report_ms\toperation_ms\tevaluate_peak_mb\n"
        "5000\t2.000\t2.000\t2.000\t2.000\t2.000\n"
        "20000\t2.000\t2.000\t2.000\t2.000\t2.000\n"
    )
