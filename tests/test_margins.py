"""``scripts/margins.py`` renders its table with the acceptance tests' own
criterion functions and pass predicates.

The script is not run here (it trains for minutes); it is imported by path,
loads this tree's criterion code as it does when run, and renders a made-up
table, so a renamed criterion function or predicate fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CRITERIA = ("end_to_end_learning", "uncertainty_shift", "conflict_localization",
            "noise_robustness_shape", "ablations")


@pytest.fixture()
def margins(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("margins", ROOT / "scripts" / "margins.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loads_this_trees_criterion_code(margins):
    acceptance = margins.criteria(ROOT)
    assert Path(acceptance.__file__) == ROOT / "tests" / "test_acceptance.py"
    assert all(callable(getattr(acceptance, name)) for name in CRITERIA)


def test_holds_row_counts_with_the_tests_predicates_at_their_edges(margins):
    holds = margins.criteria(ROOT).HOLDS
    rows = {
        0: {"accuracy": 0.9, "ratio": 1.5, "p": 0.01, "conflict_margin": 0.0, "drop": 0.0,
            "plateau": 0.02, "no_h1": 0.0, "no_attention": 1e-9},
        45: {"ratio": 1.4999, "p": 0.0099, "plateau": 0.0199, "gate": 0.9},
    }
    assert margins.render(rows, holds) == (
        "seed\taccuracy\tratio\tp\tconflict_margin\tdrop\tplateau\tno_h1\tno_attention\tgate\n"
        "0\t0.9000\t1.500\t1.00e-02\t0.0000\t0.0000\t0.0200\t0.0000\t0.0000\t-\n"
        "45\t-\t1.500\t9.90e-03\t-\t-\t0.0199\t-\t-\t0.9000\n"
        "holds\t1/1\t1/2\t1/2\t0/1\t0/1\t1/2\t1/1\t0/1\t1/1\n"
    )
