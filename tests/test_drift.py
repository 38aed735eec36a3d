"""``scripts/drift.py`` tells a float that moved from any other change.

The script is imported by path and run on small made-up output trees.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = "index\tlabel\tcorrupted\tjoint_u\n0\t2\t1\t0.1\n1\t0\t0\tNA\n"


@pytest.fixture()
def drift():
    spec = importlib.util.spec_from_file_location("drift", ROOT / "scripts" / "drift.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.drift


def tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


@pytest.fixture()
def parent(tmp_path):
    return tree(tmp_path / "a", {"eval/records.tsv": RECORDS, "eval/run.meta": "{}\n",
                                 "identity.sha256": "a\n"})


def test_identical_trees(drift, parent, tmp_path):
    change = tree(tmp_path / "b", {"eval/records.tsv": RECORDS, "eval/run.meta": "{}\n",
                                   "identity.sha256": "b\n"})
    assert drift(parent, change) == (["file\tcells\tmax_rel\tnon_float",
                                      "eval/records.tsv\t0\t0\t0"], 0)


def test_last_bit_float_change(drift, parent, tmp_path):
    moved = RECORDS.replace("0.1", repr(0.1 + 2 ** -56))
    change = tree(tmp_path / "b", {"eval/records.tsv": moved, "eval/run.meta": "{}\n"})
    assert drift(parent, change) == (["file\tcells\tmax_rel\tnon_float",
                                      "eval/records.tsv\t1\t1.4e-16\t0"], 0)


def test_label_change(drift, parent, tmp_path):
    relabelled = RECORDS.replace("1\t0\t0\tNA", "1\t3\t0\tNA")
    change = tree(tmp_path / "b", {"eval/records.tsv": relabelled, "eval/run.meta": "{}\n"})
    assert drift(parent, change) == (["file\tcells\tmax_rel\tnon_float",
                                      "eval/records.tsv\t1\t0\t1",
                                      "eval/records.tsv\tline 3\tcolumn label\t'0' -> '3'"], 1)


def test_missing_file(drift, parent, tmp_path):
    change = tree(tmp_path / "b", {"eval/records.tsv": RECORDS})
    assert drift(parent, change) == (["file\tcells\tmax_rel\tnon_float",
                                      "eval/records.tsv\t0\t0\t0",
                                      f"eval/run.meta\tonly in {parent}"], 1)
