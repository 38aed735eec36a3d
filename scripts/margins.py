"""Criterion margins across model seeds: one TSV row per seed.

    python3 scripts/margins.py [TREE] [--out FILE]

TREE is the mvtrust tree under test (default: the tree this script lives
in); its ``src`` and ``tests/conftest.py`` are imported by path, so two
trees can be measured side by side.  For model seeds 0-9 the script
computes the quantities of acceptance criteria 6-10, each with that
criterion's data, corruption seeds and settings as ``tests/conftest.py``
and ``tests/test_acceptance.py`` give them; the model seed also seeds the
train/test split, as it does there:

- ``accuracy``: criterion 6, held-out accuracy after 200 epochs;
- ``ratio`` and ``p``: criterion 7, the median joint uncertainty of the
  corrupted rows over that of the clean ones, and the one-sided
  Mann-Whitney p of the corrupted rows' joint against their local
  uncertainties;
- ``conflict_margin``: criterion 8, the smallest conflict in row 0 minus
  the largest conflict between two other views;
- ``drop`` and ``plateau``: criterion 9, the clean accuracy minus that at
  sigma 1e4, and the absolute difference between sigma 1e6 and 1e8;
- ``no_h1`` and ``no_attention``: criterion 10, each variant's accuracy
  minus the full model's, 100 epochs each.

Then the 3-epoch, batch-32 gate of ROADMAP item 6 (accuracy >= 0.9 on the
acceptance data) at model seeds 45, 107 and 109, in the ``gate`` column.
A ``-`` marks a quantity not computed at that seed.  The last row,
``holds``, counts the seeds at which each criterion's own test passes.

The table is a yardstick for changes that move the training outputs.
Never use it to choose a seed for a test.  It takes about 2 minutes on
one core of a 2-core x86-64 host; it is not part of the test suite.
``scripts/margins.tsv`` is its table for the tree it is committed in.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np
from scipy.stats import mannwhitneyu

SEEDS = range(10)
GATE_SEEDS = (45, 107, 109)
COLUMNS = ("accuracy", "ratio", "p", "conflict_margin", "drop", "plateau",
           "no_h1", "no_attention", "gate")
HOLDS = {
    "accuracy": lambda x: x >= 0.90,
    "ratio": lambda x: x >= 1.5,
    "p": lambda x: x < 0.01,
    "conflict_margin": lambda x: x > 0.0,
    "drop": lambda x: x > 0.0,
    "plateau": lambda x: x < 0.02,
    "no_h1": lambda x: x <= 0.0,
    "no_attention": lambda x: x <= 0.0,
    "gate": lambda x: x >= 0.9,
}
FORMATS = {"ratio": "{:.3f}", "p": "{:.2e}"}


def criteria_row(pipeline, data, dataset, cfg):
    """Criteria 6-9's quantities for one model seed."""
    run = pipeline.run_experiment(dataset, cfg)
    trained, test_ds = run.trained, run.test_ds

    corrupted, mask = data.inject_noise(
        test_ds, data.CorruptionSpec("gaussian_noise", 0.5, sigma=10.0, seed=11))
    report = pipeline.evaluate(trained, corrupted, mask)
    hit = report.corrupted
    joint = report.joint_uncertainty
    _, p = mannwhitneyu(joint[hit], report.local_uncertainty[hit].ravel(), alternative="less")

    corrupted, mask = data.inject_conflict(
        test_ds, data.CorruptionSpec("view_misalign", 0.4, views=(0,), seed=13))
    matrix = pipeline.evaluate(trained, corrupted, mask).conflict_matrix
    v = matrix.shape[0]
    others = [matrix[a, b] for a in range(1, v) for b in range(a + 1, v)]

    sweep = pipeline.run_noise_sweep(trained, test_ds, [0.0, 1e4, 1e6, 1e8], fraction=1.0, seed=17)
    acc = {row.sigma: row.accuracy for row in sweep}
    return {
        "accuracy": run.report.accuracy,
        "ratio": float(np.median(joint[hit]) / np.median(joint[~hit])),
        "p": float(p),
        "conflict_margin": float(min(matrix[0, 1:]) - max(others)),
        "drop": acc[0.0] - acc[1e4],
        "plateau": abs(acc[1e6] - acc[1e8]),
    }


def ablation_row(pipeline, dataset, cfg):
    """Criterion 10's quantities for one model seed."""
    rows = pipeline.ablate(dataset, dataclasses.replace(cfg, epochs=100),
                           ("no_h1", "no_attention"))
    return {row.variant: row.accuracy_delta for row in rows if row.variant != "full"}


def table(tree):
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    from conftest import ACCEPTANCE_CONFIG, ACCEPTANCE_DATA
    from mvtrust import data, pipeline

    dataset = data.synthesize(**ACCEPTANCE_DATA)
    rows = {}
    for seed in SEEDS:
        cfg = dataclasses.replace(ACCEPTANCE_CONFIG, seed=seed)
        rows[seed] = {**criteria_row(pipeline, data, dataset, cfg),
                      **ablation_row(pipeline, dataset, cfg)}
        print(f"seed {seed}: {rows[seed]}", file=sys.stderr)
    for seed in GATE_SEEDS:
        cfg = dataclasses.replace(ACCEPTANCE_CONFIG, seed=seed, epochs=3, batch_size=32)
        rows[seed] = {"gate": pipeline.run_experiment(dataset, cfg).report.accuracy}
        print(f"seed {seed}: {rows[seed]}", file=sys.stderr)
    return rows


def render(rows):
    lines = ["\t".join(("seed", *COLUMNS))]
    for seed, row in rows.items():
        cells = (FORMATS.get(c, "{:.4f}").format(row[c]) if c in row else "-" for c in COLUMNS)
        lines.append("\t".join((str(seed), *cells)))
    holds = []
    for column in COLUMNS:
        values = [row[column] for row in rows.values() if column in row]
        holds.append(f"{sum(map(HOLDS[column], values))}/{len(values)}")
    lines.append("\t".join(("holds", *holds)))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--out", type=Path, help="write the TSV here (default: stdout)")
    args = parser.parse_args(argv)
    text = render(table(args.tree.resolve()))
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
