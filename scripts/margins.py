"""Criterion margins across model seeds: one TSV row per seed.

    python3 scripts/margins.py [TREE] [--out FILE]

TREE is the mvtrust tree under test (default: the tree this script lives
in); its ``src`` and ``tests`` go first on ``sys.path``, so two trees can
be measured side by side.  For model seeds 0-9 the script trains on the
acceptance data of ``tests/conftest.py`` (the model seed also seeds the
train/test split, as it does there) and calls the criterion functions of
``tests/test_acceptance.py``, which compute criteria 6-10's quantities
with each criterion's data, corruption seeds and settings: ``accuracy``
(6), ``ratio`` and ``p`` (7), ``conflict_margin`` (8), ``drop`` and
``plateau`` (9), and ``no_h1`` and ``no_attention`` (10).  Then the
3-epoch, batch-32 gate of ROADMAP item 6 (accuracy >= 0.9 on the
acceptance data) at model seeds 45, 107 and 109, in the ``gate`` column.
A ``-`` marks a quantity not computed at that seed.  The last row,
``holds``, counts the seeds at which each quantity meets its pass
predicate, ``HOLDS`` of ``tests/test_acceptance.py``.

The table is a yardstick for changes that move the training outputs.
Never use it to choose a seed for a test.  It takes about 2 minutes on
one core of a 2-core x86-64 host; it is not part of the test suite.
``scripts/margins.tsv`` is its table for the tree it is committed in.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

SEEDS = range(10)
GATE_SEEDS = (45, 107, 109)
FORMATS = {"ratio": "{:.3f}", "p": "{:.2e}"}


def criteria(tree):
    """``tests/test_acceptance.py`` of TREE, imported with TREE's ``src``
    and ``tests`` first on ``sys.path``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    import test_acceptance

    return test_acceptance


def table(acceptance):
    from conftest import ACCEPTANCE_CONFIG, ACCEPTANCE_DATA
    from mvtrust import data, pipeline

    dataset = data.synthesize(**ACCEPTANCE_DATA)
    rows = {}
    for seed in SEEDS:
        run = pipeline.run_experiment(dataset, dataclasses.replace(ACCEPTANCE_CONFIG, seed=seed))
        found = {**acceptance.end_to_end_learning(run), **acceptance.uncertainty_shift(run),
                 **acceptance.conflict_localization(run), **acceptance.noise_robustness_shape(run),
                 **acceptance.ablations(dataset, seed)}
        rows[seed] = {column: found[column] for column in acceptance.HOLDS}
        print(f"seed {seed}: {rows[seed]}", file=sys.stderr)
    for seed in GATE_SEEDS:
        cfg = dataclasses.replace(ACCEPTANCE_CONFIG, seed=seed, epochs=3, batch_size=32)
        rows[seed] = {"gate": pipeline.run_experiment(dataset, cfg).report.accuracy}
        print(f"seed {seed}: {rows[seed]}", file=sys.stderr)
    return rows


def render(rows, holds):
    """The TSV of ``rows``, one column per pass predicate in ``holds`` and
    then the gate's."""
    holds = {**holds, "gate": lambda x: x >= 0.9}
    lines = ["\t".join(("seed", *holds))]
    for seed, row in rows.items():
        cells = (FORMATS.get(c, "{:.4f}").format(row[c]) if c in row else "-" for c in holds)
        lines.append("\t".join((str(seed), *cells)))
    counts = []
    for column, predicate in holds.items():
        values = [row[column] for row in rows.values() if column in row]
        counts.append(f"{sum(map(predicate, values))}/{len(values)}")
    lines.append("\t".join(("holds", *counts)))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--out", type=Path, help="write the TSV here (default: stdout)")
    args = parser.parse_args(argv)
    acceptance = criteria(args.tree.resolve())
    text = render(table(acceptance), acceptance.HOLDS)
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
