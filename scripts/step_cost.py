"""Median time of one training step and one noise-sweep operation, stage by stage.

    python3 scripts/step_cost.py [TREE]

TREE is the mvtrust tree under test (default: the tree this script lives
in); its ``src`` and ``tests`` go first on ``sys.path``, so two trees can
be measured side by side.  The data is the acceptance training split of
``tests/conftest.py`` (model seed 7, which also seeds the split).  For each
batch size n in 1, 8, 32, 128 and 800, one fresh model takes steps on the
first n training rows: 20 warm-up steps are discarded, then 100 steps
are timed with ``perf_counter``.  Each step times the forward
pass, the training objective, ``backward`` and ``Adam.step``; ``step`` is
their sum.  The script prints one TSV row per n with the median of each,
in ms.

A second table times the noise-sweep operation of ``perfbench``'s
eval-sweep workload on 5,000 held-out rows of the same acceptance data
(800 rows are kept for training, as there), and again on 20,000, where
what grows with the rows shows: ``inject_noise`` at sigma 10
on half of the rows, ``evaluate`` with its mask and ``write_eval_report``
into a temporary directory; ``operation`` is their sum.  3 warm-up
operations are discarded and 20 are timed.  They all use one seed, so
``inject_noise`` reuses its cached draw: ``inject_noise_ms`` is that hit,
and ``inject_noise_first_ms`` is one more call timed right after the cache
is cleared, the draw a sweep pays for once.  ``evaluate_peak_mb`` is the
``tracemalloc`` peak of one more ``evaluate`` call, made after the timed
ones and not timed, since tracing slows every allocation; it is in MiB, as
perfbench's ``peak_rss_mb`` is.  The model is untrained (model seed 7,
support fitted on the training rows): what inference costs does not depend
on the weights.  BLAS runs on one thread.

It takes about 40 seconds on one core of a 2-core x86-64 host; it is not
part of the test suite.
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SIZES = (1, 8, 32, 128, 800)
WARMUP = 20
STEPS = 100
STAGES = ("forward_ms", "objective_ms", "backward_ms", "adam_ms", "step_ms")
EVAL_ROWS = (5000, 20000)
EVAL_WARMUP = 3
EVAL_REPEATS = 20
EVAL_STAGES = ("inject_noise_ms", "evaluate_ms", "write_eval_report_ms", "operation_ms",
               "inject_noise_first_ms", "evaluate_peak_mb")


def use_tree(tree):
    """Put TREE's ``src`` and ``tests`` first on ``sys.path``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]


def stage_times(n, steps, warmup=WARMUP):
    """Median of each of ``STAGES`` over ``steps`` timed training steps on
    the first ``n`` acceptance training rows, after ``warmup`` discarded ones."""
    from conftest import ACCEPTANCE_CONFIG as cfg
    from conftest import ACCEPTANCE_DATA
    from mvtrust import data, losses, pipeline
    from mvtrust.autodiff import Adam, backward
    from mvtrust.networks import Model, ModelSpec

    train_raw, test_raw = data.split(data.synthesize(**ACCEPTANCE_DATA), cfg.train_fraction,
                                     cfg.seed)
    ds = data.standardize(train_raw, test_raw)[0]
    model = Model(ModelSpec(ds.view_dims, ds.n_classes, subspace_dim=cfg.subspace_dim,
                            seed=cfg.seed))
    model.fit_support(ds.views)
    optimizer = Adam(model.trainable_params(), lr=cfg.learning_rate,
                     weight_decay=cfg.weight_decay)
    views = [v[:n] for v in ds.views]
    y = pipeline.one_hot(ds.labels[:n], ds.n_classes)
    lambda_t = losses.lambda_schedule(0, cfg.anneal_epochs)

    def step():
        # the graph is freed when this returns, as in pipeline._step
        t0 = time.perf_counter()
        bundle = pipeline.forward_pass(model, views, cfg)
        t1 = time.perf_counter()
        objective, _ = pipeline.training_objective(model, bundle, y, cfg, lambda_t)
        t2 = time.perf_counter()
        backward(objective)
        t3 = time.perf_counter()
        optimizer.step()
        t4 = time.perf_counter()
        return t1 - t0, t2 - t1, t3 - t2, t4 - t3, t4 - t0

    for _ in range(warmup):
        step()
    times = [step() for _ in range(steps)]
    return {stage: 1e3 * statistics.median(column) for stage, column in zip(STAGES, zip(*times))}


def eval_times(rows, repeats, warmup=EVAL_WARMUP):
    """Median of each timed column of ``EVAL_STAGES`` over ``repeats`` timed
    noise-sweep operations on ``rows`` held-out acceptance rows, after
    ``warmup`` discarded ones, then one ``inject_noise`` after a cleared
    cache and the traced peak of one more ``evaluate``."""
    from conftest import ACCEPTANCE_CONFIG as cfg
    from conftest import ACCEPTANCE_DATA
    from mvtrust import data, pipeline
    from mvtrust.networks import Model, ModelSpec

    train_rows = 800
    n = train_rows + rows
    ds = data.synthesize(**{**ACCEPTANCE_DATA, "n_samples": n})
    train_std, test_std, stats = data.standardize(*data.split(ds, train_rows / n, cfg.seed))
    model = Model(ModelSpec(ds.view_dims, ds.n_classes, subspace_dim=cfg.subspace_dim,
                            seed=cfg.seed))
    model.fit_support(train_std.views)
    trained = pipeline.TrainedModel(model, cfg, stats)
    spec = data.CorruptionSpec("gaussian_noise", 0.5, sigma=10.0, seed=cfg.seed)

    with tempfile.TemporaryDirectory() as out:
        def operation():
            t0 = time.perf_counter()
            noisy, mask = data.inject_noise(test_std, spec)
            t1 = time.perf_counter()
            report = pipeline.evaluate(trained, noisy, mask)
            t2 = time.perf_counter()
            pipeline.write_eval_report(report, out, mask)
            t3 = time.perf_counter()
            return t1 - t0, t2 - t1, t3 - t2, t3 - t0

        for _ in range(warmup):
            operation()
        times = [operation() for _ in range(repeats)]
    data._unit_noise.cache_clear()
    t0 = time.perf_counter()
    noisy, mask = data.inject_noise(test_std, spec)
    first = time.perf_counter() - t0
    tracemalloc.start()
    try:
        pipeline.evaluate(trained, noisy, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = {stage: 1e3 * statistics.median(column)
           for stage, column in zip(EVAL_STAGES[:4], zip(*times))}
    return {**row, "inject_noise_first_ms": 1e3 * first, "evaluate_peak_mb": peak / 2**20}


def render(rows, stages=STAGES):
    """The TSV of ``rows``, a dict from n to a dict from each of ``stages`` to its value."""
    lines = ["\t".join(("n", *stages))]
    for n, row in rows.items():
        lines.append("\t".join((str(n), *(f"{row[stage]:.3f}" for stage in stages))))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    # before numpy is imported, so that BLAS starts with one thread
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    use_tree(args.tree.resolve())
    sys.stdout.write(render({n: stage_times(n, STEPS) for n in SIZES}))
    sys.stdout.write("\n" + render({rows: eval_times(rows, EVAL_REPEATS) for rows in EVAL_ROWS},
                                   EVAL_STAGES))


if __name__ == "__main__":
    main()
