"""Run one mvtrust benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 30 --trace 0

The package is imported from the ``src/`` directory next to this one, with
BLAS pinned to one thread.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, their times scaled to a fixed
machine speed (``bench.REFERENCE_S``), the per-layer metrics of a traced
run with ``--trace 1``.  The lines before it give the machine and
settings, every metric with its unit, the unscaled wall-time medians and
the failed fraction.  The full
result, and for a traced run every span, go to ``perfbench/out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    # BLAS reads these once, when numpy is first imported.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    src = ROOT / "src"
    if not (src / "mvtrust" / "__init__.py").is_file():
        print(f"run.py: no mvtrust package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import bench

    args = parse_args(argv, bench.WORKLOADS)
    out_dir = HERE / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload, metrics = bench.run_workload(
            args.workload, args.seed, args.seconds, args.trace, work_dir=work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = workload.checks
    for problem in checks.problems:
        print(problem, file=sys.stderr)
    failed_frac = checks.failed / checks.attempted
    machine = bench.machine_info(ROOT, args.seed)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        workload.tracer.write_spans(out_dir / f"{stem}-spans.tsv")
    record = {
        "workload": args.workload,
        "machine": machine,
        "failed_frac": failed_frac,
        "problems": checks.problems,
        "samples": workload.samples(),
        **result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("machine " + json.dumps(machine, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    unscaled = {n: statistics.median(v) for n in workload.sampled if (v := getattr(workload, n))}
    print("unscaled wall-time medians (s) " + json.dumps(unscaled))
    print(f"failed_frac {failed_frac!r} ({checks.failed} of {checks.attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
