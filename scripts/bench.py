"""Benchmark one or more mvtrust trees end to end and write one JSON record.

    python3 scripts/bench.py --out BENCH_16.json parent=HEAD~1 change=.

Each ``LABEL=SOURCE`` names a tree: a directory, or a git revision of the
repository this script lives in, which is exported with ``git archive`` into
a temporary directory (once per commit, so ``a=HEAD b=HEAD`` measures the
noise between two runs of one tree).  For every repeat, each workload of
``BENCHMARK.json`` runs once per tree, the trees taking turns at running
first, as

    python3 perfbench/run.py --workload W --seed N --seconds S

in that tree; the JSON object on the last line of its output is kept.  Its
metrics gain the run's minor page faults, ``minor_faults``: the delta of
``getrusage(RUSAGE_CHILDREN)`` around it, which is the run's own count
because the runs are sequential.  A heap handed back to the system and
faulted in again shows there directly.  Then each tree runs every workload
once more with ``--trace 1``, which gives the layer split: each wrapped
function's calls and self time, and the graph nodes per step.  Last, each
tree gets two more timings: ``mvtrust gradcheck --seeds 20`` and the tier-1
suite (``python -m pytest -q --continue-on-collection-errors``).  BLAS runs
on one thread throughout.

The record holds the machine (cores, ``OPENBLAS_NUM_THREADS``, versions,
libc), every run, per tree and workload the median of each end-to-end metric
and of ``minor_faults`` and the traced run's per-layer metrics, and, against
the first tree, each later tree's relative change of the medians, the number
of repeats in which it did better, the first tree's interquartile range, a
verdict, and per workload the self time per call of every function either
tree called, with the graph nodes per step.  The verdict on a metric is
``gain`` when the later tree did better in at least nine tenths of the
pairs and its median is better by more than the first tree's interquartile
range, ``worse`` when its median is worse by more than the metric's
``bound`` in ``BENCHMARK.json`` (a fraction of the first tree's median;
``minor_faults`` has none), and ``unresolved`` otherwise.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=SOURCE")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed loop per run")
    parser.add_argument("--repeats", type=int, default=10, help="runs per tree and workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first repeat")
    args = parser.parse_args(argv)
    if any("=" not in tree for tree in args.trees):
        parser.error("trees are given as LABEL=SOURCE")
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats must be >= 1 and --seconds > 0")
    return args


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def materialize(source, scratch):
    """(directory, commit) of a tree given as a directory or a git revision."""
    path = Path(source)
    if path.is_dir():
        path = path.resolve()
        try:
            commit = git("rev-parse", "HEAD", cwd=path)
            if git("status", "--porcelain", "--untracked-files=no", cwd=path):
                commit += "+uncommitted"
        except (subprocess.CalledProcessError, FileNotFoundError):
            commit = "unknown"
        return path, commit
    commit = git("rev-parse", "--verify", f"{source}^{{commit}}")
    target = Path(scratch) / commit
    if target.is_dir():  # another label names the same commit
        return target, commit
    target.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target, commit


def timed(command, cwd):
    """Wall seconds and completed process of ``command`` run in ``cwd``."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(cwd / "src")}
    start = time.perf_counter()
    done = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done


def run_workload(tree, workload, seed, seconds, trace=0):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    _, done = timed(command, tree)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    result["metrics"]["minor_faults"] = faults
    return result


def machine():
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "libc": "-".join(platform.libc_ver()),
        "platform": platform.platform(),
        "bench_commit": git("rev-parse", "HEAD"),
    }


def layer_split(metrics):
    """Self time per call in ms of each traced function that was called, and
    the graph nodes per step, from a traced run's per-layer metrics."""
    split = {}
    for name, calls in metrics.items():
        if name.endswith(".calls") and calls:
            layer = name[: -len(".calls")]
            split[f"{layer}.self_ms_per_call"] = 1e3 * metrics[f"{layer}.self_s"] / calls
    split["autodiff.graph_nodes"] = metrics["autodiff.graph_nodes"]
    return split


def interquartile_range(values):
    """Distance between the quartiles, interpolated as ``numpy.percentile``
    does; None for a single run, which gives no spread to beat."""
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def verdict(old, new, sign, wins, pairs, iqr, bound):
    """``gain``, ``worse`` or ``unresolved`` for the medians ``old`` and
    ``new`` of a metric whose ``sign`` is 1 if higher is better and -1 if
    lower is; see the module docstring."""
    if 10 * wins >= 9 * pairs and iqr is not None and (new - old) * sign > iqr:
        return "gain"
    if bound is not None and old and (old - new) * sign / abs(old) > bound:
        return "worse"
    return "unresolved"


def compare(trees, end_to_end):
    """Each later tree against the first: relative change of the medians, the
    repeats in which it did better, the first tree's interquartile range and
    the verdict, per workload and metric, and the two traced runs' layer
    splits side by side.  ``end_to_end`` maps each metric to its
    ``(better, bound)``."""
    (base_label, base), *others = trees.items()
    out = {}
    for label, tree in others:
        rows = out[f"{label} vs {base_label}"] = {}
        for workload, record in tree["workloads"].items():
            old_split = layer_split(base["workloads"][workload]["trace"]["metrics"])
            new_split = layer_split(record["trace"]["metrics"])
            rows[f"{workload} layers"] = {
                name: {base_label: old_split.get(name), label: new_split.get(name)}
                for name in sorted(old_split.keys() | new_split.keys())
            }
            base_runs = base["workloads"][workload]["runs"]
            rows[workload] = {}
            for name, (better, bound) in end_to_end.items():
                old = base["workloads"][workload]["median"][name]
                new = record["median"][name]
                sign = 1 if better == "higher" else -1
                pairs = list(zip(base_runs, record["runs"]))
                wins = sum((b["metrics"][name] - a["metrics"][name]) * sign > 0 for a, b in pairs)
                iqr = interquartile_range([run["metrics"][name] for run in base_runs])
                rows[workload][name] = {
                    base_label: old,
                    label: new,
                    "relative": (new - old) / old if old else None,
                    "better_in": f"{wins} of {len(pairs)}",
                    f"{base_label}_iqr": iqr,
                    "verdict": verdict(old, new, sign, wins, len(pairs), iqr, bound),
                }
    return out


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    end_to_end["minor_faults"] = ("lower", None)
    with tempfile.TemporaryDirectory(prefix="mvtrust-bench-") as scratch:
        trees = {}
        for item in args.trees:
            label, source = item.split("=", 1)
            path, commit = materialize(source, scratch)
            trees[label] = {"source": source, "commit": commit, "path": path,
                            "workloads": {w: {"runs": []} for w in workloads}}
        for repeat in range(args.repeats):
            for workload in workloads:
                order = list(trees.items())
                if repeat % 2:  # the trees take turns at running first
                    order.reverse()
                for label, tree in order:
                    print(f"repeat {repeat + 1}/{args.repeats}: {workload} on {label}",
                          file=sys.stderr, flush=True)
                    result = run_workload(tree["path"], workload, args.seed + repeat, args.seconds)
                    tree["workloads"][workload]["runs"].append(result)
        for label, tree in trees.items():
            for record in tree["workloads"].values():
                record["median"] = {
                    name: statistics.median(run["metrics"][name] for run in record["runs"])
                    for name in end_to_end
                }
                record["failed"] = sum(run["failed"] for run in record["runs"])
            for workload, record in tree["workloads"].items():
                print(f"traced {workload} on {label}", file=sys.stderr, flush=True)
                record["trace"] = run_workload(tree["path"], workload, args.seed, args.seconds,
                                               trace=1)
            print(f"gradcheck on {label}", file=sys.stderr, flush=True)
            seconds, done = timed([sys.executable, "-m", "mvtrust.cli", "gradcheck",
                                   "--seeds", "20"], tree["path"])
            tree["gradcheck"] = {"wall_s": seconds, "exit": done.returncode,
                                 "output": done.stdout.strip().splitlines()}
            print(f"tier-1 on {label}", file=sys.stderr, flush=True)
            seconds, done = timed([sys.executable, "-m", "pytest", "-q", "-p",
                                   "no:cacheprovider", "--continue-on-collection-errors"],
                                  tree["path"])
            lines = done.stdout.strip().splitlines()
            tree["tier1"] = {"wall_s": seconds, "exit": done.returncode,
                             "summary": lines[-1] if lines else ""}
            del tree["path"]
    record = {
        "machine": machine(),
        "settings": {"seconds": args.seconds, "repeats": args.repeats, "seed": args.seed,
                     "workloads": workloads},
        "trees": trees,
        "comparison": compare(trees, end_to_end),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["comparison"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
