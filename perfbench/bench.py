"""Workloads, output checks and metrics of the mvtrust benchmark.

Each workload is a closed loop with one caller: it sets up its inputs from
the seed, runs one untimed warm-up operation, then repeats timed
operations until the time budget is spent, and at least ``min_rounds``
rounds of them.  Every operation's output is checked; an operation that
raises or fails a check counts as failed.  ``run.py`` is the command-line
front.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mvtrust import data, pipeline
from mvtrust.pipeline import TrainConfig, TrainedModel
from tracing import Tracer

# The acceptance generator of tests/conftest.py, without its size and seed.
ACCEPTANCE = dict(
    n_classes=4,
    n_views=3,
    view_dims=(20, 30, 25),
    separation=4.5,
    nuisance_ratio=(0.8, 0.3, 0.3),
)
SIGMAS = (0.0, 1.0, 10.0, 100.0, 1e4)
NOISE_FRACTION = 0.5

WORKLOADS = ("train-full", "train-minibatch", "eval-sweep")


@dataclass(frozen=True)
class Scale:
    """Sizes and the accuracy floor; the defaults are the benchmark's."""

    train_rows: int = 800
    test_rows: int = 200          # held-out rows of the training workloads
    eval_rows: int = 5000         # held-out rows of eval-sweep
    full_epochs: int = 10         # per train call with full batches
    minibatch_epochs: int = 2     # per train call with batch_size rows per step
    sweep_epochs: int = 8         # eval-sweep's set-up training, batch_size rows per step
    batch_size: int = 32
    # Evaluate calls on the held-out rows after each train call.  Each takes
    # 20 to 45 ms, so several per call give evaluate_ms more samples.
    held_out_evaluates: int = 4
    data_setups: int = 25         # set-up repeats when set-up only makes data
    model_setups: int = 3         # set-up repeats when set-up also trains
    min_rounds: int = 2
    # On eval-sweep's sigma=0 rows the set-up model scores 0.914 to 0.997
    # over seeds 100-139; chance is 0.25.  20 full-batch epochs would not
    # do: they leave some seeds below 0.5.
    accuracy_floor: float = 0.8


class Checks:
    """Counts attempted and failed operations and keeps what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def operation(self, label, fn):
        """Run ``fn`` returning (result, problems); count it, return result or None."""
        self.attempted += 1
        try:
            result, problems = fn()
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            self.problems.append(f"{label}: raised\n{traceback.format_exc()}")
            return None
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return result


def digest_files(directory):
    """sha256 over the names and bytes of every file under ``directory``."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def log_problems(log_rows):
    problems = []
    if not all(row.finite() for row in log_rows):
        problems.append("non-finite loss term in the training log")
    elif not log_rows[-1].overall < log_rows[0].overall:
        problems.append(
            f"final overall loss {log_rows[-1].overall!r} is not below epoch 0's "
            f"{log_rows[0].overall!r}"
        )
    return problems


def report_problems(report, accuracy_floor=None):
    problems = []
    c = report.conflict_matrix
    if not (np.array_equal(c, c.T) and np.all(np.diag(c) == 0.0)):
        problems.append("conflict matrix is not symmetric with a zero diagonal")
    for name in ("joint_uncertainty", "local_uncertainty"):
        u = getattr(report, name)
        if not np.all((u > 0.0) & (u <= 1.0)):
            problems.append(f"{name} outside (0, 1]")
    if accuracy_floor is not None and not report.accuracy >= accuracy_floor:
        problems.append(f"accuracy {report.accuracy!r} below floor {accuracy_floor}")
    return problems


def acceptance_split(seed, train_rows, held_out_rows):
    """Acceptance data split into standardized train rows and raw held-out rows."""
    n = train_rows + held_out_rows
    ds = data.synthesize(n_samples=n, seed=seed, **ACCEPTANCE)
    train_raw, test_raw = data.split(ds, train_rows / n, seed)
    train_std, test_std, stats = data.standardize(train_raw, test_raw)
    return train_std, test_std, test_raw, stats


def _timed(fn):
    t0 = _clock()
    out = fn()
    return _clock() - t0, out


def _median(values):
    return statistics.median(values) if values else 0.0


# On a shared host the speed of the same code can change by a factor of two
# within seconds and drift over minutes, so raw wall times of runs made
# minutes apart do not agree.  Each timed operation and set-up therefore
# runs between two passes of a fixed reference loop, with more passes every
# PROBE_INTERVAL_S while it runs, and its wall times are scaled by
# REFERENCE_S over the mean time of the passes: they become wall times at
# the speed at which the loop takes REFERENCE_S.  The loop mixes interpreter
# work, small-array numpy calls and a BLAS product, as the program does, and
# calls nothing of mvtrust, so no change to the program moves it.  See
# README, "Steadiness and bounds".
REFERENCE_S = 0.010
PROBE_INTERVAL_S = 0.25
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((160, 160))


def reference_seconds():
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i % 7
    a = np.ones(64)
    for _ in range(3000):
        a = a * 1.0001 + 1e-4
    for _ in range(20):
        _REFERENCE_MATRIX @ _REFERENCE_MATRIX
    return time.perf_counter() - t0


class _Probe:
    """SIGALRM handler: a reference pass in the middle of timed work."""

    def __init__(self):
        self.total_s = 0.0  # wall time of every pass made by the handler
        self.passes = []
        self.busy = False

    def __call__(self, signum, frame):
        if self.busy:  # a signal that arrives during a pass starts no other
            return
        self.busy = True
        try:
            seconds = reference_seconds()
        finally:
            self.busy = False
        self.total_s += seconds
        self.passes.append(seconds)


_PROBE = _Probe()


def _clock():
    """perf_counter, less the time of the reference passes made during timed work."""
    return time.perf_counter() - _PROBE.total_s


def _ratio(num, den):
    return num / den if den else 0.0


class Workload:
    """One run: set-up, warm-up, timed loop, checks and metrics."""

    per_round = 1  # timed operations per round
    sampled = ("setup_s", "epoch_s", "evaluate_s")  # lists of raw wall times

    def __init__(self, seed, seconds, tracer, scale, work_dir, cfg):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.scale = scale
        self.work_dir = Path(work_dir)
        self.cfg = cfg
        self.checks = Checks()
        self.setup_s = []
        self.epoch_s = []        # per-epoch wall time of each train call
        self.evaluate_s = []     # wall time of each evaluate call
        self.factors = {name: [] for name in self.sampled}  # speed factor of each sample
        self.op_rows = {}        # rows of one operation, by its place in a round
        self.op_s = {}           # scaled wall time of each operation, by its place in a round
        self.rates = {True: [], False: []}  # scaled rows/s of traced and untraced operations
        self._reference_s = None
        self._log_digest = None

    def calibrated(self, fn):
        """Run ``fn`` among reference passes; return (result, wall time, speed factor).

        Every sample that ``fn`` appends gets the same speed factor.  A
        traced run makes passes only before and after ``fn``, so that none
        falls inside a span.
        """
        if self._reference_s is None:
            self._reference_s = reference_seconds()
        _PROBE.passes = [self._reference_s]
        counts = {name: len(getattr(self, name)) for name in self.sampled}
        probing = self.tracer is None
        if probing:
            previous = signal.signal(signal.SIGALRM, _PROBE)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            seconds, out = _timed(fn)
        finally:
            if probing:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self._reference_s = reference_seconds()
        factor = REFERENCE_S / statistics.fmean(_PROBE.passes + [self._reference_s])
        for name, count in counts.items():
            self.factors[name] += [factor] * (len(getattr(self, name)) - count)
        return out, seconds, factor

    def scaled(self, name):
        return [t * f for t, f in zip(getattr(self, name), self.factors[name])]

    def run(self):
        if self.tracer is not None:
            self.tracer.install()
        self.setup()
        if self.tracer is not None:
            self.tracer.uninstall()
        kept = {name: len(getattr(self, name)) for name in self.sampled}
        self.calibrated(self.warm_up)
        for name, count in kept.items():  # the warm-up's timings are not samples
            del getattr(self, name)[count:], self.factors[name][count:]
        start = time.perf_counter()
        index = 0
        minimum = self.scale.min_rounds * self.per_round
        while index < minimum or time.perf_counter() - start < self.seconds:
            self.timed_operation(index)
            index += 1

    def timed_operation(self, index):
        """Run and time one checked operation; traced runs trace every other one."""
        label, fn = self.operation(index)
        traced = self.tracer is not None and index % 2 == 0
        if traced:
            self.tracer.operation = index
            self.tracer.install()
        try:
            rows, seconds, factor = self.calibrated(lambda: self.checks.operation(label, fn))
        finally:
            if traced:
                self.tracer.uninstall()
        if rows is not None:
            place = index % self.per_round
            self.op_rows[place] = rows
            self.op_s.setdefault(place, []).append(seconds * factor)
            self.rates[traced].append(rows / (seconds * factor))

    def train(self, train_ds):
        """One timed ``train`` call plus the checks on its training log."""
        train_s, (model, log_rows) = _timed(lambda: pipeline.train(train_ds, self.cfg))
        problems = log_problems(log_rows)
        log_path = self.work_dir / "training_log.tsv"
        pipeline.write_training_log(log_rows, log_path)
        digest = hashlib.sha256(log_path.read_bytes()).hexdigest()
        if self._log_digest is None:
            self._log_digest = digest
        elif digest != self._log_digest:
            problems.append("training log differs from the run's first train call")
        if not problems:
            self.epoch_s.append(train_s / len(log_rows))
        return model, len(log_rows), problems

    def end_to_end(self):
        return {
            "setup_s": (_median(self.scaled("setup_s")), "s"),
            # The rows of one round over the median time of each of its operations.
            "rows_per_s": (
                _ratio(sum(self.op_rows.values()), sum(map(_median, self.op_s.values()))),
                "1/s",
            ),
            "epoch_ms": (_median(self.scaled("epoch_s")) * 1000.0, "ms"),
            "evaluate_ms": (_median(self.scaled("evaluate_s")) * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def samples(self):
        """The timings behind the metrics: raw wall times with their speed factors."""
        return {
            **{name: getattr(self, name) for name in self.sampled},
            **{name + "_factor": self.factors[name] for name in self.sampled},
            "operation_s_scaled": [self.op_s[place] for place in sorted(self.op_s)],
            "rows_per_s_traced": self.rates[True],
            "rows_per_s_untraced": self.rates[False],
        }

    def per_layer(self):
        out = self.tracer.metrics()
        traced = _median(self.rates[True])
        untraced = _median(self.rates[False])
        out["trace.rows_per_s_traced"] = (traced, "1/s")
        out["trace.rows_per_s_untraced"] = (untraced, "1/s")
        out["trace.overhead_pct"] = ((_ratio(untraced, traced) - 1.0) * 100.0, "%")
        return out


class TrainingWorkload(Workload):
    """Repeated ``train`` calls, each followed by ``evaluate`` on held-out rows.

    This is what ``mvtrust train`` does per trial (``run_experiment``),
    with the data split once in set-up.
    """

    def setup(self):
        for _ in range(self.scale.data_setups):
            self.calibrated(self._make_data)

    def _make_data(self):
        seconds, (self.train_ds, self.test_ds, _, self.stats) = _timed(
            lambda: acceptance_split(self.seed, self.scale.train_rows, self.scale.test_rows)
        )
        self.setup_s.append(seconds)

    def warm_up(self):
        self.checks.operation("warm-up", self._train_and_evaluate)

    def operation(self, index):
        return f"train {index}", self._train_and_evaluate

    def _train_and_evaluate(self):
        model, epochs, problems = self.train(self.train_ds)
        trained = TrainedModel(model, self.cfg, self.stats)
        evaluate_s = []
        for _ in range(self.scale.held_out_evaluates):
            seconds, report = _timed(lambda: pipeline.evaluate(trained, self.test_ds))
            problems += report_problems(report)
            evaluate_s.append(seconds)
        if problems:
            return None, problems
        self.evaluate_s.extend(evaluate_s)
        return self.train_ds.n_samples * epochs, []


class EvalSweepWorkload(Workload):
    """Noise sweep over a trained, saved and reloaded model.

    Set-up trains on 800 acceptance rows with batches of 32, which reaches
    the accuracy floor in a few seconds, and saves and loads the model; the
    evaluation rows are the held-out rows of the same synthesized dataset,
    standardized with the reloaded training statistics.  One operation is
    one sigma: ``inject_noise``, ``evaluate`` with the mask, and
    ``write_eval_report``; one round is every sigma once.
    """

    per_round = len(SIGMAS)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trained = None
        self.eval_ds = None
        self.report_digests = {}

    def setup(self):
        for _ in range(self.scale.model_setups):
            self.calibrated(lambda: self.setup_s.append(_timed(self._train_save_load)[0]))
        if self.trained is None:
            raise RuntimeError("eval-sweep set-up failed in every repeat")

    def _train_save_load(self):
        train_ds, _, test_raw, stats = acceptance_split(
            self.seed, self.scale.train_rows, self.scale.eval_rows
        )

        def train_checked():
            model, _, problems = self.train(train_ds)
            return model, problems

        model = self.checks.operation("set-up train", train_checked)
        if model is None:
            return
        path = self.work_dir / "model.npz"
        TrainedModel(model, self.cfg, stats).save(path)
        self.trained = TrainedModel.load(path)
        self.eval_ds = self.trained.prepare(test_raw)

    def warm_up(self):
        self.checks.operation("warm-up", lambda: self._sigma_step(0))

    def operation(self, index):
        k = index % len(SIGMAS)
        return f"round {index // len(SIGMAS)} sigma {SIGMAS[k]!r}", lambda: self._sigma_step(k)

    def _sigma_step(self, k):
        sigma = SIGMAS[k]
        if sigma == 0.0:
            ds, mask = self.eval_ds, None
        else:
            spec = data.CorruptionSpec("gaussian_noise", NOISE_FRACTION, sigma=sigma, seed=self.seed)
            ds, mask = data.inject_noise(self.eval_ds, spec)
        evaluate_s, report = _timed(lambda: pipeline.evaluate(self.trained, ds, mask))
        out = self.work_dir / "report"
        pipeline.write_eval_report(report, out, mask)
        problems = report_problems(report, self.scale.accuracy_floor if sigma == 0.0 else None)
        digest = digest_files(out)
        shutil.rmtree(out)
        if digest != self.report_digests.setdefault(k, digest):
            problems.append(f"report files for sigma {sigma!r} differ from the first round's")
        if problems:
            return None, problems
        self.evaluate_s.append(evaluate_s)
        return ds.n_samples, []


def run_workload(name, seed, seconds, trace, scale=Scale(), work_dir="."):
    """Run one workload; returns (Workload, metrics as name -> (value, unit))."""
    # The seed makes the inputs; the training configuration, its seed
    # included, stays the default one (see README, "Known defect").
    base = dataclasses.replace(TrainConfig(), epochs=scale.full_epochs)
    if name == "train-full":
        kind, cfg = TrainingWorkload, base
    elif name == "train-minibatch":
        kind = TrainingWorkload
        cfg = dataclasses.replace(base, epochs=scale.minibatch_epochs, batch_size=scale.batch_size)
    elif name == "eval-sweep":
        kind = EvalSweepWorkload
        cfg = dataclasses.replace(base, epochs=scale.sweep_epochs, batch_size=scale.batch_size)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    tracer = Tracer() if trace else None
    workload = kind(seed, seconds, tracer, scale, work_dir, cfg)
    workload.run()
    metrics = workload.per_layer() if trace else workload.end_to_end()
    return workload, metrics


# ---------------------------------------------------------------------------
# machine and settings


def git_commit(root):
    """Commit of the checkout from .git, without running git; 'unknown' if absent."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_name():
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        return "unknown"


def machine_info(root, seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(root),
        "seed": seed,
        "argv": sys.argv,
    }
