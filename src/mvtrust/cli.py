"""Command-line interface.

Subcommands: ``synth`` (write a synthetic dataset), ``train`` (fit a model
and save a checkpoint), ``eval`` (report metrics, uncertainty histograms,
and the conflict matrix, optionally under corruption), ``sweep`` (accuracy
vs noise level of a checkpoint), ``ablate`` (variant comparison under
identical seeds), and ``gradcheck`` (finite difference validation of every
loss).

Configuration comes from an optional JSON file whose keys mirror the
TrainConfig fields; individual flags override file values.  All outputs
are plain delimiter-separated rows plus a JSON run-metadata file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .data import (
    CorruptionSpec,
    inject_conflict,
    inject_noise,
    load_dataset,
    save_dataset,
    split,
    synthesize,
)
from .errors import ContractError, TrainingDiverged
from .schema import RULES, check, json_object, naming, read_text
from .pipeline import (
    TrainConfig,
    TrainedModel,
    ablate,
    evaluate,
    gradcheck_losses,
    run_experiment,
    run_noise_sweep,
    write_ablation,
    write_eval_report,
    write_run_meta,
    write_sweep,
    write_training_log,
)

# TrainConfig fields that have a flag, in flag order; schema.RULES gives each its rule
_CONFIG_FLAGS = ("subspace_dim", "gamma", "delta", "eta", "learning_rate", "weight_decay",
                 "epochs", "anneal_epochs", "batch_size", "seed", "train_fraction")


def _comma_list(kind):
    """argparse ``type=`` for comma-separated values; a bad token is a usage error."""

    def parse(text):
        return tuple(kind(tok) for tok in text.split(",") if tok)

    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse: "invalid <name> value"
    return parse


def _flag(key):
    """argparse ``type=`` that reads a flag as ``schema.RULES[key]``, comma-separated
    for a list rule; a rejection reads ``argument --<flag>: <key>: must be ...``."""
    rule = RULES[key]

    def parse(text):
        try:
            value = _comma_list(rule.kind)(text) if rule.each else rule.kind(text)
        except ValueError:
            value = text  # check rejects the text as it stands
        with naming(error=argparse.ArgumentTypeError):
            return check(key, value)

    return parse


def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON file with TrainConfig keys")
    for name in _CONFIG_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=_flag(name), dest=name)


def _build_config(args):
    flags = {name: getattr(args, name) for name in _CONFIG_FLAGS if getattr(args, name) is not None}
    if not args.config:
        return TrainConfig.from_dict(flags)
    with naming(args.config):
        return TrainConfig.from_dict({**json_object(read_text(args.config)), **flags})


def _cmd_synth(args):
    nuisance = args.nuisance[0] if len(args.nuisance) == 1 else args.nuisance
    ds = synthesize(args.classes, len(args.dims), args.samples, args.dims, seed=args.seed,
                    separation=args.separation, nuisance_ratio=nuisance)
    manifest = save_dataset(ds, args.out)
    print(f"wrote {ds.n_samples} samples x {ds.n_views} views to {manifest}")
    return 0


def _cmd_train(args):
    cfg = _build_config(args)
    ds = load_dataset(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    accuracies = []
    for trial in range(args.trials):
        trial_cfg = dataclasses.replace(cfg, seed=cfg.seed + trial)
        result = run_experiment(ds, trial_cfg)
        suffix = "" if args.trials == 1 else f"_trial{trial}"
        result.trained.save(out / f"checkpoint{suffix}.npz")
        write_training_log(result.log, out / f"training_log{suffix}.tsv")
        accuracies.append(result.report.accuracy)
        print(f"trial {trial}: test accuracy {result.report.accuracy:.4f}")
    write_run_meta(cfg, out / "run.meta", extras={
        "trials": args.trials, "test_accuracy": accuracies,
        "test_accuracy_mean": float(np.mean(accuracies)),
    })
    return 0


def _cmd_eval(args):
    noise, conflict = args.noise_sigma is not None, args.conflict_fraction is not None
    if args.noise_fraction is not None and not noise:
        raise ContractError("--noise-fraction needs --noise-sigma")
    if args.corrupt_views is not None and not (noise or conflict):
        raise ContractError("--corrupt-views needs --noise-sigma or --conflict-fraction")
    trained, test_ds = _scored_rows(args)
    mask, views = None, args.corrupt_views
    if noise:
        fraction = 0.1 if args.noise_fraction is None else args.noise_fraction
        spec = CorruptionSpec("gaussian_noise", fraction, sigma=args.noise_sigma,
                              views=views, seed=args.seed)
        test_ds, mask = inject_noise(test_ds, spec)
    elif conflict:
        spec = CorruptionSpec("view_misalign", args.conflict_fraction, views=views, seed=args.seed)
        test_ds, mask = inject_conflict(test_ds, spec)
    report = evaluate(trained, test_ds, mask)
    write_eval_report(report, args.out, mask)
    write_run_meta(trained.cfg, Path(args.out) / "run.meta", extras={"mode": "eval"})
    print(f"accuracy {report.accuracy:.4f} over {report.labels.size} instances")
    return 0


def _scored_rows(args):
    """The checkpoint, and the standardized rows it scores: all of them, or under
    --holdout the seeded test split of the checkpoint's config."""
    trained = TrainedModel.load(args.model)
    ds = trained.prepare(load_dataset(args.data))
    if args.holdout:
        ds = split(ds, trained.cfg.train_fraction, trained.cfg.seed)[1]
    return trained, ds


def _cmd_sweep(args):
    trained, test_ds = _scored_rows(args)
    rows = run_noise_sweep(trained, test_ds, args.sigmas, args.noise_fraction, args.corruption_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep(rows, out / "noise_sweep.tsv")
    write_run_meta(trained.cfg, out / "run.meta", extras={"mode": "sweep-noise"})
    for row in rows:
        print(f"sigma {row.sigma:g}: accuracy {row.accuracy:.4f}, mean u {row.mean_uncertainty:.4f}")
    return 0


def _cmd_ablate(args):
    cfg = _build_config(args)
    ds = load_dataset(args.data)
    rows = ablate(ds, cfg, args.switches)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ablation(rows, out / "ablation.tsv")
    write_run_meta(cfg, out / "run.meta", extras={"mode": "ablate", "switches": args.switches})
    for row in rows:
        print(f"{row.variant}: accuracy {row.accuracy:.4f} (delta {row.accuracy_delta:+.4f})")
    return 0


def _cmd_gradcheck(args):
    worst = gradcheck_losses(n_seeds=args.seeds)
    failed = False
    for name, err in worst.items():
        ok = err < args.tol  # NaN is no pass
        print(f"{name}\tmax_rel_error={err:.3e}\t{'ok' if ok else 'FAIL'}")
        failed = failed or not ok
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvtrust",
        description="Trusted multi-view classification with hierarchical opinion aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=_flag("n_classes"), default=4)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--dims", type=_flag("view_dims"), default="20,30,25",
                   help="comma-separated view widths")
    p.add_argument("--separation", type=_flag("separation"), default=2.5)
    p.add_argument("--nuisance", type=_comma_list(float), default="0.3",
                   help="nuisance column ratio: one for every view, or one per view")
    p.add_argument("--seed", type=_flag("seed"), default=0)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    p.add_argument("--data", required=True, help="path to manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=_flag("trials"), default=1)
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, optionally under corruption")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--holdout", action="store_true", help="evaluate only the seeded test split")
    corruption = p.add_mutually_exclusive_group()
    corruption.add_argument("--noise-sigma", type=_flag("sigma"), default=None)
    corruption.add_argument("--conflict-fraction", type=_flag("fraction"), default=None)
    p.add_argument("--noise-fraction", type=_flag("fraction"), default=None,
                   help="share of rows --noise-sigma corrupts (default 0.1)")
    p.add_argument("--corrupt-views", type=_flag("corrupt_views"), default=None,
                   help="comma-separated view indices of the corruption")
    p.add_argument("--seed", type=_flag("seed"), default=0)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sweep", help="noise sweep over a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--holdout", action="store_true")
    p.add_argument("--sigmas", type=_flag("sigmas"), default="0,1,10,100,10000")
    p.add_argument("--noise-fraction", type=_flag("fraction"), default=1.0)
    p.add_argument("--corruption-seed", type=_flag("seed"), default=0)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("ablate", help="train ablation variants under identical seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--switches", type=_comma_list(str), default="",
                   help="comma-separated variant names")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference validation of every loss")
    p.add_argument("--seeds", type=_flag("seeds"), default=20)
    p.add_argument("--tol", type=_flag("tol"), default=1e-4)
    p.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ContractError, TrainingDiverged, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
