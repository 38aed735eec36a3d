"""End-to-end training, evaluation, sweeps, and report files.

The training loop is full-batch by default (mini-batching is optional) and
rebuilds the graph every step: encode all views, average the common
representations, emit common/specific evidence capped by each view's
training support, fuse within views, attend across views, fuse into the
joint distribution, and minimize the combined objective with Adam.  The
discriminator trains on plain cross-entropy with frozen encoder inputs
while the encoders receive the confusion term with the discriminator
frozen, in the same optimizer step over disjoint parameters.

Everything written to disk is a pure function of (config, seed): no
timestamps, stable float formatting.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from . import autodiff as ad
from . import losses as L
from .aggregation import attend_batch
from .autodiff import Adam, Tensor, backward, grad_check
from .data import (
    CorruptionSpec,
    MultiViewDataset,
    StandardStats,
    inject_noise,
    split,
    standardize,
)
from .errors import ContractError, TrainingDiverged
from .networks import Model, ModelSpec
from .opinions import conflict_degree, evidence_to_opinion, fuse_evidence
from .schema import build, check, check_fields, check_object, naming

# ablation switch -> the TrainConfig fields it overrides
_ABLATIONS = {
    "no_h1": {"bypass_h1": True},
    "no_attention": {"uniform_attention": True},
    "no_common_loss": {"delta": 0.0},
    "no_specific_loss": {"eta": 0.0},
}
ABLATION_SWITCHES = tuple(_ABLATIONS)

HIST_BINS = 20


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of one run; ``schema.RULES`` says what each field holds."""

    subspace_dim: int = 64
    gamma: float = 1.0
    delta: float = 1.0
    eta: float = 0.01
    learning_rate: float = 3e-3
    weight_decay: float = 1e-5
    epochs: int = 200
    anneal_epochs: int = 50
    batch_size: int | None = None
    seed: int = 0
    train_fraction: float = 0.8
    bypass_h1: bool = False
    uniform_attention: bool = False
    disc_hidden: int = 64
    evidence_hidden: int = 64

    def __post_init__(self):
        check_fields(self)

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload):
        return build(cls, payload, optional=True)

    def config_hash(self):
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class ForwardBundle:
    """Graph nodes of one forward pass over a batch; stacks are view-major, C-ordered."""

    common_stack: Tensor        # (v, n, l)
    common_mean: Tensor         # (n, l)
    specific_views: list        # v tensors, (n, l)
    evidence_common: Tensor     # (n, q)
    evidence_specific: Tensor   # (v, n, q)
    evidence_fused: Tensor      # (v, n, q)
    attention: Tensor           # (n, v, v)
    evidence_attended: Tensor   # (v, n, q)
    evidence_joint: Tensor      # (n, q)


def forward_pass(model: Model, views, cfg: TrainConfig) -> ForwardBundle:
    """Run every stage up to the joint distribution on raw feature arrays.

    Evidence passes a support gate before any fusion: view i's specific
    evidence is multiplied by ``kappa_i = min(1, r_i / m_i(x))``, where
    ``m_i(x)`` is the row's mean squared feature and ``r_i`` the largest such
    value over the training rows (``Model.support_gate``).  The common
    evidence, which comes from the average of every view's code, is
    multiplied by the smallest ``kappa_i`` of the row.  ReLU networks grow
    evidence with the input norm far from the data, so without the gate a
    view drowned in noise would raise its certainty instead of losing it.
    The gate is exactly 1 on every training row, so training is unchanged.

    Heads, fusion and attention features run one view at a time and each is
    stacked once, so adjoints accumulate in the order of per-view terms.
    """
    n_views = len(views)
    arrays = [np.asarray(x, dtype=np.float64) for x in views]
    xs = [ad.lift(x) for x in arrays]
    common_stack = ad.stack([model.encode_common(xs[i], i) for i in range(n_views)])
    common_mean = common_stack.mean(axis=0)
    specific_views = [model.encode_specific(xs[i], i) for i in range(n_views)]

    kappa = model.support_gate(arrays)
    evidence_common = model.evidence_from_common(common_mean) * kappa.min(axis=1, keepdims=True)
    heads = [
        model.evidence_from_specific(specific_views[i], i) * kappa[:, i : i + 1]
        for i in range(n_views)
    ]
    evidence_specific = ad.stack(heads)
    if cfg.bypass_h1:
        evidence_fused = evidence_specific
    else:
        evidence_fused = ad.stack([fuse_evidence(evidence_common, e) for e in heads])

    attention, evidence_attended = attend_batch(
        ad.stack([common_mean + s for s in specific_views]),
        evidence_fused,
        model.w_query,
        model.w_key,
        model.w_value,
        uniform=cfg.uniform_attention,
    )
    joint = evidence_attended.mean(axis=0)
    return ForwardBundle(
        common_stack,
        common_mean,
        specific_views,
        evidence_common,
        evidence_specific,
        evidence_fused,
        attention,
        evidence_attended,
        joint,
    )


def one_hot(labels, n_classes):
    eye = np.eye(n_classes, dtype=np.float64)
    return eye[np.asarray(labels, dtype=np.int64)]


def training_objective(model, bundle: ForwardBundle, y, cfg: TrainConfig, lambda_t):
    """Total trainable scalar plus the logged term values, in ``LossBreakdown.TERMS`` order.

    The returned scalar adds the discriminator's plain cross-entropy (with
    encoder inputs detached) on top of the overall loss; the two touch
    disjoint parameters, so one backward pass drives both updates.
    """
    n_views, n, width = bundle.common_stack.shape
    # view-major rows: row i * n + j is sample j's common code from view i
    common_rows = bundle.common_stack.reshape((n_views * n, width))

    # adversarial split: D sees detached representations, encoders a frozen D
    z_rows = np.kron(np.eye(n_views), np.ones((n, 1)))
    own, confusion = model.discriminate(common_rows)
    disc_ce = L.cross_entropy(own, z_rows)
    adv = L.adv_loss(confusion, z_rows)

    cml = L.cml_loss(model.predict_common(common_rows), np.tile(y, (n_views, 1)))
    com = adv + cml
    spe = L.spe_loss(ad.stack(bundle.specific_views), bundle.common_mean)

    alpha_fused = bundle.evidence_fused + 1.0
    alpha_common = bundle.evidence_common + 1.0
    h1 = L.h1_loss(alpha_fused, alpha_common, bundle.evidence_specific + 1.0, y, cfg.gamma)

    con = L.con_loss(alpha_fused)
    alpha_joint = bundle.evidence_joint + 1.0
    h2 = L.h2_loss(alpha_joint, bundle.evidence_attended + 1.0, y, lambda_t, cfg.gamma, con)

    overall = L.overall_loss(h1, h2, com, spe, cfg.delta, cfg.eta)
    terms = [t.item() for t in (adv, cml, com, spe, h1, h2, con, overall)]
    return overall + disc_ce, terms


def _batches(n, batch_size, rng):
    if batch_size is None or batch_size >= n:
        return [np.arange(n)]
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def train(ds: MultiViewDataset, cfg: TrainConfig):
    """Train on an already standardized dataset; returns (model, log rows).

    The model's support radius is fitted on ``ds`` before the first step.
    """
    spec = ModelSpec(ds.view_dims, ds.n_classes, subspace_dim=cfg.subspace_dim, seed=cfg.seed,
                     disc_hidden=cfg.disc_hidden, evidence_hidden=cfg.evidence_hidden)
    model = Model(spec)
    model.fit_support(ds.views)
    optimizer = Adam(model.trainable_params(uniform_attention=cfg.uniform_attention),
                     lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    y = one_hot(ds.labels, ds.n_classes)
    rng = np.random.default_rng(cfg.seed)
    log_rows = []
    for epoch in range(cfg.epochs):
        lambda_t = L.lambda_schedule(epoch, cfg.anneal_epochs)
        rows, sizes = [], []
        for batch in _batches(ds.n_samples, cfg.batch_size, rng):
            views = [v[batch] for v in ds.views]
            rows.append(_step(model, optimizer, views, y[batch], cfg, lambda_t, epoch))
            sizes.append(batch.size)
        mean = np.average(rows, axis=0, weights=sizes).tolist()
        log_rows.append(L.LossBreakdown(*mean, lambda_t=lambda_t, epoch=epoch))
    return model, log_rows


# the ForwardBundle fields the losses read, in the order the forward pass makes them
_EVIDENCE_STAGES = ("evidence_common", "evidence_specific", "evidence_fused",
                    "evidence_attended", "evidence_joint")


def _step(model, optimizer, views, y, cfg, lambda_t, epoch):
    """One optimizer step on a batch; returns the logged term values.

    A non-finite evidence stage or loss term raises ``TrainingDiverged``.
    The step's graph is freed when this returns, before the next forward.
    """
    bundle = forward_pass(model, views, cfg)
    for stage in _EVIDENCE_STAGES:
        values = getattr(bundle, stage).data
        finite = np.isfinite(values)
        if not finite.all():
            bad = {stage: float(values[~finite][0])}
            raise TrainingDiverged(f"non-finite {stage} at epoch {epoch}: {bad}", terms=bad)
    objective, row = training_objective(model, bundle, y, cfg, lambda_t)
    if not np.isfinite(row).all():
        bad = {term: x for term, x in zip(L.LossBreakdown.TERMS, row) if not np.isfinite(x)}
        raise TrainingDiverged(f"non-finite loss at epoch {epoch}: {bad}", terms=bad)
    backward(objective)
    optimizer.step()
    return row


@dataclass
class TrainedModel:
    """A trained model plus everything needed to evaluate new data."""

    model: Model
    cfg: TrainConfig
    stats: StandardStats

    def prepare(self, ds: MultiViewDataset) -> MultiViewDataset:
        """Standardize raw features into the model's input space."""
        return self.stats.apply(ds)

    def save(self, path):
        meta = {"config": self.cfg.to_dict(), "config_hash": self.cfg.config_hash(),
                "stats": self.stats.to_jsonable()}
        self.model.save(path, extra_meta=meta)

    @classmethod
    def load(cls, path):
        model, meta = Model.load(path)
        with naming(path, "__meta__"):
            check_object(meta, ("config", "stats"))
            with naming("config"):
                cfg = TrainConfig.from_dict(meta["config"])
            with naming("stats"):
                stats = StandardStats.from_jsonable(meta["stats"], model.spec.view_dims)
        return cls(model, cfg, stats)


@dataclass
class EvalReport:
    """Per-instance uncertainty diagnostics plus aggregate metrics."""

    accuracy: float
    predictions: np.ndarray
    labels: np.ndarray
    joint_uncertainty: np.ndarray    # (n,)
    local_uncertainty: np.ndarray    # (n, v)
    attention: np.ndarray            # (n, v, v)
    conflict_matrix: np.ndarray      # (v, v), symmetric, zero diagonal
    corrupted: np.ndarray | None = None   # (n,) bool
    accuracy_clean: float | None = None
    accuracy_corrupted: float | None = None

    def uncertainty_histograms(self):
        """Binned mass rows (group, kind, lo, hi, mass); masses sum to 1 per group."""
        edges = np.linspace(0.0, 1.0, HIST_BINS + 1).tolist()
        groups = {"all": np.ones(self.labels.size, dtype=bool)}
        if self.corrupted is not None:
            groups["corrupted"] = self.corrupted
            groups["clean"] = ~self.corrupted
        rows = []
        for group, mask in groups.items():
            if not mask.any():
                continue
            for kind, values in (
                ("overall", self.joint_uncertainty[mask]),
                ("local", self.local_uncertainty[mask].ravel()),
            ):
                counts, _ = np.histogram(np.clip(values, 0.0, 1.0), bins=edges)
                mass = (counts / counts.sum()).tolist()
                for k in range(HIST_BINS):
                    rows.append((group, kind, edges[k], edges[k + 1], mass[k]))
        return rows


def evaluate(trained: TrainedModel, ds: MultiViewDataset, mask: np.ndarray | None = None):
    """Run the test path on standardized features and collect diagnostics.

    Never mutates parameters; repeated calls return identical reports.  The
    forward pass and the report code run under ``no_grad()``, so no graph
    holds their intermediates.
    """
    model, cfg = trained.model, trained.cfg
    if ds.view_dims != model.spec.view_dims:
        raise ContractError(f"dataset views {ds.view_dims} do not match model views "
                            f"{model.spec.view_dims}")
    if ds.n_classes != model.spec.n_classes:
        raise ContractError(f"dataset has {ds.n_classes} classes but the model has "
                            f"{model.spec.n_classes}")
    with ad.no_grad():
        bundle = forward_pass(model, ds.views, cfg)
        predictions = np.argmax(bundle.evidence_joint.data, axis=1)
        joint_u = evidence_to_opinion(bundle.evidence_joint)[1].data[:, 0]
        # (n, v, q) in C order: numpy sums a transposed view in memory order,
        # and the report's means would move in the last bit
        fused = np.ascontiguousarray(bundle.evidence_fused.data.swapaxes(0, 1))
        local_u = evidence_to_opinion(fused)[1].data[..., 0]
        attention = np.array(bundle.attention.data)

        # one conflict call over the unordered view pairs; filling both
        # triangles makes the matrix exactly symmetric with an exactly zero
        # diagonal
        p, r = np.triu_indices(ds.n_views, 1)
        pair_means = conflict_degree(fused[:, p], fused[:, r]).data[..., 0].mean(axis=0)
    conflict = np.zeros((ds.n_views, ds.n_views))
    conflict[p, r] = conflict[r, p] = pair_means

    correct = predictions == ds.labels
    report = EvalReport(
        accuracy=float(correct.mean()),
        predictions=predictions,
        labels=ds.labels.copy(),
        joint_uncertainty=joint_u,
        local_uncertainty=local_u,
        attention=attention,
        conflict_matrix=conflict,
    )
    if mask is not None:
        hit = mask.any(axis=1)
        report.corrupted = hit
        if hit.any():
            report.accuracy_corrupted = float(correct[hit].mean())
        if (~hit).any():
            report.accuracy_clean = float(correct[~hit].mean())
    return report


@dataclass
class ExperimentResult:
    trained: TrainedModel
    log: list
    report: EvalReport
    test_ds: MultiViewDataset


def run_experiment(ds: MultiViewDataset, cfg: TrainConfig) -> ExperimentResult:
    """Split, standardize, train, and evaluate on the held-out fraction."""
    train_raw, test_raw = split(ds, cfg.train_fraction, cfg.seed)
    train_std, test_std, stats = standardize(train_raw, test_raw)
    model, log_rows = train(train_std, cfg)
    trained = TrainedModel(model, cfg, stats)
    report = evaluate(trained, test_std)
    return ExperimentResult(trained, log_rows, report, test_std)


# ---------------------------------------------------------------------------
# sweeps and ablations


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    accuracy: float
    mean_uncertainty: float


def run_noise_sweep(trained: TrainedModel, test_ds: MultiViewDataset, sigmas, fraction, seed):
    """Evaluate per sigma on independently corrupted copies of the test set.

    Reusing one seed keeps the corrupted instances, views, and noise
    directions identical across sigma values, so only the scale varies.
    The fraction and seed are checked before the first evaluate, whatever
    the sigmas; a sigma is checked when its corruption is built.
    """
    check("fraction", fraction)
    check("seed", seed)
    rows = []
    for sigma in sigmas:
        if sigma == 0:
            report = evaluate(trained, test_ds)
        else:
            spec = CorruptionSpec("gaussian_noise", fraction, sigma=float(sigma), seed=seed)
            corrupted, mask = inject_noise(test_ds, spec)
            report = evaluate(trained, corrupted, mask)
        rows.append(SweepRow(float(sigma), report.accuracy, float(report.joint_uncertainty.mean())))
    return rows


def apply_switch(cfg: TrainConfig, switch):
    if switch not in _ABLATIONS:
        raise ContractError(f"unknown ablation switch {switch!r}; choose from {ABLATION_SWITCHES}")
    return dataclasses.replace(cfg, **_ABLATIONS[switch])


@dataclass(frozen=True)
class AblationRow:
    variant: str
    accuracy: float
    accuracy_delta: float


def ablate(ds: MultiViewDataset, cfg: TrainConfig, switches=()):
    """Train the full model and each switched variant under identical seeds."""
    # an unknown switch fails before the first model trains
    variants = [(switch, apply_switch(cfg, switch)) for switch in switches]
    baseline = run_experiment(ds, cfg)
    rows = [AblationRow("full", baseline.report.accuracy, 0.0)]
    for switch, variant_cfg in variants:
        result = run_experiment(ds, variant_cfg)
        delta = result.report.accuracy - baseline.report.accuracy
        rows.append(AblationRow(switch, result.report.accuracy, delta))
    return rows


# ---------------------------------------------------------------------------
# gradient checking of the loss stack


def gradcheck_losses(n_seeds=20, h=1e-5):
    """Max relative finite-difference error per loss over random small instances."""
    n, q, v, width = 3, 3, 2, 4
    worst = dict.fromkeys(("adv", "cml", "spe", "ace", "kl", "h1", "h2", "overall"), 0.0)
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(n * v, v)))
        z = one_hot(rng.integers(v, size=n * v), v)
        pred_logits = Tensor(rng.normal(size=(n * v, q)))
        y_tiled = one_hot(rng.integers(q, size=n * v), q)
        # a (v, n, .) draw equals v successive (n, .) draws: the checked values stay fixed
        specific = Tensor(rng.normal(size=(v, n, width)))
        common = Tensor(rng.normal(size=(n, width)))
        y = one_hot(rng.integers(q, size=n), q)
        e_main = Tensor(rng.uniform(0.1, 3.0, size=(n, q)))
        e_common = Tensor(rng.uniform(0.1, 3.0, size=(n, q)))
        e_specific = Tensor(rng.uniform(0.1, 3.0, size=(v, n, q)))
        e_att = Tensor(rng.uniform(0.1, 3.0, size=(v, n, q)))

        def adv():
            return L.adv_loss(logits.softmax_rows(), z)

        def cml():
            return L.cml_loss(pred_logits.sigmoid(), y_tiled)

        def spe():
            return L.spe_loss(specific, common)

        def fused():
            return fuse_evidence(e_common, e_specific)

        def h1():
            return L.h1_loss(fused() + 1.0, e_common + 1.0, e_specific + 1.0, y, 1.0)

        def h2():
            views = fused()
            joint = views.sum(axis=0) * (1.0 / v)
            return L.h2_loss(joint + 1.0, e_att + 1.0, y, 0.5, 1.0, L.con_loss(views + 1.0))

        def overall():
            return L.overall_loss(h1(), h2(), adv() + cml(), spe(), 1.0, 0.01)

        every_leaf = [logits, pred_logits, common, e_common, specific, e_specific, e_att]
        checks = {
            "adv": (adv, [logits]),
            "cml": (cml, [pred_logits]),
            "spe": (spe, [specific, common]),
            "ace": (lambda: L.ace_loss(e_main + 1.0, y), [e_main]),
            "kl": (lambda: L.kl_loss(e_main + 1.0, y), [e_main]),
            "h1": (h1, [e_common, e_specific]),
            "h2": (h2, [e_common, e_specific, e_att]),
            "overall": (overall, every_leaf),
        }
        for name, (fn, params) in checks.items():
            worst[name] = max(worst[name], grad_check(fn, params, h=h))
    return worst


# ---------------------------------------------------------------------------
# report files


# one formatter per native cell type: floats round-trip, booleans are 0/1
_CELL_FORMAT = {
    float: repr,
    int: str,
    bool: lambda flag: "1" if flag else "0",
    str: str,
    type(None): lambda _: "NA",
}


def _write_tsv(path, rows):
    """Write rows of native Python cells, tab-separated, one line per row."""
    lines = ["\t".join([_CELL_FORMAT[type(cell)](cell) for cell in row]) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_training_log(log_rows, path):
    fields = L.LossBreakdown.FIELDS
    rows = [(row.epoch, *[getattr(row, f) for f in fields]) for row in log_rows]
    _write_tsv(path, [("epoch", *fields), *rows])


def write_sweep(rows, path):
    _write_tsv(path, [("sigma", "accuracy", "mean_uncertainty"), *map(dataclasses.astuple, rows)])


def write_ablation(rows, path):
    _write_tsv(path, [("variant", "accuracy", "accuracy_delta"), *map(dataclasses.astuple, rows)])


def write_run_meta(cfg: TrainConfig, path, extras=None):
    versions = {"mvtrust": _pkg_version, "numpy": np.__version__,
                "python": platform.python_version()}
    payload = {"config": cfg.to_dict(), "config_hash": cfg.config_hash(), "seed": cfg.seed,
               "versions": versions}
    payload.update(extras or {})
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _record_rows(report: EvalReport):
    """Per-sample diagnostic rows: prediction, uncertainties, attention."""
    n, v = report.local_uncertainty.shape
    corrupted = report.corrupted if report.corrupted is not None else np.zeros(n, dtype=bool)
    header = ("index", "label", "prediction", "correct", "corrupted", "joint_u",
              *(f"local_u_{i}" for i in range(v)),
              *(f"attn_{p}_{r}" for p in range(v) for r in range(v)))
    columns = [
        range(n),
        report.labels.tolist(),
        report.predictions.tolist(),
        (report.predictions == report.labels).tolist(),
        corrupted.tolist(),
        report.joint_uncertainty.tolist(),
        *report.local_uncertainty.T.tolist(),
        *report.attention.reshape(n, v * v).T.tolist(),
    ]
    return [header, *zip(*columns)]


def write_eval_report(report: EvalReport, out_dir, mask=None):
    """Write metrics, uncertainty histograms, conflict matrix, per-sample records and mask."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    joint_u = report.joint_uncertainty
    tables = {
        "metrics.tsv": [
            ("n_test", report.labels.size),
            ("accuracy", report.accuracy),
            ("accuracy_clean", report.accuracy_clean),
            ("accuracy_corrupted", report.accuracy_corrupted),
            ("mean_joint_uncertainty", float(joint_u.mean())),
            ("median_joint_uncertainty", float(np.median(joint_u))),
            ("mean_local_uncertainty", float(report.local_uncertainty.mean())),
        ],
        "uncertainty_hist.tsv": [
            ("group", "kind", "bin_lo", "bin_hi", "mass"),
            *report.uncertainty_histograms(),
        ],
        "conflict_matrix.tsv": report.conflict_matrix.tolist(),
        "records.tsv": _record_rows(report),
    }
    if mask is not None:
        tables["corruption_mask.tsv"] = [("instance", "view"), *np.argwhere(mask).tolist()]
    for name, rows in tables.items():
        _write_tsv(out / name, rows)
