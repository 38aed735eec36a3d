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

# Rows per forward pass in ``evaluate``.  A (512, 64) float64 layer is
# 256 KiB, which stays in L2.  512 rows timed faster than 256 and as fast as
# 1,024, whose traced peak is nearly twice 512's (5,000 rows).  With
# OpenBLAS on x86-64, any block of 2 to 3,000 rows gives each row the same
# bits (it takes another GEMM path above about 3,000 rows, and another for
# one row), so a row's report does not depend on how many rows share its
# call.
EVAL_BLOCK_ROWS = 512


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
    disjoint parameters, so one backward pass drives both updates.  Each
    loss term is one graph node (see ``losses``); the common loss
    ``adv + cml`` is logged but lives inside ``overall_loss``'s node.
    """
    n_views, n, width = bundle.common_stack.shape
    # view-major rows: row i * n + j is sample j's common code from view i
    common_rows = bundle.common_stack.reshape((n_views * n, width))

    # adversarial split: D sees detached representations, encoders a frozen D
    z_rows = np.repeat(np.eye(n_views), n, axis=0)
    disc_ce, adv = L.discriminator_losses(*model.discriminate(common_rows), z_rows)

    cml = L.cml_loss(model.predict_common(common_rows), np.tile(y, (n_views, 1)))
    spe = L.spe_loss(ad.stack(bundle.specific_views), bundle.common_mean)

    # h1 and con both read the fused views' parameters, and their adjoints
    # must meet before they reach evidence_fused, which attention also
    # reads; so this shift stays a node, and the losses shift the rest
    alpha_fused = bundle.evidence_fused + 1.0
    h1 = L.h1_loss(alpha_fused, bundle.evidence_common, bundle.evidence_specific, y, cfg.gamma)
    con = L.con_loss(alpha_fused)
    h2 = L.h2_loss(bundle.evidence_joint, bundle.evidence_attended, y, lambda_t, cfg.gamma, con)

    overall = L.overall_loss(h1, h2, adv, cml, spe, cfg.delta, cfg.eta)
    adv_value, cml_value = adv.item(), cml.item()
    terms = [adv_value, cml_value, adv_value + cml_value,
             *(t.item() for t in (spe, h1, h2, con, overall))]
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
    spec = ModelSpec(ds.view_dims, ds.n_classes, subspace_dim=cfg.subspace_dim, seed=cfg.seed)
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
        """Read a ``save`` checkpoint, whose config must agree with its spec."""
        model, meta = Model.load(path)
        with naming(path, "__meta__"):
            check_object(meta, ("config", "stats"))
            with naming("config"):
                cfg = TrainConfig.from_dict(meta["config"])
                for key in ("seed", "subspace_dim"):  # the TrainConfig fields __spec__ holds
                    if getattr(cfg, key) != getattr(model.spec, key):
                        raise ContractError(f"{key}: {getattr(cfg, key)!r} disagrees with "
                                            f"__spec__, which holds {getattr(model.spec, key)!r}")
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


def _cell_mask(caller, mask, shape, owner):
    """``mask`` as a bool array of ``shape``, the (sample, view) cells of ``owner``."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ContractError(f"{caller}: mask must be a bool array, got dtype {mask.dtype}")
    if mask.shape != shape:
        raise ContractError(f"{caller}: mask has shape {mask.shape}, but the {owner} needs {shape}")
    return mask


def _row_blocks(n):
    """``(start, stop)`` of each consecutive block of ``EVAL_BLOCK_ROWS`` rows
    out of ``n``, with a one-row tail folded into the block before it."""
    bounds = [*range(0, n, EVAL_BLOCK_ROWS), n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def _report_rows(bundle: ForwardBundle, pairs):
    """One block's report rows: predictions, joint uncertainty ``(rows,)``,
    each view's local uncertainty ``(rows, v)``, attention ``(rows, v, v)``
    and the conflict of each view pair in ``pairs``, pair-major ``(pairs, rows)``.

    The report's means sum in memory order, so the layouts hold its last
    bits: the conflicts stay pair-major, so that ``evaluate`` sums each pair
    over n contiguously and pairwise, as over one pass's rows, and the local
    uncertainties are made C-ordered ``(rows, v)`` from the view-major
    ``(v, rows, q)`` fused evidence."""
    joint = bundle.evidence_joint.data
    fused = bundle.evidence_fused.data
    p, r = pairs
    return (np.argmax(joint, axis=1), evidence_to_opinion(joint)[1][:, 0],
            np.ascontiguousarray(evidence_to_opinion(fused)[1][..., 0].T),
            bundle.attention.data, conflict_degree(fused[p], fused[r])[..., 0])


def evaluate(trained: TrainedModel, ds: MultiViewDataset, mask: np.ndarray | None = None):
    """Run the test path on standardized features and collect diagnostics.

    Never mutates parameters; repeated calls return identical reports.  A
    ``mask`` marks the corrupted (sample, view) cells: a bool array (or
    nested list) shaped ``(ds.n_samples, ds.n_views)``.

    The forward pass runs under ``no_grad()``, once per consecutive block of
    ``EVAL_BLOCK_ROWS`` rows, and ``_report_rows`` reduces each block to its
    report rows, so the working set is bounded by the block, not by n.  No
    block has one row unless n is 1: a one-row tail joins the block before
    it, because a one-row matmul rounds differently from every larger
    block.  So a row gets the same bits in every call of two rows or more,
    and a call of up to ``EVAL_BLOCK_ROWS + 1`` rows is one block.  The
    reductions (accuracy, conflict means) run over all n rows at the end.
    """
    model, cfg = trained.model, trained.cfg
    if ds.view_dims != model.spec.view_dims:
        raise ContractError(f"dataset views {ds.view_dims} do not match model views "
                            f"{model.spec.view_dims}")
    if ds.n_classes != model.spec.n_classes:
        raise ContractError(f"dataset has {ds.n_classes} classes but the model has "
                            f"{model.spec.n_classes}")
    if ds.n_samples == 0:
        raise ContractError("evaluate: the dataset has no rows")
    if mask is not None:
        mask = _cell_mask("evaluate", mask, (ds.n_samples, ds.n_views), "dataset")
    p, r = np.triu_indices(ds.n_views, 1)   # the unordered view pairs
    with ad.no_grad():
        blocks = [_report_rows(forward_pass(model, [x[start:stop] for x in ds.views], cfg), (p, r))
                  for start, stop in _row_blocks(ds.n_samples)]
    *rows, conflict_rows = zip(*blocks)
    predictions, joint_u, local_u, attention = map(np.concatenate, rows)
    # both triangles filled: exactly symmetric, with an exactly zero diagonal
    conflict = np.zeros((ds.n_views, ds.n_views))
    conflict[p, r] = conflict[r, p] = np.concatenate(conflict_rows, axis=1).mean(axis=1)

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
    directions identical across sigma values, so only the scale varies;
    that is also why every sigma after the first is cheap: ``inject_noise``
    reuses the seeded draw it made for the first.
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
            return L.adv_loss(logits.activate(ad.SOFTMAX_ROWS), z)

        def cml():
            return L.cml_loss(pred_logits.activate(ad.SIGMOID), y_tiled)

        def spe():
            return L.spe_loss(specific, common)

        def fused():
            return fuse_evidence(e_common, e_specific)

        def h1():
            return L.h1_loss(fused() + 1.0, e_common, e_specific, y, 1.0)

        def h2():
            views = fused()
            joint = views.sum(axis=0) * (1.0 / v)
            return L.h2_loss(joint, e_att, y, 0.5, 1.0, L.con_loss(views + 1.0))

        def overall():
            return L.overall_loss(h1(), h2(), adv(), cml(), spe(), 1.0, 0.01)

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
    bool: ("0", "1").__getitem__,
    str: str,
    type(None): lambda _: "NA",
}


def _format_column(cells):
    """The formatted ``cells`` of one column: one ``map`` of a formatter when
    they share one type, else a lookup per cell (``metrics.tsv``'s values mix
    int, float and None)."""
    kinds = set(map(type, cells))
    if len(kinds) == 1:
        return map(_CELL_FORMAT[kinds.pop()], cells)
    return [_CELL_FORMAT[type(cell)](cell) for cell in cells]


def _write_tsv(path, header, columns):
    """Write a table of native Python cells, tab-separated, one line per row.

    ``header`` holds the column names (an empty one writes no header line)
    and ``columns`` the cells, one equal-length sequence per column.  Each
    column is formatted on its own and the rows are joined with ``zip``,
    so no row tuple of cells is ever built; every table the package writes
    goes through here.
    """
    lines = ["\t".join(header)] if header else []
    lines += map("\t".join, zip(*map(_format_column, columns)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_training_log(log_rows, path):
    fields = ("epoch", *L.LossBreakdown.FIELDS)
    _write_tsv(path, fields, [[getattr(row, f) for row in log_rows] for f in fields])


def write_sweep(rows, path):
    _write_tsv(path, ("sigma", "accuracy", "mean_uncertainty"),
               list(zip(*map(dataclasses.astuple, rows))))


def write_ablation(rows, path):
    _write_tsv(path, ("variant", "accuracy", "accuracy_delta"),
               list(zip(*map(dataclasses.astuple, rows))))


def write_run_meta(cfg: TrainConfig, path, extras=None):
    versions = {"mvtrust": _pkg_version, "numpy": np.__version__,
                "python": platform.python_version()}
    payload = {"config": cfg.to_dict(), "config_hash": cfg.config_hash(), "seed": cfg.seed,
               "versions": versions}
    payload.update(extras or {})
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _record_columns(report: EvalReport):
    """Header and columns of the per-sample diagnostics: prediction, uncertainties, attention."""
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
    return header, columns


def write_eval_report(report: EvalReport, out_dir, mask=None):
    """Write metrics, uncertainty histograms, conflict matrix, per-sample records and mask.

    A ``mask`` must be the one the report was evaluated with: a bool array
    (or nested list) of the report's ``(n, v)`` shape whose hit rows are the
    report's ``corrupted`` rows.  Any other mask is refused with a
    ``ContractError`` before ``out_dir`` is made, so that ``records.tsv``
    and ``corruption_mask.tsv`` never disagree.  Every table goes through
    ``_write_tsv``, a column at a time.
    """
    if mask is not None:
        mask = _cell_mask("write_eval_report", mask, report.local_uncertainty.shape, "report")
        if report.corrupted is None:
            raise ContractError("write_eval_report: the report was evaluated without a mask")
        differs = np.flatnonzero(mask.any(axis=1) != report.corrupted)
        if differs.size:
            row = int(differs[0])
            hit = bool(report.corrupted[row])
            raise ContractError(f"write_eval_report: row {row} is "
                                f"{'corrupted' if hit else 'clean'} in the report but "
                                f"{'clean' if hit else 'hit'} in the mask")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    joint_u = report.joint_uncertainty
    metrics = {
        "n_test": report.labels.size,
        "accuracy": report.accuracy,
        "accuracy_clean": report.accuracy_clean,
        "accuracy_corrupted": report.accuracy_corrupted,
        "mean_joint_uncertainty": float(joint_u.mean()),
        "median_joint_uncertainty": float(np.median(joint_u)),
        "mean_local_uncertainty": float(report.local_uncertainty.mean()),
    }
    tables = {
        "metrics.tsv": ((), [list(metrics), list(metrics.values())]),
        "uncertainty_hist.tsv": (("group", "kind", "bin_lo", "bin_hi", "mass"),
                                 list(zip(*report.uncertainty_histograms()))),
        "conflict_matrix.tsv": ((), report.conflict_matrix.T.tolist()),
        "records.tsv": _record_columns(report),
    }
    if mask is not None:
        tables["corruption_mask.tsv"] = (("instance", "view"), np.argwhere(mask).T.tolist())
    for name, (header, columns) in tables.items():
        _write_tsv(out / name, header, columns)
