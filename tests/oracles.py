"""Slow independent references used only by the test suite.

None of these share code with the fast paths they check: special-function
values come from mpmath at 30 decimal digits, the loss loops use scipy's
digamma/gammaln and plain Python sums, Dirichlet KL is estimated by Monte
Carlo with stdlib lgamma densities, opinion fusion follows the paper's
opinion-level rules, and attention is evaluated one sample at a time.

The one exception is the last section, the composed graphs of the fused
loss, objective and layer nodes.  They are references for bit-identity,
not for the formulas, so they are built from mvtrust's own engine and
special functions, with test-local digamma, log-gamma, abs, exp, log,
clamp, negation and subtraction nodes, the opinion formulas written as
``Tensor`` ops, and test-local activation nodes as ``Tensor`` wrote them
before the activations were shared with the fused layers.
``conflict_node`` wraps ``opinions.conflict_arrays`` in one node over its
two arguments, so that its vjp can be checked.  ``composed_objective``
is the training objective as one node per elementary op, the graph that
``pipeline.training_objective`` replaces.
``PerArrayAdam`` is likewise ``autodiff.Adam`` as it was written before it
packed its parameters into one buffer, the reference for its bit-identity,
and ``reference_backward`` is ``autodiff.backward`` as it was written
before it kept fresh first adjoints and freed interior ones.
``per_cell_eval_report`` writes the report files as ``pipeline`` wrote
them before it formatted a column at a time, and ``per_row_corrupt`` is
the corruption loop as ``data`` ran it before it added noise in bulk: the
references for their byte- and bit-identity.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
from scipy import special as sp

from mvtrust import autodiff as ad
from mvtrust import special
from mvtrust.losses import _PROB_FLOOR
from mvtrust.opinions import conflict_arrays

mpmath.mp.dps = 30


@dataclass
class OracleReport:
    case_id: str
    reference: float
    fast: float
    tolerance: float

    @property
    def abs_error(self):
        return abs(self.reference - self.fast)

    @property
    def rel_error(self):
        scale = max(abs(self.reference), abs(self.fast), 1e-300)
        return self.abs_error / scale

    @property
    def passed(self):
        return self.abs_error <= self.tolerance


def reference_digamma(x):
    return float(mpmath.digamma(x))


def reference_trigamma(x):
    return float(mpmath.polygamma(1, x))


def reference_lgamma(x):
    return float(mpmath.loggamma(x))


def mc_dirichlet_kl(alpha_tilde, n_samples, seed):
    """Monte Carlo estimate of KL[Dir(alpha_tilde) || Dir(1)] with its SE."""
    alpha = np.asarray(alpha_tilde, dtype=np.float64)
    q = alpha.size
    rng = np.random.default_rng(seed)
    samples = rng.dirichlet(alpha, size=n_samples)
    samples = np.clip(samples, 1e-300, None)
    const = (
        math.lgamma(alpha.sum())
        - sum(math.lgamma(a) for a in alpha)
        - math.lgamma(q)
    )
    log_ratio = const + ((alpha - 1.0) * np.log(samples)).sum(axis=1)
    return float(log_ratio.mean()), float(log_ratio.std(ddof=1) / np.sqrt(n_samples))


# ---------------------------------------------------------------------------
# opinion-level references


def opinion_from_evidence(e):
    e = np.asarray(e, dtype=np.float64)
    q = e.size
    strength = e.sum() + q
    return e / strength, q / strength


def evidence_from_opinion(beliefs, uncertainty):
    """Invert opinion_from_evidence; undefined at u = 0."""
    return np.asarray(beliefs) * (len(beliefs) / uncertainty)


def aggregate_pair(a, b):
    """Uncertainty-weighted fusion of two (beliefs, uncertainty) opinions."""
    (b_a, u_a), (b_b, u_b) = a, b
    u_sum = u_a + u_b
    return (b_a * u_b + b_b * u_a) / u_sum, 2.0 * u_a * u_b / u_sum


def aggregate_all(opinions):
    """Joint opinion from the exactly rounded mean of the recovered evidence,
    so the result does not depend on the order of the inputs."""
    if len(opinions) == 1:
        return opinions[0]
    evidences = [evidence_from_opinion(b, u) for b, u in opinions]
    mean_e = np.array([math.fsum(col) / len(evidences) for col in zip(*evidences)])
    return opinion_from_evidence(mean_e)


def naive_conflict(alpha_a, alpha_b):
    """Conflict degree from Dirichlet parameters, one sample at a time."""
    b_a, u_a = opinion_from_evidence(np.asarray(alpha_a, dtype=np.float64) - 1.0)
    b_b, u_b = opinion_from_evidence(np.asarray(alpha_b, dtype=np.float64) - 1.0)
    q = len(b_a)
    p_a = b_a + u_a / q
    p_b = b_b + u_b / q
    pd = 0.5 * sum(abs(p_a[k] - p_b[k]) for k in range(q))
    cc = (1.0 - u_a) * (1.0 - u_b)
    return pd * cc


def attend(features, evidence, w_query, w_key, w_value, eps, view):
    """One sample's attention for ``view``'s query, where rows of ``features``
    and ``evidence`` are views: (weights over views, attended evidence)."""
    scores = ((w_query @ features) @ (w_key @ features).T)[view] / np.sqrt(features.shape[1])
    positive = np.maximum(scores, 0.0) + eps
    weights = positive / positive.sum()
    return weights, np.maximum(weights @ (w_value @ evidence), 0.0)


# ---------------------------------------------------------------------------
# loss loops (straight transcriptions, no vectorization)


def naive_ace(alpha, y):
    alpha = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, q = alpha.shape
    total = 0.0
    for j in range(n):
        strength = alpha[j].sum()
        for k in range(q):
            total += y[j, k] * (sp.digamma(strength) - sp.digamma(alpha[j, k]))
    return total / n


def naive_kl(alpha, y):
    alpha = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, q = alpha.shape
    total = 0.0
    for j in range(n):
        masked = y[j] + (1.0 - y[j]) * alpha[j]
        strength = masked.sum()
        value = sp.gammaln(strength) - sp.gammaln(float(q))
        for k in range(q):
            value -= sp.gammaln(masked[k])
            value += (masked[k] - 1.0) * (sp.digamma(masked[k]) - sp.digamma(strength))
        total += value
    return total / n


def naive_acc(alpha, y, lam):
    return naive_ace(alpha, y) + lam * naive_kl(alpha, y)


def naive_h1(alpha_views, alpha_common, alpha_specific, y, gamma):
    n_views = len(alpha_views)
    n = np.asarray(y).shape[0]
    total = 0.0
    for i in range(n_views):
        total += naive_ace(alpha_views[i], y)
        total += naive_ace(alpha_common, y)
        total += naive_ace(alpha_specific[i], y)
        conflict = 0.0
        for j in range(n):
            conflict += naive_conflict(alpha_common[j], alpha_specific[i][j])
        total += gamma * conflict / n
    return total / n_views


def naive_con(alpha_views):
    n_views = len(alpha_views)
    if n_views < 2:
        return 0.0
    n = np.asarray(alpha_views[0]).shape[0]
    total = 0.0
    for p in range(n_views):
        for r in range(n_views):
            if r == p:
                continue
            pair = 0.0
            for j in range(n):
                pair += naive_conflict(alpha_views[p][j], alpha_views[r][j])
            total += pair / n
    return total / (n_views - 1)


def naive_h2(alpha_joint, alpha_attended, alpha_views, y, lam, gamma):
    total = naive_acc(alpha_joint, y, lam)
    for alpha_hat in alpha_attended:
        total += naive_acc(alpha_hat, y, lam)
    return total + gamma * naive_con(alpha_views)


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for j in range(x.size):
        bumped = x.copy()
        bumped.flat[j] += h
        f_plus = f(bumped)
        bumped.flat[j] -= 2 * h
        f_minus = f(bumped)
        grad.flat[j] = (f_plus - f_minus) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# composed graphs of the fused nodes: one engine node per elementary op


def digamma_node(x):
    a = x.data
    return ad.fused(special.digamma(a), (x,), lambda g: (g * special.trigamma(a),))


def lgamma_node(x):
    a = x.data
    return ad.fused(special.lgamma(a), (x,), lambda g: (g * special.digamma(a),))


def abs_node(x):
    sign = np.sign(x.data)
    return ad.fused(np.abs(x.data), (x,), lambda g: (g * sign,))


def exp_node(x):
    value = np.exp(x.data)
    return ad.fused(value, (x,), lambda g: (g * value,))


def log_node(x):
    a = x.data
    return ad.fused(np.log(a), (x,), lambda g: (g / a,))


def clamp_node(x, lo=None, hi=None):
    passthrough = np.ones_like(x.data, dtype=bool)
    if lo is not None:
        passthrough &= x.data > lo
    if hi is not None:
        passthrough &= x.data < hi
    return ad.fused(np.clip(x.data, lo, hi), (x,), lambda g: (g * passthrough,))


def neg_node(x):
    return ad.fused(-x.data, (x,), lambda g: (-g,))


def sub_node(a, b):
    a, b = ad.lift(a), ad.lift(b)
    # as the Tensor ops do, each entry is summed back to its operand's shape
    return ad.fused(a.data - b.data, (a, b),
                    lambda g: (ad.unbroadcast(g, a.shape), ad.unbroadcast(-g, b.shape)))


def composed_ace(alpha, y):
    alpha = ad.lift(alpha)
    strength = alpha.sum(axis=-1, keepdims=True)
    per_class = sub_node(digamma_node(strength), digamma_node(alpha)) * y
    return per_class.sum(axis=-1).mean()


def composed_kl_uniform(alpha_tilde):
    alpha_tilde = ad.lift(alpha_tilde)
    q = alpha_tilde.shape[-1]
    strength = alpha_tilde.sum(axis=-1, keepdims=True)
    log_norm = sub_node(
        sub_node(lgamma_node(strength), lgamma_node(alpha_tilde).sum(axis=-1, keepdims=True)),
        float(special.lgamma(float(q))),
    )
    gap = sub_node(digamma_node(alpha_tilde), digamma_node(strength))
    concentration = (sub_node(alpha_tilde, 1.0) * gap).sum(axis=-1, keepdims=True)
    return (log_norm + concentration).mean()


def composed_kl(alpha, y):
    alpha = ad.lift(alpha)
    return composed_kl_uniform(alpha * (1.0 - y) + y)


def composed_opinion(evidence):
    """The projected probabilities and uncertainty of ``(..., q)`` evidence,
    as the elementwise nodes of the opinion formulas."""
    evidence = ad.lift(evidence)
    q = evidence.shape[-1]
    strength = evidence.sum(axis=-1, keepdims=True) + float(q)
    beliefs, uncertainty = evidence / strength, ad.lift(float(q)) / strength
    return beliefs + uncertainty * (1.0 / q), uncertainty


def composed_conflict(evidence_a, evidence_b):
    p_a, u_a = composed_opinion(evidence_a)
    p_b, u_b = composed_opinion(evidence_b)
    distance = abs_node(sub_node(p_a, p_b)).sum(axis=-1, keepdims=True) * 0.5
    certainty = sub_node(1.0, u_a) * sub_node(1.0, u_b)
    return distance * certainty


def conflict_node(evidence_a, evidence_b):
    """``opinions.conflict_arrays`` as one node over ``(a, b)``, so that its
    vjp can be checked against ``composed_conflict``."""
    evidence_a, evidence_b = ad.lift(evidence_a), ad.lift(evidence_b)
    value, vjp = conflict_arrays(evidence_a.data, evidence_b.data)
    return ad.fused(value, (evidence_a, evidence_b), vjp)


def composed_cross_entropy(probs, onehot):
    picked = (log_node(clamp_node(ad.lift(probs), lo=_PROB_FLOOR)) * onehot).sum(axis=-1)
    return neg_node(picked.mean())


def composed_adv(z_hat, z):
    return exp_node(neg_node(composed_cross_entropy(z_hat, z)))


def composed_cml(y_hat, y):
    clipped = clamp_node(ad.lift(y_hat), lo=_PROB_FLOOR, hi=1.0 - _PROB_FLOOR)
    term = log_node(clipped) * y + log_node(sub_node(1.0, clipped)) * (1.0 - y)
    return neg_node(term.mean())


def composed_spe(specific, common):
    inner = (ad.lift(specific) * common).sum(axis=-1)
    return (inner * inner).mean() * float(specific.shape[0])


def composed_acc(alpha, y, lambda_t):
    return composed_ace(alpha, y) + ad.lift(lambda_t) * composed_kl(alpha, y)


def composed_h1(alpha_views, alpha_common, alpha_specific, y, gamma):
    total = (composed_ace(alpha_views, y) + composed_ace(alpha_common, y)
             + composed_ace(alpha_specific, y))
    conflict = composed_conflict(sub_node(alpha_common, 1.0), sub_node(alpha_specific, 1.0))
    return total + ad.lift(gamma) * conflict.mean()


def composed_con(alpha_views):
    n_views = alpha_views.shape[0]
    if n_views < 2:
        return ad.lift(0.0)
    evidence = sub_node(alpha_views, 1.0)
    rest = evidence.shape[1:]
    pairs = composed_conflict(evidence.reshape((n_views, 1, *rest)),
                              evidence.reshape((1, n_views, *rest)))
    return pairs.mean() * (n_views * n_views / (n_views - 1))


def composed_h2(alpha_joint, alpha_attended, y, lambda_t, gamma, conflict):
    attended = composed_acc(alpha_attended, y, lambda_t) * float(alpha_attended.shape[0])
    return composed_acc(alpha_joint, y, lambda_t) + attended + ad.lift(gamma) * conflict


def composed_overall(h1, h2, com, spe, delta, eta):
    return h1 + h2 + ad.lift(delta) * com + ad.lift(eta) * spe


def composed_objective(model, bundle, y, cfg, lambda_t):
    """``training_objective`` with every loss term and shift composed of
    elementary nodes, over the Dirichlet parameters as it was written."""
    n_views, n, width = bundle.common_stack.shape
    common_rows = bundle.common_stack.reshape((n_views * n, width))
    z_rows = np.kron(np.eye(n_views), np.ones((n, 1)))
    own, confusion = model.discriminate(common_rows)
    disc_ce = composed_cross_entropy(own, z_rows)
    adv = composed_adv(confusion, z_rows)
    cml = composed_cml(model.predict_common(common_rows), np.tile(y, (n_views, 1)))
    com = adv + cml
    spe = composed_spe(ad.stack(bundle.specific_views), bundle.common_mean)
    alpha_fused = bundle.evidence_fused + 1.0
    alpha_common = bundle.evidence_common + 1.0
    h1 = composed_h1(alpha_fused, alpha_common, bundle.evidence_specific + 1.0, y, cfg.gamma)
    con = composed_con(alpha_fused)
    alpha_joint = bundle.evidence_joint + 1.0
    h2 = composed_h2(alpha_joint, bundle.evidence_attended + 1.0, y, lambda_t, cfg.gamma, con)
    overall = composed_overall(h1, h2, com, spe, cfg.delta, cfg.eta)
    terms = [t.item() for t in (adv, cml, com, spe, h1, h2, con, overall)]
    return overall + disc_ce, terms


def relu_node(x):
    active = x.data > 0.0
    return ad.fused(np.maximum(x.data, 0.0), (x,), lambda g: (g * active,))


def sigmoid_node(x):
    z = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    return ad.fused(s, (x,), lambda g: (g * s * (1.0 - s),))


def softmax_rows_node(x):
    z = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    s = z / z.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return ((g - inner) * s,)

    return ad.fused(s, (x,), vjp)


def composed_dense(x, weights, biases, output):
    """Matmul, bias-add and activation nodes per layer: ReLU on hidden layers,
    ``output`` (one of the nodes above) on the last."""
    h = ad.lift(x)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        h = output(h) if i == last else relu_node(h)
    return h


def composed_discriminate(c, weights, biases, output):
    """The two passes the discriminator ran before they shared one: on detached
    codes with live parameters, and on live codes with detached parameters."""
    own = composed_dense(c.detach(), weights, biases, output)
    frozen = [p.detach() for p in weights], [p.detach() for p in biases]
    return own, composed_dense(c, *frozen, output)


# ---------------------------------------------------------------------------
# the optimizer, one array at a time


class PerArrayAdam:
    """``autodiff.Adam`` with a moment pair per parameter array and one
    expression per update, as it was written before the flat buffer."""

    def __init__(self, params, lr=1e-3, weight_decay=1e-5):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.moment1 = [np.zeros_like(p.data) for p in self.params]
        self.moment2 = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        b1, b2 = ad.ADAM_BETAS
        corr1 = 1.0 - b1 ** self.step_count
        corr2 = 1.0 - b2 ** self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            self.moment1[i] = b1 * self.moment1[i] + (1.0 - b1) * g
            self.moment2[i] = b2 * self.moment2[i] + (1.0 - b2) * g * g
            m_hat = self.moment1[i] / corr1
            v_hat = self.moment2[i] / corr2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + ad.ADAM_EPS) + self.weight_decay * p.data)
        ad.zero_grads(self.params)


# ---------------------------------------------------------------------------
# the backward walk that copies every first adjoint


def reference_backward(root):
    """``autodiff.backward`` as it was written before it freed interior
    adjoints: every first adjoint is copied into
    ``np.empty_like`` of the node's value, later ones are added in with
    ``+=``, and every node reached keeps its ``grad``."""
    topo, visited, todo = [], set(), [(root, False)]
    while todo:
        node, processed = todo.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._parents:
            todo.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                todo.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        for parent, adjoint in zip(node._parents, node._vjp(node.grad)):
            if not parent.requires_grad:
                continue
            adjoint = ad.unbroadcast(adjoint, parent.data.shape)
            if parent.grad is None:
                parent.grad = np.empty_like(parent.data)
                parent.grad[...] = adjoint
            else:
                parent.grad += adjoint


# ---------------------------------------------------------------------------
# report files, one cell at a time, and corruption, one row at a time

_CELL_FORMAT = {
    float: repr,
    int: str,
    bool: lambda flag: "1" if flag else "0",
    str: str,
    type(None): lambda _: "NA",
}


def per_cell_write_tsv(path, rows):
    """One line per row tuple, each cell formatted by a lookup on its type."""
    lines = ["\t".join([_CELL_FORMAT[type(cell)](cell) for cell in row]) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def per_cell_eval_report(report, out_dir, mask=None):
    """The files of ``pipeline.write_eval_report``, each table built as row
    tuples and written by ``per_cell_write_tsv``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n, v = report.local_uncertainty.shape
    corrupted = report.corrupted if report.corrupted is not None else np.zeros(n, dtype=bool)
    records = zip(range(n), report.labels.tolist(), report.predictions.tolist(),
                  (report.predictions == report.labels).tolist(), corrupted.tolist(),
                  report.joint_uncertainty.tolist(), *report.local_uncertainty.T.tolist(),
                  *report.attention.reshape(n, v * v).T.tolist())
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
        "uncertainty_hist.tsv": [("group", "kind", "bin_lo", "bin_hi", "mass"),
                                 *report.uncertainty_histograms()],
        "conflict_matrix.tsv": report.conflict_matrix.tolist(),
        "records.tsv": [("index", "label", "prediction", "correct", "corrupted", "joint_u",
                         *(f"local_u_{i}" for i in range(v)),
                         *(f"attn_{p}_{r}" for p in range(v) for r in range(v))), *records],
    }
    if mask is not None:
        tables["corruption_mask.tsv"] = [("instance", "view"), *np.argwhere(mask).tolist()]
    for name, rows in tables.items():
        per_cell_write_tsv(out / name, rows)


def per_row_corrupt(ds, spec):
    """``data.inject_noise`` or ``data.inject_conflict``, writing each selected
    row's noise or donor row into the copied views as soon as it is drawn.
    Returns the corrupted views and the (n, v) bool mask."""
    rng = np.random.default_rng(spec.seed)
    n, v = ds.n_samples, ds.n_views
    views = [x.copy() for x in ds.views]
    mask = np.zeros((n, v), dtype=bool)
    donors = [np.flatnonzero(ds.labels != c) for c in range(ds.n_classes)]
    for j in np.sort(rng.choice(n, size=round(spec.fraction * n), replace=False)).tolist():
        if spec.kind == "view_misalign":
            i = int(rng.integers(v) if spec.views is None else rng.choice(spec.views))
            views[i][j] = ds.views[i][int(rng.choice(donors[ds.labels[j]]))]
            mask[j, i] = True
            continue
        targets = spec.views
        if targets is None:
            targets = sorted(rng.choice(v, (v + 1) // 2, replace=False).tolist())
        for i in targets:
            views[i][j] += spec.sigma * rng.standard_normal(views[i].shape[1])
            mask[j, i] = True
    return views, mask
