"""Slow independent references used only by the test suite.

None of these share code with the fast paths they check: special-function
values come from mpmath at 30 decimal digits, the loss loops use scipy's
digamma/gammaln and plain Python sums, Dirichlet KL is estimated by Monte
Carlo with stdlib lgamma densities, opinion fusion follows the paper's
opinion-level rules, and attention is evaluated one sample at a time.

The one exception is the last section, the composed graphs of the fused
loss and layer nodes.  They are references for bit-identity, not for the
formulas, so they are built from mvtrust's own engine, special functions
and opinion projections, with test-local digamma, log-gamma and abs nodes
and test-local activation nodes as ``Tensor`` wrote them before the
activations were shared with the fused layers.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import special as sp

from mvtrust import autodiff as ad
from mvtrust import special
from mvtrust.opinions import evidence_to_opinion, projected_probability

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
    return ad._node(special.digamma(a), (x,), (lambda g: g * special.trigamma(a),))


def lgamma_node(x):
    a = x.data
    return ad._node(special.lgamma(a), (x,), (lambda g: g * special.digamma(a),))


def abs_node(x):
    sign = np.sign(x.data)
    return ad._node(np.abs(x.data), (x,), (lambda g: g * sign,))


def composed_ace(alpha, y):
    alpha = ad.lift(alpha)
    strength = alpha.sum(axis=-1, keepdims=True)
    per_class = (digamma_node(strength) - digamma_node(alpha)) * y
    return per_class.sum(axis=-1).mean()


def composed_kl_uniform(alpha_tilde):
    alpha_tilde = ad.lift(alpha_tilde)
    q = alpha_tilde.shape[-1]
    strength = alpha_tilde.sum(axis=-1, keepdims=True)
    log_norm = lgamma_node(strength) - lgamma_node(alpha_tilde).sum(
        axis=-1, keepdims=True
    ) - float(special.lgamma(float(q)))
    gap = digamma_node(alpha_tilde) - digamma_node(strength)
    concentration = ((alpha_tilde - 1.0) * gap).sum(axis=-1, keepdims=True)
    return (log_norm + concentration).mean()


def composed_kl(alpha, y):
    alpha = ad.lift(alpha)
    return composed_kl_uniform(alpha * (1.0 - y) + y)


def composed_conflict(evidence_a, evidence_b):
    b_a, u_a = evidence_to_opinion(evidence_a)
    b_b, u_b = evidence_to_opinion(evidence_b)
    p_a = projected_probability(b_a, u_a)
    p_b = projected_probability(b_b, u_b)
    distance = abs_node(p_a - p_b).sum(axis=-1, keepdims=True) * 0.5
    certainty = (1.0 - u_a) * (1.0 - u_b)
    return distance * certainty


def relu_node(x):
    active = x.data > 0.0
    return ad._node(np.maximum(x.data, 0.0), (x,), (lambda g: g * active,))


def sigmoid_node(x):
    z = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    return ad._node(s, (x,), (lambda g: g * s * (1.0 - s),))


def softmax_rows_node(x):
    z = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    s = z / z.sum(axis=-1, keepdims=True)

    def adjoint(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (g - inner) * s

    return ad._node(s, (x,), (adjoint,))


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
