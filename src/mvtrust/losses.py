"""Differentiable training objectives.

Composition: an adversarial confusion term and a per-view prediction term
supervise the common subspace; an orthogonality penalty shapes the
specific representations; evidential cross-entropy terms (with an annealed
KL regularizer toward the uniform Dirichlet) drive both aggregation
levels; and conflict-degree penalties discourage contradictory opinions
within and across views.  Every function builds a scalar graph node, so
gradients flow back to whatever leaves produced the inputs.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import special
from .errors import ContractError
from .opinions import conflict_degree
from .schema import check
from .special import lgamma as _lgamma_value

log = logging.getLogger(__name__)

_PROB_FLOOR = 1e-12


@dataclass
class LossBreakdown:
    """Scalar loss terms for one epoch, as logged to the training log."""

    adv: float
    cml: float
    com: float
    spe: float
    h1: float
    h2: float
    con: float
    overall: float
    lambda_t: float
    epoch: int

    TERMS = ("adv", "cml", "com", "spe", "h1", "h2", "con", "overall")
    FIELDS = (*TERMS, "lambda_t")

    def finite(self):
        return all(np.isfinite(getattr(self, f)) for f in self.FIELDS)


def lambda_schedule(epoch, anneal_epochs):
    """Annealing coefficient ramping linearly from 0 to 1."""
    return min(1.0, epoch / check("anneal_epochs", anneal_epochs))


# ---------------------------------------------------------------------------
# common / specific subspace losses


def cross_entropy(probs, onehot):
    """Mean categorical cross-entropy over rows; probabilities are floored."""
    probs = ad.lift(probs)
    if np.any(probs.data <= 0.0):
        clamped = int((probs.data <= _PROB_FLOOR).sum())
        log.warning("cross_entropy: flooring %d non-positive probabilities", clamped)
    picked = (probs.clamp(lo=_PROB_FLOOR).log() * onehot).sum(axis=-1)
    return -picked.mean()


def adv_loss(z_hat, z):
    """Confusion objective exp(-CE) in (0, 1]; 1 means a perfect discriminator.

    ``z_hat`` holds row-softmax view probabilities for every (sample, view)
    pair and ``z`` the matching one-hot view labels.  The cross-entropy is
    averaged over rows before the exponential so the value stays in a
    usable floating-point range for any batch size.
    """
    return (-cross_entropy(z_hat, z)).exp()


def cml_loss(y_hat, y):
    """Mean per-class binary cross-entropy of the common prediction head."""
    y_hat = ad.lift(y_hat)
    clipped = y_hat.clamp(lo=_PROB_FLOOR, hi=1.0 - _PROB_FLOOR)
    term = clipped.log() * y + (1.0 - clipped).log() * (1.0 - y)
    return -term.mean()


def spe_loss(specific, common):
    """Squared per-sample inner products between each specific vector of the
    (v, n, l) stack and the mean common vector, summed over views and
    averaged over the batch."""
    if specific.shape[-1] != common.shape[-1]:
        raise ContractError(
            f"spe_loss: specific width {specific.shape[-1]} != common width {common.shape[-1]}"
        )
    inner = (specific * common).sum(axis=-1)
    return (inner * inner).mean() * float(specific.shape[0])


# ---------------------------------------------------------------------------
# evidential classification losses


def _check_alpha(alpha):
    if np.any(alpha.data < 1.0 - 1e-12):
        raise ContractError("Dirichlet parameters must satisfy alpha_k >= 1")


def ace_loss(alpha, y):
    """Evidential cross-entropy: sum_k y_k (psi(S) - psi(alpha_k)), batch mean.

    One graph node over the parent entries ``(alpha, alpha)``: the strength
    path, then the psi(alpha) path.  Value and adjoints are bit-identical
    to the graph of ``sum``, ``digamma``, ``-``, ``* y``, ``sum`` and
    ``mean`` nodes that computes the formula.
    """
    alpha = ad.lift(alpha)
    _check_alpha(alpha)
    a, y = alpha.data, np.asarray(y, dtype=np.float64)
    q = a.shape[-1]
    strength = a.sum(axis=-1, keepdims=True)
    psi, psi1 = special.polygamma_pass(np.concatenate([a, strength], axis=-1))
    per_class = (psi[..., q:] - psi[..., :q]) * y
    rows = per_class.sum(axis=-1)
    count = max(rows.size, 1)

    def vjp(g):
        g_rows = np.expand_dims(np.broadcast_to(g, rows.shape) / count, -1)
        g_difference = ad.unbroadcast(np.broadcast_to(g_rows, per_class.shape) * y, a.shape)
        g_strength = ad.unbroadcast(g_difference, strength.shape) * psi1[..., q:]
        return np.broadcast_to(g_strength, a.shape), -g_difference * psi1[..., :q]

    return ad.fused(rows.mean(), (alpha, alpha), vjp)


@functools.cache
def _log_gamma_of_count(q):
    """lnGamma(q) of a class count ``q``, computed once per count."""
    return float(_lgamma_value(float(q)))


def _masked_kl(alpha, y):
    """Batch mean of KL[Dir(alpha_tilde) || Dir(1)] with alpha_tilde = alpha * (1 - y) + y.

    One graph node over the single parent entry ``alpha``: every path of the
    composed graph meets in alpha_tilde before it reaches ``alpha``.  Value
    and adjoint are bit-identical to the graph of elementwise, ``sum``,
    ``lgamma``, ``digamma`` and ``mean`` nodes that computes the formula.
    """
    y = np.asarray(y, dtype=np.float64)
    keep = 1.0 - y
    tilde = alpha.data * keep + y
    q = tilde.shape[-1]
    strength = tilde.sum(axis=-1, keepdims=True)
    psi, psi1, log_gamma = special.polygamma_pass(
        np.concatenate([tilde, strength], axis=-1), with_lgamma=True
    )
    log_norm = (log_gamma[..., q:] - log_gamma[..., :q].sum(axis=-1, keepdims=True)
                - _log_gamma_of_count(q))
    excess = tilde - 1.0
    gap = psi[..., :q] - psi[..., q:]
    total = log_norm + (excess * gap).sum(axis=-1, keepdims=True)
    count = max(total.size, 1)

    def vjp(g):
        g_total = np.broadcast_to(g, total.shape) / count
        # log-normalizer: d lnGamma = psi, on the strength and on each parameter
        g_strength = g_total * psi[..., q:]
        g_tilde = np.broadcast_to(-g_total, tilde.shape) * psi[..., :q]
        # concentration: (tilde - 1) * (psi(tilde) - psi(S)), summed over classes;
        # its adjoints add into tilde in the composed graph's order
        g_terms = np.broadcast_to(g_total, tilde.shape)
        g_gap = g_terms * excess
        g_tilde = g_tilde + g_terms * gap
        g_tilde = g_tilde + g_gap * psi1[..., :q]
        g_strength = g_strength + ad.unbroadcast(-g_gap, strength.shape) * psi1[..., q:]
        g_tilde = g_tilde + np.broadcast_to(g_strength, tilde.shape)
        return (g_tilde * keep,)

    return ad.fused(total.mean(), (alpha,), vjp)


def kl_uniform(alpha_tilde):
    """KL divergence from Dir(alpha_tilde) to the uniform Dirichlet, batch mean."""
    alpha_tilde = ad.lift(alpha_tilde)
    # no class spared: alpha * 1 + 0 and g * 1 change no bit
    return _masked_kl(alpha_tilde, np.zeros(alpha_tilde.shape))


def kl_loss(alpha, y):
    """KL regularizer on the masked parameters that spare the true class."""
    alpha = ad.lift(alpha)
    _check_alpha(alpha)
    return _masked_kl(alpha, y)


def acc_loss(alpha, y, lambda_t):
    """Annealed classification loss: ace + lambda_t * masked KL."""
    return ace_loss(alpha, y) + lambda_t * kl_loss(alpha, y)


# ---------------------------------------------------------------------------
# hierarchy losses


def h1_loss(alpha_views, alpha_common, alpha_specific, y, gamma):
    """First-hierarchy loss: per-view, common and specific classification
    terms plus the common/specific conflict penalty, averaged over views.

    ``alpha_views`` and ``alpha_specific`` are (v, n, q) stacks, so
    ``ace_loss`` and the conflict mean average over views and samples at once.
    """
    if alpha_specific.shape != alpha_views.shape:
        raise ContractError(f"h1_loss: stacks {alpha_views.shape} != {alpha_specific.shape}")
    total = ace_loss(alpha_views, y) + ace_loss(alpha_common, y) + ace_loss(alpha_specific, y)
    return total + gamma * conflict_degree(alpha_common - 1.0, alpha_specific - 1.0).mean()


def con_loss(alpha_views):
    """Mean pairwise conflict across the views of a (v, n, q) stack,
    normalized by v - 1.

    One conflict call compares every ordered pair of views; the diagonal
    pairs are exactly 0, so the mean over all v^2 pairs times v^2 / (v - 1)
    is the sum over distinct pairs divided by v - 1.
    """
    n_views = alpha_views.shape[0]
    if n_views < 2:
        return ad.lift(0.0)
    evidence = alpha_views - 1.0
    rest = evidence.shape[1:]
    rows, columns = evidence.reshape((n_views, 1, *rest)), evidence.reshape((1, n_views, *rest))
    pairs = conflict_degree(rows, columns)
    return pairs.mean() * (n_views * n_views / (n_views - 1))


def h2_loss(alpha_joint, alpha_attended, y, lambda_t, gamma, conflict):
    """Second-hierarchy loss: annealed classification of the joint and of
    every view of the (v, n, q) attended stack, plus ``gamma`` times
    ``conflict``, the ``con_loss`` node of the fused views, which the caller
    also logs.
    """
    attended = acc_loss(alpha_attended, y, lambda_t) * float(alpha_attended.shape[0])
    return acc_loss(alpha_joint, y, lambda_t) + attended + gamma * conflict


def overall_loss(h1, h2, com, spe, delta, eta):
    """Trade-off combination of the four top-level terms."""
    return h1 + h2 + delta * com + eta * spe
