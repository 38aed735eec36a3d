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

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .opinions import conflict_degree
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

    FIELDS = ("adv", "cml", "com", "spe", "h1", "h2", "con", "overall", "lambda_t")

    def resum(self, delta, eta):
        """Recombine the recorded terms per the overall-loss identity."""
        return overall_loss(self.h1, self.h2, self.com, self.spe, delta, eta)

    def finite(self):
        return all(np.isfinite(getattr(self, f)) for f in self.FIELDS)


def lambda_schedule(epoch, anneal_epochs):
    """Annealing coefficient ramping linearly from 0 to 1."""
    if anneal_epochs < 1:
        raise ContractError("anneal_epochs must be >= 1")
    return min(1.0, epoch / anneal_epochs)


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


def com_loss(adv, cml):
    """Total common-information loss: confusion term plus prediction term."""
    return adv + cml


def spe_loss(specific_list, common):
    """Squared per-sample inner products between each specific vector and the
    mean common vector, summed over views and averaged over the batch."""
    specific = ad.stack(specific_list)
    if specific.shape[-1] != common.shape[-1]:
        raise ContractError(
            f"spe_loss: specific width {specific.shape[-1]} != common width {common.shape[-1]}"
        )
    inner = (specific * common).sum(axis=-1)
    return (inner * inner).mean() * float(len(specific_list))


# ---------------------------------------------------------------------------
# evidential classification losses


def _check_alpha(alpha):
    if np.any(alpha.data < 1.0 - 1e-12):
        raise ContractError("Dirichlet parameters must satisfy alpha_k >= 1")


def ace_loss(alpha, y):
    """Evidential cross-entropy: sum_k y_k (psi(S) - psi(alpha_k)), batch mean."""
    alpha = ad.lift(alpha)
    _check_alpha(alpha)
    strength = alpha.sum(axis=-1, keepdims=True)
    per_class = (strength.digamma() - alpha.digamma()) * y
    return per_class.sum(axis=-1).mean()


def kl_uniform(alpha_tilde):
    """KL divergence from Dir(alpha_tilde) to the uniform Dirichlet, batch mean."""
    alpha_tilde = ad.lift(alpha_tilde)
    q = alpha_tilde.shape[-1]
    strength = alpha_tilde.sum(axis=-1, keepdims=True)
    log_norm = strength.lgamma() - alpha_tilde.lgamma().sum(axis=-1, keepdims=True) - float(
        _lgamma_value(float(q))
    )
    concentration = ((alpha_tilde - 1.0) * (alpha_tilde.digamma() - strength.digamma())).sum(
        axis=-1, keepdims=True
    )
    return (log_norm + concentration).mean()


def kl_loss(alpha, y):
    """KL regularizer on the masked parameters that spare the true class."""
    alpha = ad.lift(alpha)
    _check_alpha(alpha)
    masked = alpha * (1.0 - y) + y
    return kl_uniform(masked)


def acc_loss(alpha, y, lambda_t):
    """Annealed classification loss: ace + lambda_t * masked KL."""
    return ace_loss(alpha, y) + lambda_t * kl_loss(alpha, y)


# ---------------------------------------------------------------------------
# hierarchy losses


def h1_loss(alpha_views, alpha_common, alpha_specific, y, gamma):
    """First-hierarchy loss: per-view, common and specific classification
    terms plus the common/specific conflict penalty, averaged over views.

    The per-view lists are stacked to ``(v, n, q)``; ``ace_loss`` and the
    conflict mean average over views and samples at once.
    """
    if len(alpha_views) == 0 or len(alpha_specific) != len(alpha_views):
        raise ContractError("h1_loss: need matching per-view alpha lists")
    specific = ad.stack(alpha_specific)
    total = ace_loss(ad.stack(alpha_views), y) + ace_loss(alpha_common, y) + ace_loss(specific, y)
    if gamma != 0.0:
        total = total + gamma * conflict_degree(alpha_common - 1.0, specific - 1.0).mean()
    return total


def con_loss(alpha_views):
    """Mean pairwise conflict across views, normalized by v - 1.

    One conflict call compares every ordered pair of the stacked views; the
    diagonal pairs are exactly 0, so the mean over all v^2 pairs times
    v^2 / (v - 1) is the sum over distinct pairs divided by v - 1.
    """
    n_views = len(alpha_views)
    if n_views < 2:
        return Tensor(0.0)
    evidence = ad.stack(alpha_views) - 1.0
    rest = evidence.shape[1:]
    rows, columns = evidence.reshape((n_views, 1, *rest)), evidence.reshape((1, n_views, *rest))
    pairs = conflict_degree(rows, columns)
    return pairs.mean() * (n_views * n_views / (n_views - 1))


def h2_loss(alpha_joint, alpha_attended, alpha_views, y, lambda_t, gamma, conflict=None):
    """Second-hierarchy loss: annealed classification of the joint and every
    attended distribution plus the inter-view conflict penalty.

    ``conflict`` may carry a precomputed ``con_loss(alpha_views)`` node so the
    caller can log it without building the subgraph twice.
    """
    attended = acc_loss(ad.stack(alpha_attended), y, lambda_t) * float(len(alpha_attended))
    total = acc_loss(alpha_joint, y, lambda_t) + attended
    if gamma != 0.0:
        if conflict is None:
            conflict = con_loss(alpha_views)
        total = total + gamma * conflict
    return total


def overall_loss(h1, h2, com, spe, delta, eta):
    """Trade-off combination of the four top-level terms."""
    return h1 + h2 + delta * com + eta * spe
