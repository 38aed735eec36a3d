"""Differentiable training objectives, one graph node per loss term.

Composition: an adversarial confusion term and a per-view prediction term
supervise the common subspace; an orthogonality penalty shapes the
specific representations; evidential cross-entropy terms (with an annealed
KL regularizer toward the uniform Dirichlet) drive both aggregation
levels; and conflict-degree penalties discourage contradictory opinions
within and across views.

Every loss is one ``autodiff.fused`` node.  Its forward is the numpy
sequence of the composed graph of elementary nodes it replaces
(``tests/oracles.py`` keeps those graphs), and its vjp runs that graph's
adjoint arithmetic in the order ``backward`` ran it.  It names each parent
once and returns one adjoint per parent, the paths by which the graph
reached it summed in the graph's order, so value and adjoints are
bit-identical to it under the condition the ``autodiff`` module docstring
states.  The array-level
``_cross_entropy``, ``_ace``, ``_masked_kl``, ``_acc_terms`` and
``opinions.conflict_arrays`` each return values and vjps; each loss node
composes the ones it needs.  The ACE terms of one node take psi and psi'
from one ``special.polygamma_pass`` over all their arguments side by
side, and its KL terms psi, psi' and lnGamma from another; the pass is
elementwise, so each value is bit-equal to a pass per term:

- ``cross_entropy``, ``adv_loss`` (exp(-CE)), ``cml_loss`` and
  ``spe_loss``: one node over their input; ``discriminator_losses``
  builds the first two from one cross-entropy;
- ``ace_loss`` and ``kl_loss``: one node over alpha;
- ``h1_loss``: one node over the views' Dirichlet parameters and the
  common and specific evidence, holding three ACE terms, their shift by
  one and the gamma-scaled mean conflict;
- ``con_loss``: one node over the views' Dirichlet parameters, holding the
  shift back to evidence, the pairwise conflict, its mean and scale;
- ``h2_loss``: one node over the joint and attended evidence and the
  ``con_loss`` node, holding both annealed classification terms;
- ``overall_loss``: one node over the five top-level terms.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import special
from .errors import ContractError, DomainError, ShapeError
from .opinions import conflict_arrays
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


def _labels(op, y, evidence, one_row=False):
    """``y`` as float64 labels shaped as the (n, q) rows of the array
    ``evidence`` or as ``evidence``, or with ``one_row`` as one (q,) or
    (1, q) row for every sample; ``ShapeError`` otherwise, and
    ``DomainError`` where an entry is NaN or outside [0, 1].  Index labels
    [0, 1] against n == q == 2 rows still pass: they are a valid label row."""
    y, rows = np.asarray(y, dtype=np.float64), evidence.shape[-2:]
    one_rows = (rows[-1:], (1, *rows[-1:])) if one_row else ()
    if y.shape not in (rows, evidence.shape, *one_rows):
        raise ShapeError(f"{op}: labels have shape {y.shape}, but evidence of shape "
                         f"{evidence.shape} needs {rows}")
    bad = ~((y >= 0.0) & (y <= 1.0))
    if bad.any():
        raise DomainError(f"{op}: labels must lie in [0, 1], got {y[bad][0]}")
    return y


def _cross_entropy(op, p, onehot):
    """Value and vjp of ``cross_entropy`` on probabilities ``p``, for ``op``."""
    onehot = _labels(op, onehot, p, one_row=True)
    # a floored entry under a zero label cannot change the loss
    floored = int(((p < _PROB_FLOOR) & (onehot != 0.0)).sum())
    if floored:
        log.warning("cross_entropy: flooring %d probabilities below %g", floored, _PROB_FLOOR)
    clamped = np.clip(p, _PROB_FLOOR, None)
    passthrough = p > _PROB_FLOOR
    picked = (np.log(clamped) * onehot).sum(axis=-1)

    def vjp(g):
        # negation, mean over rows, sum over classes, the one-hot product, log, floor
        g_log = (-g / max(picked.size, 1)) * onehot
        return ((g_log / clamped) * passthrough,)

    return -(picked.sum() / picked.size), vjp


def cross_entropy(probs, onehot):
    """Mean categorical cross-entropy over rows; probabilities below 1e-12
    are floored to it, with a warning that counts those under a nonzero
    label."""
    probs = ad.lift(probs)
    value, vjp = _cross_entropy("cross_entropy", probs.data, onehot)
    return ad.fused(value, (probs,), vjp)


def adv_loss(z_hat, z):
    """Confusion objective exp(-CE) in (0, 1]; 1 means a perfect discriminator.

    ``z_hat`` holds row-softmax view probabilities for every (sample, view)
    pair and ``z`` the matching one-hot view labels.  The cross-entropy is
    averaged over rows before the exponential so the value stays in a
    usable floating-point range for any batch size.
    """
    z_hat = ad.lift(z_hat)
    return _adv_node(z_hat, *_cross_entropy("adv_loss", z_hat.data, z))


def discriminator_losses(own, confusion, z):
    """``(cross_entropy(own, z), adv_loss(confusion, z))`` from one cross-entropy.

    ``own`` and ``confusion`` are the two nodes of one split discriminator
    forward (``Model.discriminate``), which hold the same probability array,
    so one ``_cross_entropy`` serves both: the values and adjoints are those
    of the two calls, and a floor warning is logged once.
    """
    if own.data is not confusion.data:
        raise ContractError("discriminator_losses: own and confusion must hold one array")
    entropy, vjp = _cross_entropy("discriminator_losses", own.data, z)
    return ad.fused(entropy, (own,), vjp), _adv_node(confusion, entropy, vjp)


def _adv_node(z_hat, entropy, entropy_vjp):
    value = np.exp(-entropy)
    return ad.fused(value, (z_hat,), lambda g: entropy_vjp(-(g * value)))


def cml_loss(y_hat, y):
    """Mean per-class binary cross-entropy of the common prediction head."""
    y_hat = ad.lift(y_hat)
    p, y = y_hat.data, _labels("cml_loss", y, y_hat.data, one_row=True)
    clipped = np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    passthrough = (p > _PROB_FLOOR) & (p < 1.0 - _PROB_FLOOR)
    rest, miss = 1.0 - clipped, 1.0 - y
    term = np.log(clipped) * y + np.log(rest) * miss

    def vjp(g):
        g_term = -g / max(term.size, 1)
        return ((g_term * y / clipped - g_term * miss / rest) * passthrough,)

    return ad.fused(-(term.sum() / term.size), (y_hat,), vjp)


def spe_loss(specific, common):
    """Squared per-sample inner products between each specific vector of the
    (v, n, l) stack and the mean common vector, summed over views and
    averaged over the batch."""
    specific, common = ad.lift(specific), ad.lift(common)
    if specific.shape[-1] != common.shape[-1]:
        raise ContractError(
            f"spe_loss: specific width {specific.shape[-1]} != common width {common.shape[-1]}"
        )
    s, c = specific.data, common.data
    inner = (s * c).sum(axis=-1)
    n_views = float(s.shape[0])

    def vjp(g):
        g_square = (g * n_views) / max(inner.size, 1)
        g_product = np.expand_dims(2.0 * (g_square * inner), -1)
        return g_product * c, ad.unbroadcast(g_product * s, c.shape)

    return ad.fused((inner * inner).sum() / inner.size * n_views, (specific, common), vjp)


# ---------------------------------------------------------------------------
# evidential classification losses


def _check_alpha(a):
    if (a < 1.0 - 1e-12).any():
        raise ContractError("Dirichlet parameters must satisfy alpha_k >= 1")


def _polygamma_each(arguments, with_lgamma=False):
    """``special.polygamma_pass`` of each array in ``arguments``, as views of
    one call on all of them side by side in one buffer; the pass is
    elementwise, so each result is bit-equal to a call of its own."""
    ends = list(itertools.accumulate(x.size for x in arguments))
    flat = np.empty(ends[-1])
    for x, end in zip(arguments, ends):
        flat[end - x.size : end] = x.reshape(-1)
    values = special.polygamma_pass(flat, with_lgamma=with_lgamma)
    return [tuple(v[end - x.size : end].reshape(x.shape) for v in values)
            for x, end in zip(arguments, ends)]


def _ace_argument(a):
    """Dirichlet parameters and their strengths side by side: the argument
    of the ACE term's polygamma pass."""
    _check_alpha(a)
    return np.concatenate([a, a.sum(axis=-1, keepdims=True)], axis=-1)


def _ace(argument, y, psi, psi1):
    """Value and vjp of ``ace_loss`` from ``_ace_argument(a)``, the labels
    and the pass over the argument; the vjp returns the adjoint of ``a``,
    the strength path's plus the psi(alpha) path's."""
    *lead, q = argument.shape
    q -= 1
    shape = (*lead, q)
    rows = ((psi[..., q:] - psi[..., :q]) * y).sum(axis=-1)
    count = max(rows.size, 1)

    def vjp(g):
        g_difference = np.full(shape, g / count) * y
        g_strength = g_difference.sum(axis=-1, keepdims=True) * psi1[..., q:]
        return g_strength + -g_difference * psi1[..., :q]

    return rows.sum() / rows.size, vjp


def ace_loss(alpha, y):
    """Evidential cross-entropy: sum_k y_k (psi(S) - psi(alpha_k)), batch mean.

    One graph node over ``alpha``.  Value and adjoint are bit-identical to
    the graph of ``sum``, ``digamma``, ``-``, ``* y``, ``sum`` and ``mean``
    nodes that computes the formula.
    """
    alpha = ad.lift(alpha)
    argument, y = _ace_argument(alpha.data), _labels("ace_loss", y, alpha.data)
    value, vjp = _ace(argument, y, *special.polygamma_pass(argument))
    return ad.fused(value, (alpha,), lambda g: (vjp(g),))


@functools.cache
def _log_gamma_of_count(q):
    """lnGamma(q) of a class count ``q``, computed once per count."""
    return float(_lgamma_value(float(q)))


def _kl_argument(a, y):
    """``(keep, tilde, argument)`` of the KL term on ``a``: the mask 1 - y,
    the masked parameters alpha_tilde = a * (1 - y) + y, and alpha_tilde
    with its strengths side by side, the argument of its polygamma pass."""
    keep = 1.0 - y
    tilde = a * keep + y
    return keep, tilde, np.concatenate([tilde, tilde.sum(axis=-1, keepdims=True)], axis=-1)


def _masked_kl(keep, tilde, psi, psi1, log_gamma):
    """Value and vjp of the batch mean of KL[Dir(alpha_tilde) || Dir(1)], from
    ``_kl_argument`` and the pass (with lnGamma) over its argument.

    Every path of the composed graph meets in alpha_tilde before it reaches
    ``a``, so the vjp returns one adjoint.  Value and adjoint are
    bit-identical to the graph of elementwise, ``sum``, ``lgamma``,
    ``digamma`` and ``mean`` nodes that computes the formula.
    """
    q = tilde.shape[-1]
    log_norm = (log_gamma[..., q:] - log_gamma[..., :q].sum(axis=-1, keepdims=True)
                - _log_gamma_of_count(q))
    excess = tilde - 1.0
    gap = psi[..., :q] - psi[..., q:]
    total = log_norm + (excess * gap).sum(axis=-1, keepdims=True)
    count = max(total.size, 1)

    def vjp(g):
        g_total = g / count
        # log-normalizer: d lnGamma = psi, on the strength and on each parameter
        g_strength = g_total * psi[..., q:]
        g_tilde = -g_total * psi[..., :q]
        # concentration: (tilde - 1) * (psi(tilde) - psi(S)), summed over classes;
        # its adjoints add into tilde in the composed graph's order
        g_gap = g_total * excess
        g_tilde = g_tilde + g_total * gap
        g_tilde = g_tilde + g_gap * psi1[..., :q]
        g_strength = g_strength + (-g_gap).sum(axis=-1, keepdims=True) * psi1[..., q:]
        g_tilde = g_tilde + g_strength
        return (g_tilde * keep,)

    return total.sum() / total.size, vjp


def kl_loss(alpha, y):
    """KL regularizer on the masked parameters that spare the true class:
    the batch mean of KL[Dir(alpha_tilde) || Dir(1)], one node over alpha.
    With ``y`` all zeros no class is spared, and alpha_tilde is alpha."""
    alpha = ad.lift(alpha)
    _check_alpha(alpha.data)
    keep, tilde, argument = _kl_argument(alpha.data, _labels("kl_loss", y, alpha.data))
    value, vjp = _masked_kl(keep, tilde, *special.polygamma_pass(argument, with_lgamma=True))
    return ad.fused(value, (alpha,), vjp)


def _acc_terms(alphas, y, lambda_t):
    """Value and vjp of the annealed classification term ace + lambda_t *
    masked KL on each array in ``alphas``.  The ACE terms take psi and psi'
    from one polygamma pass and the KL terms psi, psi' and lnGamma from
    another.  Each vjp returns one adjoint, the ACE term's plus the KL
    term's, as they met in alpha."""
    ace_arguments = [_ace_argument(a) for a in alphas]
    kl_parts = [_kl_argument(a, y) for a in alphas]
    ace_values = _polygamma_each(ace_arguments)
    kl_values = _polygamma_each([argument for _, _, argument in kl_parts], with_lgamma=True)
    terms = []
    for ace_argument, ace_value, (keep, tilde, _), kl_value in zip(
            ace_arguments, ace_values, kl_parts, kl_values):
        ace, ace_vjp = _ace(ace_argument, y, *ace_value)
        kl, kl_vjp = _masked_kl(keep, tilde, *kl_value)
        terms.append((ace + lambda_t * kl, _acc_vjp(ace_vjp, kl_vjp, lambda_t)))
    return terms


def _acc_vjp(ace_vjp, kl_vjp, lambda_t):
    def vjp(g):
        (kl_path,) = kl_vjp(g * lambda_t)
        return ace_vjp(g) + kl_path
    return vjp


# ---------------------------------------------------------------------------
# hierarchy losses


def h1_loss(alpha_views, evidence_common, evidence_specific, y, gamma):
    """First-hierarchy loss: per-view, common and specific classification
    terms plus the common/specific conflict penalty, averaged over views.

    ``alpha_views`` holds the (v, n, q) Dirichlet parameters of the fused
    views, which ``con_loss`` reads too; the common (n, q) and specific
    (v, n, q) terms take evidence and shift it by one inside the node, and
    the conflict reads that shift back, as ``(e + 1) - 1``.  ``ace`` and the
    conflict mean average over views and samples at once.

    One node over ``(alpha_views, evidence_common, evidence_specific)``;
    the common and the specific side's adjoints are each the ACE term's
    plus the conflict's.
    """
    alpha_views, evidence_common, evidence_specific = map(
        ad.lift, (alpha_views, evidence_common, evidence_specific))
    if evidence_specific.shape != alpha_views.shape:
        raise ContractError(f"h1_loss: stacks {alpha_views.shape} != {evidence_specific.shape}")
    y = _labels("h1_loss", y, evidence_common.data)
    alpha_common, alpha_specific = evidence_common.data + 1.0, evidence_specific.data + 1.0
    arguments = [_ace_argument(a) for a in (alpha_views.data, alpha_common, alpha_specific)]
    (views, views_vjp), (common, common_vjp), (specific, specific_vjp) = (
        _ace(argument, y, *values)
        for argument, values in zip(arguments, _polygamma_each(arguments)))
    pairs, pairs_vjp = conflict_arrays(alpha_common - 1.0, alpha_specific - 1.0)

    def vjp(g):
        pair_common, pair_specific = pairs_vjp((g * gamma) / max(pairs.size, 1))
        return views_vjp(g), common_vjp(g) + pair_common, specific_vjp(g) + pair_specific

    value = views + common + specific + gamma * (pairs.sum() / pairs.size)
    return ad.fused(value, (alpha_views, evidence_common, evidence_specific), vjp)


def con_loss(alpha_views):
    """Mean pairwise conflict across the views of a (v, n, q) stack of
    Dirichlet parameters, normalized by v - 1.

    One conflict call compares every ordered pair of views, the
    ``(v, 1, n, q)`` rows against the ``(1, v, n, q)`` columns of the
    evidence ``alpha - 1``; the diagonal pairs are exactly 0, so the mean
    over all v^2 pairs times v^2 / (v - 1) is the sum over distinct pairs
    divided by v - 1.  One node over ``alpha_views``, whose adjoint is the
    rows' plus the columns'.
    """
    alpha_views = ad.lift(alpha_views)
    n_views = alpha_views.shape[0]
    if n_views < 2:
        return ad.lift(0.0)
    evidence = alpha_views.data - 1.0
    rest = evidence.shape[1:]
    pairs, pairs_vjp = conflict_arrays(evidence.reshape((n_views, 1, *rest)),
                                       evidence.reshape((1, n_views, *rest)))
    scale = n_views * n_views / (n_views - 1)

    def vjp(g):
        rows, columns = pairs_vjp((g * scale) / max(pairs.size, 1))
        return (rows.reshape(evidence.shape) + columns.reshape(evidence.shape),)

    return ad.fused(pairs.sum() / pairs.size * scale, (alpha_views,), vjp)


def h2_loss(evidence_joint, evidence_attended, y, lambda_t, gamma, conflict):
    """Second-hierarchy loss: annealed classification of the joint and of
    every view of the (v, n, q) attended stack, plus ``gamma`` times
    ``conflict``, the ``con_loss`` node of the fused views, which the caller
    also logs.

    The joint (n, q) and attended evidence are shifted by one inside the
    node.  One node over ``(evidence_joint, evidence_attended, conflict)``.
    """
    evidence_joint, evidence_attended, conflict = map(
        ad.lift, (evidence_joint, evidence_attended, conflict))
    y = _labels("h2_loss", y, evidence_joint.data)
    (joint, joint_vjp), (attended, attended_vjp) = _acc_terms(
        [evidence_joint.data + 1.0, evidence_attended.data + 1.0], y, lambda_t)
    n_views = float(evidence_attended.shape[0])

    def vjp(g):
        return joint_vjp(g), attended_vjp(g * n_views), g * gamma

    value = joint + attended * n_views + gamma * conflict.data
    return ad.fused(value, (evidence_joint, evidence_attended, conflict), vjp)


def overall_loss(h1, h2, adv, cml, spe, delta, eta):
    """Trade-off combination of the top-level terms, where the common loss
    is ``adv + cml``: h1 + h2 + delta * (adv + cml) + eta * spe."""
    h1, h2, adv, cml, spe = map(ad.lift, (h1, h2, adv, cml, spe))

    def vjp(g):
        g_common = g * delta
        return g, g, g_common, g_common, g * eta

    value = h1.data + h2.data + delta * (adv.data + cml.data) + eta * spe.data
    return ad.fused(value, (h1, h2, adv, cml, spe), vjp)
