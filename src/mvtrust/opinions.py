"""Subjective-logic opinion algebra over batches of per-class evidence.

Every function takes evidence shaped ``(..., q)``, as an ndarray or a
``Tensor``, lifts it to a ``Tensor`` and builds graph nodes, so the training
losses and the evaluation report share one definition of each formula.

An opinion assigns one belief mass per class plus a single uncertainty
mass, all summing to one.  Evidence maps to opinions through the Dirichlet
strength S = sum(e) + q via b = e / S and u = q / S.  Fusion follows the
uncertainty-weighted averaging rule, which is exactly element-wise
evidence averaging and stays well-behaved for conflicting inputs (no
Dempster-style conflict blow-up).
"""

from __future__ import annotations

from . import autodiff as ad
from .errors import ContractError


def evidence_to_opinion(evidence):
    """Dirichlet projection: b = e/S, u = q/S with S = sum(e) + q.

    Returns ``(beliefs, uncertainty)`` shaped ``(..., q)`` and ``(..., 1)``.
    """
    evidence = ad.lift(evidence)
    q = evidence.shape[-1]
    strength = evidence.sum(axis=-1, keepdims=True) + float(q)
    return evidence / strength, float(q) / strength


def projected_probability(beliefs, uncertainty):
    """Point probabilities p = b + u / q under uniform base rates."""
    beliefs = ad.lift(beliefs)
    q = beliefs.shape[-1]
    return beliefs + uncertainty * (1.0 / q)


def fuse_evidence(e_common, e_specific):
    """Intra-view fusion: element-wise mean of the two evidences."""
    return (ad.lift(e_common) + e_specific) * 0.5


def conflict_degree(evidence_a, evidence_b):
    """Per-sample conflict degree between two evidence batches, shape (..., 1).

    Half the L1 distance between the uniformly projected probabilities,
    discounted by the conjunctive certainty (1 - u_A)(1 - u_B), so conflict
    between mutually uncertain opinions is small and C(x, x) = 0.
    """
    if evidence_a.shape != evidence_b.shape:
        raise ContractError(
            f"conflict_degree: shapes differ, {evidence_a.shape} vs {evidence_b.shape}"
        )
    b_a, u_a = evidence_to_opinion(evidence_a)
    b_b, u_b = evidence_to_opinion(evidence_b)
    p_a = projected_probability(b_a, u_a)
    p_b = projected_probability(b_b, u_b)
    distance = (p_a - p_b).abs().sum(axis=-1, keepdims=True) * 0.5
    certainty = (1.0 - u_a) * (1.0 - u_b)
    return distance * certainty
