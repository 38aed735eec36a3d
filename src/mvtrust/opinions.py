"""Subjective-logic opinion algebra over batches of per-class evidence.

Evidence is shaped ``(..., q)``.  ``evidence_to_opinion``,
``projected_probability`` and ``conflict_degree`` take ndarrays (or
anything ``np.asarray`` takes) and return ndarrays; they build no graph.
The opinion and projection formulas are written once, in ``_opinion`` and
``_projection``; ``conflict_arrays`` runs them for ``conflict_degree`` and,
with its vjp, inside the node of each loss that holds a conflict term.
``fuse_evidence`` alone is a graph op, because training differentiates it.

An opinion assigns one belief mass per class plus a single uncertainty
mass, all summing to one.  Evidence maps to opinions through the Dirichlet
strength S = sum(e) + q via b = e / S and u = q / S.  Fusion follows the
uncertainty-weighted averaging rule, which is exactly element-wise
evidence averaging and stays well-behaved for conflicting inputs (no
Dempster-style conflict blow-up).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DomainError, ShapeError


def _classes(op, evidence):
    """``evidence`` as a float64 array; ``ShapeError`` where it has no class
    axis or no class."""
    evidence = np.asarray(evidence, dtype=np.float64)
    if evidence.ndim == 0:
        raise ShapeError(f"{op}: needs a class axis, got a 0-d array")
    if evidence.shape[-1] == 0:
        raise ShapeError(f"{op}: needs at least one class, got shape {evidence.shape}")
    return evidence


def _evidence(op, evidence):
    """``_classes`` of ``evidence``; ``DomainError`` where an entry is
    negative or not finite."""
    evidence = _classes(op, evidence)
    valid = (evidence >= 0.0) & (evidence < np.inf)
    if not valid.all():
        raise DomainError(f"{op}: evidence must be finite and >= 0, got {evidence[~valid][0]}")
    return evidence


def _opinion(evidence):
    """``(beliefs, uncertainty, strength)`` of ``(..., q)`` evidence."""
    q = evidence.shape[-1]
    strength = evidence.sum(axis=-1, keepdims=True) + float(q)
    return evidence / strength, float(q) / strength, strength


def _projection(beliefs, uncertainty):
    return beliefs + uncertainty * (1.0 / beliefs.shape[-1])


def evidence_to_opinion(evidence):
    """Dirichlet projection: b = e/S, u = q/S with S = sum(e) + q.

    Returns ``(beliefs, uncertainty)`` shaped ``(..., q)`` and ``(..., 1)``.
    """
    beliefs, uncertainty, _ = _opinion(_evidence("evidence_to_opinion", evidence))
    return beliefs, uncertainty


def projected_probability(beliefs, uncertainty):
    """Point probabilities p = b + u / q under uniform base rates.

    ``uncertainty`` is shaped ``(..., 1)`` as ``evidence_to_opinion``
    returns it, or is one number for every opinion.
    """
    beliefs = _classes("projected_probability", beliefs)
    uncertainty = np.asarray(uncertainty, dtype=np.float64)
    if uncertainty.ndim and uncertainty.shape != (*beliefs.shape[:-1], 1):
        raise ShapeError(f"projected_probability: uncertainty has shape {uncertainty.shape}, "
                         f"but beliefs of shape {beliefs.shape} need {(*beliefs.shape[:-1], 1)}")
    return _projection(beliefs, uncertainty)


def fuse_evidence(e_common, e_specific):
    """Intra-view fusion: element-wise mean of the two evidences."""
    return (ad.lift(e_common) + e_specific) * 0.5


def conflict_degree(evidence_a, evidence_b):
    """Per-sample conflict degree between two evidence batches, shape (..., 1).

    Half the L1 distance between the uniformly projected probabilities,
    discounted by the conjunctive certainty (1 - u_A)(1 - u_B), so conflict
    between mutually uncertain opinions is small and C(x, x) = 0.  The
    leading axes broadcast, so ``(v, 1, n, q)`` against ``(1, v, n, q)``
    gives every ordered pair of v views; C(a, b) equals C(b, a) exactly.
    """
    a, b = _evidence("conflict_degree", evidence_a), _evidence("conflict_degree", evidence_b)
    if a.shape[-1] != b.shape[-1]:
        raise ContractError(f"conflict_degree: class counts differ, {a.shape} vs {b.shape}")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"conflict_degree: cannot broadcast {a.shape} with {b.shape}") from exc
    return conflict_arrays(a, b)[0]


def conflict_arrays(e_a, e_b):
    """``conflict_degree`` on two evidence arrays: its value and its vjp,
    which returns one adjoint per side, ``(a, b)``, each the belief
    numerator's plus the strength's.  They are the adjoints of the graph
    that elementwise Tensor ops over the opinion formulas would build, bit
    for bit; the subgradient of ``|p_A - p_B|`` at 0 is 0.

    The losses that take the conflict inside their own node call this.
    """
    b_a, u_a, s_a = _opinion(e_a)
    b_b, u_b, s_b = _opinion(e_b)
    difference = _projection(b_a, u_a) - _projection(b_b, u_b)
    distance = np.abs(difference).sum(axis=-1, keepdims=True) * 0.5
    certain_a, certain_b = 1.0 - u_a, 1.0 - u_b
    certainty = certain_a * certain_b
    q, inv_q = float(e_a.shape[-1]), 1.0 / e_a.shape[-1]

    def vjp(g):
        # through the halved sum of |p_A - p_B|, then p = b + u / q on each side
        sign = np.sign(difference)
        g_difference = ((g * certainty) * 0.5) * sign
        g_certainty = g * distance
        adjoints = []
        for e, s, other, g_p in ((e_a, s_a, certain_b, g_difference),
                                 (e_b, s_b, certain_a, -g_difference)):
            g_beliefs = ad.unbroadcast(g_p, e.shape)
            # b = e / S and u = q / S reach S; u also reaches (1 - u) in the certainty
            g_strength = ad.unbroadcast(-g_beliefs * e / (s * s), s.shape)
            g_u = ad.unbroadcast(g_beliefs, s.shape) * inv_q
            g_u -= ad.unbroadcast(g_certainty * other, s.shape)
            g_strength -= g_u * q / (s * s)
            adjoints.append(g_beliefs / s + g_strength)
        return adjoints

    return distance * certainty, vjp
