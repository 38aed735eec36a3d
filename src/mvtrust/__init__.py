"""Trusted multi-view classification with hierarchical opinion aggregation.

Per-view features are decomposed into common and specific representations,
evidence from both is fused within each view, refined across views with
evidence-level attention, and combined into one joint opinion that carries
an explicit uncertainty mass.  The package ships its own small reverse-mode
autodiff engine, the subjective-logic opinion algebra, the full training
pipeline, and noise/conflict corruption harnesses.
"""

__version__ = "0.1.0"

from .autodiff import Adam, Tensor, backward, grad_check
from .errors import ContractError, DataError, DomainError, ShapeError, TrainingDiverged
from .opinions import conflict_degree, evidence_to_opinion, fuse_evidence, projected_probability

__all__ = [
    "Adam",
    "ContractError",
    "DataError",
    "DomainError",
    "ShapeError",
    "Tensor",
    "TrainingDiverged",
    "backward",
    "conflict_degree",
    "evidence_to_opinion",
    "fuse_evidence",
    "grad_check",
    "projected_probability",
    "__version__",
]
