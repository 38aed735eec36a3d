"""Evidence-level attention across views, batched over samples.

The attention departs from the standard formulation on purpose: the three
weight matrices are v x v and multiply from the left, mixing across views
rather than across feature dimensions.  Scores pass through ReLU instead
of softmax so no view's weight can collapse to zero, and a final ReLU
clamp keeps attended evidence non-negative (a legal Dirichlet needs
alpha >= 1) even when the value matrix carries negative weights.

The context rows are sample-dependent representations, so every sample
gets its own (v, v) weight matrix.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError

# Added to every ReLU score before normalizing, so that no view's weight can
# reach zero (an all-zero score row becomes uniform).
SCORE_FLOOR = 1e-8


def attend_batch(features, evidences, w_query, w_key, w_value, uniform=False):
    """Batched attention over per-view tensors.

    ``features`` and ``evidences`` are per-view lists of (n, l) and (n, q)
    tensors.  Returns (weights, attended) with shapes (n, v, v) and
    (n, v, q).  ``uniform=True`` bypasses the query/key scores and mixes
    value rows with constant weights 1/v.
    """
    n_views = len(features)
    if n_views == 0 or len(evidences) != n_views:
        raise ContractError("attend_batch: need matching per-view feature/evidence lists")
    feat3 = ad.stack(features, axis=1)    # (n, v, l)
    ev3 = ad.stack(evidences, axis=1)     # (n, v, q)
    value = w_value @ ev3                 # (n, v, q)
    if uniform:
        n = feat3.shape[0]
        weights = Tensor(np.full((n, n_views, n_views), 1.0 / n_views))
    else:
        subspace_dim = feat3.shape[2]
        query = w_query @ feat3
        key = w_key @ feat3
        scores = (query @ key.transpose()) * (1.0 / np.sqrt(subspace_dim))
        positive = scores.relu() + SCORE_FLOOR
        weights = positive / positive.sum(axis=-1, keepdims=True)
    attended = (weights @ value).relu()
    return weights, attended
