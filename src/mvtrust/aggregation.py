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

from .autodiff import RELU, lift
from .errors import ShapeError

# Added to every ReLU score before normalizing, so that no view's weight can
# reach zero (an all-zero score row becomes uniform).
SCORE_FLOOR = 1e-8


def attend_batch(features, evidences, w_query, w_key, w_value, uniform=False):
    """Batched attention over view-major stacks.

    ``features`` is (v, n, l) and ``evidences`` (v, n, q); both are swapped
    to sample-major (n, v, .) views inside.  Returns the (n, v, v) weights
    and the (v, n, q) attended evidence, copied into C order.
    ``uniform=True`` bypasses the query/key scores and mixes value rows with
    constant weights 1/v.
    """
    n_views, n, subspace_dim = features.shape
    if n_views == 0 or evidences.shape[:2] != (n_views, n):
        raise ShapeError(
            f"attend_batch: features {features.shape} and evidence {evidences.shape} "
            "need the same (v, n) with v >= 1"
        )
    value = w_value @ evidences.transpose(0, 1)     # (n, v, q)
    if uniform:
        weights = lift(np.full((n, n_views, n_views), 1.0 / n_views))
    else:
        feat3 = features.transpose(0, 1)            # (n, v, l)
        query = w_query @ feat3
        key = w_key @ feat3
        scores = (query @ key.transpose()) * (1.0 / np.sqrt(subspace_dim))
        positive = scores.activate(RELU) + SCORE_FLOOR
        weights = positive / positive.sum(axis=-1, keepdims=True)
    attended = (weights @ value).activate(RELU)
    return weights, attended.transpose(0, 1).contiguous()
