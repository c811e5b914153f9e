"""Lane layout of the Bitwise Status Array (section 6).

The Bitwise Status Array (BSA) packs the visited status of a group into
one *bit* per instance: "all bits of one vertex are kept in a single
variable.  If this vertex is visited, we set it as 1, otherwise 0".
Groups wider than 64 instances use multiple uint64 lanes per vertex
(the CUDA code's ``long4``-style vector types).  The engines keep the
BSA itself as a ``(num_vertices, lanes)`` uint64 array
(:mod:`repro.core.bitwise`); the helpers here size the lanes and build
the per-instance bit masks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TraversalError


def lanes_for(group_size: int) -> int:
    """uint64 lanes needed to hold one bit per instance."""
    if group_size <= 0:
        raise TraversalError("group size must be positive")
    return math.ceil(group_size / 64)


def instance_masks(group_size: int) -> np.ndarray:
    """``(group_size, lanes)`` matrix; row j holds instance j's bit."""
    lanes = lanes_for(group_size)
    masks = np.zeros((group_size, lanes), dtype=np.uint64)
    for j in range(group_size):
        masks[j, j // 64] = np.uint64(1) << np.uint64(j % 64)
    return masks


def combine_masks(masks: np.ndarray, instances) -> np.ndarray:
    """OR of the given instances' lane masks (their joint lane pattern).

    ``masks`` is the :func:`instance_masks` matrix; ``instances`` any
    index array/list.  An empty selection yields the all-zero word.
    """
    instances = np.asarray(instances, dtype=np.int64)
    if instances.size == 0:
        return np.zeros(masks.shape[1], dtype=np.uint64)
    return np.bitwise_or.reduce(masks[instances], axis=0)
