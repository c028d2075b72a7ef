"""Deterministic counter-based random streams.

Every stochastic draw in this package is keyed by (seed, stream, step) and a
batch-element index. A batch is drawn serially in one call: element ``l``
reads its own Philox counter blocks (lanes it does not need are discarded),
and normals come from the inverse CDF, a fixed consumption per element
unlike rejection samplers. ``pairwise_mean`` reduces a block of per-draw
rows in a tree whose shape depends only on the batch size; the synthetic
oracles take their batch means with it, while the logistic oracle reduces
its gathered rows inside one matrix product.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox, SeedSequence
from scipy.special import ndtri

# stream tags; a (seed, stream, step) triple names one substream
GRAD_STREAM = 0
EVAL_STREAM = 1
DATA_STREAM = 2
SPLIT_STREAM = 3
PROBE_STREAM = 4

_LANES_PER_BLOCK = 4  # Philox4x64 emits four 64-bit words per counter tick
_INV_2_53 = 2.0**-53


def stream_key(seed: int, stream: int, step: int) -> np.ndarray:
    """128-bit Philox key for the substream (seed, stream, step)."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if step < 0:
        raise ValueError("step must be a non-negative integer")
    ss = SeedSequence(entropy=(int(seed), int(stream), int(step)))
    return ss.generate_state(2, np.uint64)


def raw_lanes(key: np.ndarray, count: int, lanes_per_element: int) -> np.ndarray:
    """(count, lanes_per_element) raw 64-bit words, one row per batch element.

    Element l reads whole counter blocks of its own, starting at block
    l * ceil(lanes_per_element / 4); the unused lanes are dropped.
    """
    blocks = -(-lanes_per_element // _LANES_PER_BLOCK)
    raw = Philox(key=key).random_raw(count * blocks * _LANES_PER_BLOCK)
    return raw.reshape(count, blocks * _LANES_PER_BLOCK)[:, :lanes_per_element]


def open_uniforms(raw: np.ndarray) -> np.ndarray:
    # strictly inside (0, 1) so inverse-CDF transforms stay finite
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53


def standard_normals(key: np.ndarray, count: int, dims: int) -> np.ndarray:
    """(count, dims) standard normals, one row per batch element."""
    return ndtri(open_uniforms(raw_lanes(key, count, dims)))


def uniform_indices(key: np.ndarray, count: int, upper: int) -> np.ndarray:
    """(count,) integers uniform on [0, upper), one per batch element."""
    raw = raw_lanes(key, count, 1)[:, 0]
    u = (raw >> np.uint64(11)).astype(np.float64) * _INV_2_53
    idx = (u * upper).astype(np.int64)
    return np.minimum(idx, upper - 1)


def pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """Fixed-shape pairwise reduction over axis 0.

    The tree depends only on the number of rows, so the rounding of a batch
    mean is fixed by the batch size.
    """
    a = np.asarray(rows, dtype=np.float64)
    if a.shape[0] == 0:
        raise ValueError("cannot reduce an empty batch")
    while a.shape[0] > 1:
        m = a.shape[0]
        half = m // 2
        merged = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        if m % 2:
            merged = np.concatenate([merged, a[2 * half :]], axis=0)
        a = merged
    return a[0]


def pairwise_mean(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return pairwise_sum(rows) / rows.shape[0]
