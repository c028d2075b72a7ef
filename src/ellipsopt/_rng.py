"""Deterministic counter-based random streams.

Every stochastic draw in this package is keyed by (seed, stream, step) and a
batch-element index. A batch is drawn serially in one call: element ``l`` of
a ``dims``-wide draw reads the 64-bit words ``[l * dims, (l + 1) * dims)`` of
its Philox substream, so a shorter draw is a prefix of a longer one. Normals
come from the inverse CDF, a fixed consumption per element unlike rejection
samplers. Batch means are numpy's ``mean`` over a block of a fixed shape, so
their rounding is fixed by the batch size.
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

_INV_2_53 = 2.0**-53


def stream_key(seed: int, stream: int, step: int) -> np.ndarray:
    """128-bit Philox key for the substream (seed, stream, step)."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if step < 0:
        raise ValueError("step must be a non-negative integer")
    ss = SeedSequence(entropy=(int(seed), int(stream), int(step)))
    return ss.generate_state(2, np.uint64)


def open_uniforms(raw: np.ndarray) -> np.ndarray:
    # strictly inside (0, 1) so inverse-CDF transforms stay finite
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53


def standard_normals(key: np.ndarray, count: int, dims: int) -> np.ndarray:
    """(count, dims) standard normals, one row per batch element."""
    raw = Philox(key=key).random_raw(count * dims)
    return ndtri(open_uniforms(raw.reshape(count, dims)))


def uniform_indices(key: np.ndarray, count: int, upper: int) -> np.ndarray:
    """(count,) integers uniform on [0, upper), one per batch element."""
    raw = Philox(key=key).random_raw(count)
    u = (raw >> np.uint64(11)).astype(np.float64) * _INV_2_53
    idx = (u * upper).astype(np.int64)
    return np.minimum(idx, upper - 1)


def pairwise_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over axis 0 of a (count, ...) block of per-draw rows.

    The name stays while the benchmark traces ``rng.pairwise_mean``; ROADMAP
    item 1 renames that span.
    """
    return np.mean(rows, axis=0)
