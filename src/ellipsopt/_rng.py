"""Deterministic counter-based random streams.

Every stochastic draw in this package is keyed by (seed, stream, step) and a
batch-element index. A substream's 128-bit Philox key is the word pair
``(seed, stream << 56 | step)``: distinct keys give independent Philox
streams, so the coordinates need no hashing. A batch is drawn serially in
one call: element ``l`` of a ``dims``-wide draw reads the 64-bit words
``[l * dims, (l + 1) * dims)`` of its substream, so a shorter draw is a
prefix of a longer one. Normals come from the inverse CDF of uniforms
strictly inside (0, 1), a fixed consumption per element unlike rejection
samplers. A batch mean sums each column of its block pairwise as one
contiguous run, so its rounding is fixed by the batch shape.
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

# a seed fills the first key word; the stream tag sits above the step in the second
SEED_LIMIT = 2**64
_STEP_BITS = 56

_INV_2_52 = 2.0**-52
_INV_2_53 = 2.0**-53


def stream_key(seed: int, stream: int, step: int) -> np.ndarray:
    """Read-only 128-bit Philox key (seed, stream << 56 | step) of the
    substream (seed, stream, step)."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    if not 0 <= step < 1 << _STEP_BITS:
        raise ValueError(f"step must be an integer in [0, 2**56), got {step}")
    key = np.array([seed, stream << _STEP_BITS | step], dtype=np.uint64)
    key.flags.writeable = False
    return key


# one generator, re-keyed for every draw: resetting its state costs a fifth
# of constructing a Philox. The package draws serially, from one thread.
_PHILOX = Philox(0)
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def _raw_words(key: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 64-bit words of ``Philox(key=key)``."""
    _PHILOX.state = {"bit_generator": "Philox", "state": {"counter": _ZERO_WORDS, "key": key},
                     "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return _PHILOX.random_raw(count)


def generator(seed: int, stream: int) -> np.random.Generator:
    """numpy Generator for a stream not keyed by step: data, splits, probes."""
    return np.random.default_rng(SeedSequence((int(seed), stream)))


def open_uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms (k + 0.5) * 2**-52 of the top 52 bits k of each word, built in
    one new float64 block; ``raw`` is shifted in place. Each is exact and lies
    in [2**-53, 1 - 2**-53], so its normal is finite, within ±8.2095."""
    raw >>= np.uint64(12)
    u = raw.astype(np.float64)
    u += 0.5
    u *= _INV_2_52
    return u


def standard_normals(key: np.ndarray, count: int, dims: int) -> np.ndarray:
    """(count, dims) standard normals, one row per batch element."""
    u = open_uniforms(_raw_words(key, count * dims).reshape(count, dims))
    return ndtri(u, out=u)


def uniform_indices(key: np.ndarray, count: int, upper: int) -> np.ndarray:
    """(count,) integers uniform on [0, upper), one per batch element."""
    raw = _raw_words(key, count)
    u = (raw >> np.uint64(11)).astype(np.float64) * _INV_2_53
    idx = (u * upper).astype(np.int64)
    return np.minimum(idx, upper - 1)


def pairwise_mean(rows: np.ndarray) -> np.ndarray:
    """Column means of a (count, dims) block, each column copied into one
    contiguous run and summed pairwise: the bits depend only on the shape."""
    return np.ascontiguousarray(rows.T).mean(axis=1)
