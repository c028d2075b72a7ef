"""Deterministic counter-based random streams.

Every stochastic draw in this package is keyed by (seed, stream, step) and a
batch-element index. A substream's 128-bit Philox key is the two words
``SeedSequence((seed, stream, step)).generate_state(2, np.uint64)`` gives.
For coordinates below 2**32 the keys are computed in bulk, one block of
steps at a time, by a vectorised copy of numpy's ``SeedSequence`` hash,
and cached read-only. A batch is drawn serially in one call: element ``l``
of a ``dims``-wide draw reads the 64-bit words ``[l * dims, (l + 1) * dims)``
of its Philox substream, so a shorter draw is a prefix of a longer one.
Normals come from the inverse CDF, a fixed consumption per element unlike
rejection samplers. A batch mean sums each column of its block pairwise as
one contiguous run, so its rounding is fixed by the batch shape.
"""

from __future__ import annotations

from functools import lru_cache

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

# the hash and mix constants of numpy's SeedSequence (O'Neill's seed_seq
# mixing over a pool of four uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_WORD = 2**32
# steps per cached key block (a power of two, so no block straddles 2**32),
# and the number of blocks kept
KEY_BLOCK = 1024
_KEY_BLOCKS_CACHED = 16


def _xorshift16(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> np.uint32(16))


@lru_cache(maxsize=_KEY_BLOCKS_CACHED)
def _key_block(seed: int, stream: int, block: int) -> np.ndarray:
    """Read-only keys of the steps [block * KEY_BLOCK, (block + 1) * KEY_BLOCK).

    Row ``i`` is ``SeedSequence((seed, stream, step_i)).generate_state(2,
    np.uint64)``, with the hash run on whole columns of steps.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        return _xorshift16(value * np.uint32(const))

    steps = np.arange(block * KEY_BLOCK, (block + 1) * KEY_BLOCK, dtype=np.uint32)
    # three one-word coordinates, and a zero that pads them to the pool size
    entropy = (np.full_like(steps, seed), np.full_like(steps, stream), steps, np.zeros_like(steps))
    pool = [hashmix(word) for word in entropy]
    for src in range(len(pool)):
        for dst in range(len(pool)):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = _xorshift16(mixed)

    const = _INIT_B
    words = []
    for word in pool:
        value = word ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        words.append(_xorshift16(value * np.uint32(const)).astype(np.uint64))
    keys = np.empty((KEY_BLOCK, 2), dtype=np.uint64)
    keys[:, 0] = words[0] | words[1] << np.uint64(32)
    keys[:, 1] = words[2] | words[3] << np.uint64(32)
    keys.flags.writeable = False
    return keys


def stream_key(seed: int, stream: int, step: int) -> np.ndarray:
    """Read-only 128-bit Philox key for the substream (seed, stream, step)."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if step < 0:
        raise ValueError("step must be a non-negative integer")
    seed, stream, step = int(seed), int(stream), int(step)
    if seed < _WORD and 0 <= stream < _WORD and step < _WORD:
        return _key_block(seed, stream, step // KEY_BLOCK)[step % KEY_BLOCK]
    # a coordinate of two or more words: the few keys no block holds
    key = SeedSequence(entropy=(seed, stream, step)).generate_state(2, np.uint64)
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
    """Uniforms (k + 0.5) * 2**-53 of the top 53 bits k of each word, built in
    one new float64 block; ``raw`` is shifted in place. All lie inside (0, 1)
    but that of k = 2**53 - 1, which rounds to 1.0."""
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= _INV_2_53
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
