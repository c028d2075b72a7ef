"""Deterministic counter-based random streams.

Every stochastic draw in this package is keyed by (seed, stream, step) and a
batch-element index. A substream's 128-bit Philox key is the word pair
``(seed, stream << 56 | step)``: distinct keys give independent Philox
streams, so the coordinates need no hashing. Element ``l`` of a
``dims``-wide draw reads the 64-bit words ``[l * dims, (l + 1) * dims)`` of
its substream, so a shorter draw is a prefix of a longer one. Normals come
from the inverse CDF of uniforms strictly inside (0, 1), a fixed consumption
per element unlike rejection samplers. An index on [0, upper) is
min(floor(u * upper), upper - 1) with u = (word >> 11) * 2**-53, the double
numpy's ``Generator.random`` makes of a word. Philox is counter-based, so any range
of a substream's words can be generated on its own: a large normal draw is
split into word ranges, one per CPU, each drawn and converted on its own
thread into its slice of one block. Every step works element by element, so
the bits do not depend on the number of CPUs. A batch mean sums each column
of its block pairwise as one contiguous run, so its rounding is fixed by the
batch shape.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

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


# one generator per part of a draw, re-keyed for every draw: resetting its
# state costs a seventh of constructing a Philox. Part 0 runs on the calling
# thread and its generator also serves the index draws, through a Generator
# wrapped around it. The package draws from one thread at a time.
_GENERATORS: list[Philox] = [Philox(0)]
_UNIFORMS = np.random.Generator(_GENERATORS[0])
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# fewest words in a part of a split draw: handing a part to a thread costs ~30 µs
_MIN_PART_WORDS = 1 << 14


def _thread_pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max(1, _CPUS - 1), thread_name_prefix="ellipsopt-rng")


# runs parts 1 and up of a split draw; it starts its threads on the first one
_POOL = _thread_pool()


def _after_fork_in_child() -> None:
    # a forked child has none of the parent's threads: the inherited pool would
    # queue parts that no thread runs, and a generator could be left locked
    global _POOL, _UNIFORMS
    _POOL = _thread_pool()
    _GENERATORS[:] = [Philox(0)]
    _UNIFORMS = np.random.Generator(_GENERATORS[0])


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _keyed(key: np.ndarray, first: int = 0, part: int = 0) -> Philox:
    """The generator of ``part``, set to read ``Philox(key=key)`` from word
    ``first``, a multiple of 4 (one Philox block)."""
    counter = _ZERO_WORDS if first == 0 else np.array([first // 4, 0, 0, 0], dtype=np.uint64)
    philox = _GENERATORS[part]
    philox.state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                    "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return philox


def _raw_words(key: np.ndarray, count: int, first: int = 0, part: int = 0) -> np.ndarray:
    """The words ``[first, first + count)`` of ``Philox(key=key)``."""
    return _keyed(key, first, part).random_raw(count)


def generator(seed: int, stream: int) -> np.random.Generator:
    """numpy Generator for a stream not keyed by step: data, splits, probes."""
    return np.random.default_rng(SeedSequence((int(seed), stream)))


def open_uniforms(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms (k + 0.5) * 2**-52 of the top 52 bits k of each word, built in
    ``out`` (a new float64 block when None); ``raw`` is shifted in place. Each
    is exact and lies in [2**-53, 1 - 2**-53], so its normal is finite,
    within ±8.2095."""
    raw >>= np.uint64(12)
    u = np.empty(raw.shape) if out is None else out
    np.copyto(u, raw)
    u += 0.5
    u *= _INV_2_52
    return u


def _normals_into(key: np.ndarray, flat: np.ndarray, first: int, stop: int, part: int) -> None:
    """Writes the normals of the words ``[first, stop)`` of ``key`` into ``flat[first:stop]``."""
    u = open_uniforms(_raw_words(key, stop - first, first, part), out=flat[first:stop])
    ndtri(u, out=u)


def standard_normals(key: np.ndarray, count: int, dims: int) -> np.ndarray:
    """(count, dims) standard normals, one row per batch element.

    A draw of at least two parts' worth of words is split into up to one
    word range per CPU, each starting on a Philox block. The calling thread
    fills part 0 and the pool the others; the call returns or raises only
    once every part has stopped writing.
    """
    total = count * dims
    flat = np.empty(total)
    parts = max(1, min(_CPUS, total // _MIN_PART_WORDS))
    if parts == 1:
        _normals_into(key, flat, 0, total, 0)
        return flat.reshape(count, dims)
    bounds = [total * p // parts // 4 * 4 for p in range(parts)] + [total]
    _GENERATORS.extend(Philox(0) for _ in range(len(_GENERATORS), parts))
    futures = []
    try:
        for p in range(1, parts):
            futures.append(_POOL.submit(_normals_into, key, flat, bounds[p], bounds[p + 1], p))
        _normals_into(key, flat, 0, bounds[1], 0)
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return flat.reshape(count, dims)


def uniform_indices(key: np.ndarray, count: int, upper: int) -> np.ndarray:
    """(count,) integers uniform on [0, upper), one per batch element."""
    _keyed(key)
    u = _UNIFORMS.random(count)  # (word >> 11) * 2**-53, in one pass
    u *= upper
    idx = u.astype(np.int64)
    return np.minimum(idx, upper - 1, out=idx)


def pairwise_mean(rows: np.ndarray) -> np.ndarray:
    """Column means of a (count, dims) block, each column copied into one
    contiguous run and summed pairwise: the bits depend only on the shape."""
    return np.ascontiguousarray(rows.T).mean(axis=1)
