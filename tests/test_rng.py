import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from ellipsopt import _rng


def test_stream_keys_differ_by_any_coordinate():
    base = _rng.stream_key(3, _rng.GRAD_STREAM, 5)
    assert not np.array_equal(_rng.stream_key(3, _rng.GRAD_STREAM, 6), base)
    assert not np.array_equal(_rng.stream_key(3, _rng.EVAL_STREAM, 5), base)
    assert not np.array_equal(_rng.stream_key(4, _rng.GRAD_STREAM, 5), base)


def test_stream_key_rejects_negative():
    with pytest.raises(ValueError):
        _rng.stream_key(-1, 0, 0)
    with pytest.raises(ValueError):
        _rng.stream_key(0, 0, -1)
    # the seed fills one key word, the step the 56 bits below the stream tag
    for coords in [(2**64, 0, 0), (0, 0, 2**56)]:
        with pytest.raises(ValueError):
            _rng.stream_key(*coords)
    top = _rng.stream_key(2**64 - 1, _rng.PROBE_STREAM, 2**56 - 1)
    assert top.dtype == np.uint64
    assert top.tolist() == [2**64 - 1, 4 * 2**56 + 2**56 - 1]


@pytest.mark.parametrize("coords", [(3, 1, 5), (3, 1, 2**32)])
def test_stream_keys_are_read_only(coords):
    key = _rng.stream_key(*coords)
    with pytest.raises(ValueError):
        key[0] = 0


def test_neighbouring_low_entropy_keys_give_uncorrelated_normals():
    count = 2**16
    base = _rng.standard_normals(_rng.stream_key(0, 0, 0), count, 1)[:, 0]
    for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        other = _rng.standard_normals(_rng.stream_key(*coords), count, 1)[:, 0]
        # the sample correlation of independent draws has sd ~ 2**-8
        assert abs(np.corrcoef(base, other)[0, 1]) < 5 * 2.0**-8, coords


def test_extreme_words_give_open_uniforms_and_finite_symmetric_normals():
    words = np.array([0, 1, 2**64 - 2**12, 2**64 - 1], dtype=np.uint64)
    u = _rng.open_uniforms(words)
    assert np.all((0.0 < u) & (u < 1.0))
    z = ndtri(u)
    assert np.all(np.isfinite(z))
    assert z[0] == z[1] == -z[2] == -z[3]
    assert z[3] == pytest.approx(8.2095, abs=1e-4)


def test_interleaved_draws_each_read_a_fresh_philox():
    keys = [_rng.stream_key(seed, stream, step)
            for seed, stream, step in [(0, 0, 0), (1, 1, 7), (2, 0, 2**32), (5, 4, 1025)]]
    for i in range(12):
        key = keys[i // 2 % len(keys)]
        count = 1 + 37 * i % 101
        raw = Philox(key=key).random_raw(count * 3)
        if i % 2:
            expected = ndtri(_rng.open_uniforms(raw.reshape(count, 3)))
            assert np.array_equal(_rng.standard_normals(key, count, 3), expected)
        else:
            upper = 1000 + i
            u = (raw[:count] >> np.uint64(11)).astype(np.float64) * 2.0**-53
            expected = np.minimum((u * upper).astype(np.int64), upper - 1)
            assert np.array_equal(_rng.uniform_indices(key, count, upper), expected)


@pytest.mark.parametrize("count", [1, 3, 4, 5, 4096, 21888])
def test_an_index_is_the_scaled_top_53_bits_of_its_word(count):
    for seed, step in [(0, 0), (7, 1), (2**64 - 1, 2**40 + 5)]:
        key = _rng.stream_key(seed, _rng.GRAD_STREAM, step)
        u = (_rng._raw_words(key, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        for upper in [1, 2, 37, 50000, 2**31 + 11, 2**53]:
            expected = np.minimum(np.floor(u * upper).astype(np.int64), upper - 1)
            idx = _rng.uniform_indices(key, count, upper)
            assert idx.dtype == np.int64 and np.array_equal(idx, expected), (seed, step, upper)


def test_normals_are_deterministic_and_standard():
    key = _rng.stream_key(9, _rng.GRAD_STREAM, 2)
    a = _rng.standard_normals(key, 20000, 2)
    b = _rng.standard_normals(key, 20000, 2)
    assert np.array_equal(a, b)
    flat = a.ravel()
    assert abs(flat.mean()) < 0.02
    assert abs(flat.std() - 1.0) < 0.02


def test_uniform_indices_bounds_and_determinism():
    key = _rng.stream_key(1, _rng.DATA_STREAM, 0)
    idx = _rng.uniform_indices(key, 50000, 37)
    assert idx.min() >= 0 and idx.max() < 37
    # roughly uniform occupancy
    counts = np.bincount(idx, minlength=37)
    assert counts.min() > 50000 / 37 * 0.8
    assert np.array_equal(_rng.uniform_indices(key, 50000, 37), idx)


def test_normals_read_contiguous_words_per_element():
    key = _rng.stream_key(2, _rng.GRAD_STREAM, 7)
    wide = _rng.standard_normals(key, 301, 5)
    assert np.array_equal(wide, _rng.standard_normals(key, 301 * 5, 1).reshape(301, 5))


@pytest.mark.parametrize("count", [1, 7, 4096])
def test_a_shorter_draw_is_a_prefix_of_a_longer_one(count):
    key = _rng.stream_key(5, _rng.EVAL_STREAM, 3)
    assert np.array_equal(_rng.standard_normals(key, 2 * count, 3)[:count],
                          _rng.standard_normals(key, count, 3))
    assert np.array_equal(_rng.uniform_indices(key, 2 * count, 1000)[:count],
                          _rng.uniform_indices(key, count, 1000))


def _serial_normals(key, count, dims):
    raw = Philox(key=key).random_raw(count * dims)
    return ndtri(_rng.open_uniforms(raw)).reshape(count, dims)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_split_draws_equal_the_serial_draw_around_each_split_size(monkeypatch, cpus):
    monkeypatch.setattr(_rng, "_CPUS", cpus)
    ranges, fill = [], _rng._normals_into

    def recording(key, flat, first, stop, part):
        fill(key, flat, first, stop, part)
        ranges.append((first, stop, part))

    monkeypatch.setattr(_rng, "_normals_into", recording)
    key = _rng.stream_key(7, _rng.GRAD_STREAM, 11)
    least = _rng._MIN_PART_WORDS
    for parts in range(2, 5):
        for total in (parts * least - 1, parts * least, parts * least + 1):
            ranges.clear()
            assert np.array_equal(_rng.standard_normals(key, total, 1),
                                  _serial_normals(key, total, 1)), total
            # word ranges that tile the draw, each starting on a Philox block
            assert len(ranges) == max(1, min(cpus, total // least))
            ranges.sort()
            assert [r[2] for r in ranges] == list(range(len(ranges)))
            assert [r[0] for r in ranges] == [0] + [r[1] for r in ranges[:-1]]
            assert ranges[-1][1] == total
            assert all(first % 4 == 0 for first, _, _ in ranges)


@pytest.mark.parametrize("dims", range(1, 8))
def test_split_draws_of_any_width_equal_the_serial_draw(monkeypatch, dims):
    monkeypatch.setattr(_rng, "_CPUS", 3)
    key = _rng.stream_key(dims, _rng.EVAL_STREAM, 2**40 + dims)
    for count in (3 * _rng._MIN_PART_WORDS // dims + 1, 2 * _rng._MIN_PART_WORDS // dims + 5):
        # an odd count: most totals are then a multiple neither of 4 nor of the part count
        count |= 1
        expected = _serial_normals(key, count, dims)
        assert np.array_equal(_rng.standard_normals(key, count, dims), expected), count
        # and a split draw is still a prefix of a longer one
        assert np.array_equal(_rng.standard_normals(key, 2 * count, dims)[:count], expected)


@pytest.mark.parametrize("failing_part", [0, 1, 2])
def test_a_failing_part_is_awaited_and_the_next_draw_is_intact(monkeypatch, failing_part):
    monkeypatch.setattr(_rng, "_CPUS", 3)
    fill, finished = _rng._normals_into, []

    def failing(key, flat, first, stop, part):
        if part == failing_part:
            raise MemoryError(f"part {part}")
        fill(key, flat, first, stop, part)
        finished.append(part)

    monkeypatch.setattr(_rng, "_normals_into", failing)
    key = _rng.stream_key(3, _rng.GRAD_STREAM, 9)
    count = 3 * _rng._MIN_PART_WORDS + 5
    with pytest.raises(MemoryError, match=f"part {failing_part}"):
        _rng.standard_normals(key, count, 1)
    # every other part had finished writing before the error reached the caller
    assert sorted(finished) == sorted({0, 1, 2} - {failing_part})
    monkeypatch.setattr(_rng, "_normals_into", fill)
    assert np.array_equal(_rng.standard_normals(key, count, 1), _serial_normals(key, count, 1))


def test_split_draws_hold_with_more_threads_than_cpus_and_short_switches(monkeypatch):
    monkeypatch.setattr(_rng, "_CPUS", 2 * os.cpu_count() + 1)
    # a pool of its own, sized by the patched CPU count
    monkeypatch.setattr(_rng, "_POOL", _rng._thread_pool())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in range(8):
            key = _rng.stream_key(4, _rng.GRAD_STREAM, step)
            count = (2 + step) * _rng._MIN_PART_WORDS + step
            assert np.array_equal(_rng.standard_normals(key, count, 1),
                                  _serial_normals(key, count, 1)), step
    finally:
        sys.setswitchinterval(interval)
        _rng._POOL.shutdown()


_FORK_CHILD = textwrap.dedent("""
    import multiprocessing
    from ellipsopt import _rng

    _rng._CPUS = 2
    key = _rng.stream_key(1, _rng.GRAD_STREAM, 3)
    count = 2 * _rng._MIN_PART_WORDS + 1
    # the parent's pool has run a part before the fork
    parent = _rng.standard_normals(key, count, 1).tobytes()
    parent_indices = _rng.uniform_indices(key, 4096, 50000).tobytes()

    def draw(conn):
        conn.send_bytes(_rng.standard_normals(key, count, 1).tobytes())
        conn.send_bytes(_rng.uniform_indices(key, 4096, 50000).tobytes())

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    # daemonic, so that a child that hangs ends with this process
    child = ctx.Process(target=draw, args=(send,), daemon=True)
    child.start()
    assert receive.poll(30), "the forked child's split draw did not finish"
    assert receive.recv_bytes() == parent
    assert receive.poll(30), "the forked child's index draw did not finish"
    assert receive.recv_bytes() == parent_indices
    child.join(30)
    assert child.exitcode == 0, child.exitcode
    print("same bits")
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")
def test_a_forked_child_draws_the_same_bits_with_its_own_pool():
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", _FORK_CHILD], env=env, capture_output=True,
                         text=True, timeout=90)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "same bits"


@pytest.mark.parametrize("count, dims", [(1, 3), (1, 1), (999, 1), (21888, 2), (4097, 7)])
def test_pairwise_mean_is_layout_free_and_within_the_pairwise_bound(count, dims):
    rows = np.random.default_rng(count + dims).standard_normal((count, dims)) + 0.25
    mean = _rng.pairwise_mean(np.ascontiguousarray(rows))
    assert mean.shape == (dims,)
    assert mean.tobytes() == _rng.pairwise_mean(np.asfortranarray(rows)).tobytes()
    # numpy's pairwise sum passes a term through at most 25 additions within
    # a 128-term block and one per halving above it; the mean and the fsum
    # reference are each rounded once more
    depth = 25 + max(0, math.ceil(math.log2(count / 128)))
    exact = np.array([math.fsum(column) / count for column in rows.T])
    bound = (depth + 2) * 2.0**-53 * np.abs(rows).mean(axis=0)
    assert np.all(np.abs(mean - exact) <= bound)
