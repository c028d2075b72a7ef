import numpy as np
import pytest

from ellipsopt import _rng


def test_stream_keys_differ_by_any_coordinate():
    base = _rng.stream_key(3, _rng.GRAD_STREAM, 5)
    assert not np.array_equal(_rng.stream_key(3, _rng.GRAD_STREAM, 6), base)
    assert not np.array_equal(_rng.stream_key(3, _rng.EVAL_STREAM, 5), base)
    assert not np.array_equal(_rng.stream_key(4, _rng.GRAD_STREAM, 5), base)


def test_stream_key_rejects_negative():
    with pytest.raises(ValueError):
        _rng.stream_key(-1, 0, 0)


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
