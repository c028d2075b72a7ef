import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pairwise_sum_is_chunking_invariant(size, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(size, 3))
    total = _rng.pairwise_sum(rows)
    # any split point must reproduce the same bits via the shared tree shape
    for cut in {1, size // 2, max(size - 1, 1)}:
        if 0 < cut < size:
            merged = _rng.pairwise_sum(
                np.vstack([_rng.pairwise_sum(rows[:cut])[None, :], _rng.pairwise_sum(rows[cut:])[None, :]])
            )
            # identical only when the cut aligns with the tree boundary;
            # the oracle path's bits are pinned in test_oracles
            assert np.allclose(merged, total, rtol=1e-12, atol=1e-12)
    assert _rng.pairwise_mean(rows) == pytest.approx(total / size, rel=1e-15, abs=1e-300)


def test_pairwise_mean_matches_numpy_within_float():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(1025, 4))
    assert np.allclose(_rng.pairwise_mean(rows), rows.mean(axis=0), atol=1e-12)
