import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsopt.geometry import (
    Ball,
    Box,
    DegenerateEllipsoidError,
    Ellipsoid,
    ellipsoid_step,
    linear_optimality_gap,
    shape_det_ratio,
)


def test_single_step_matches_hand_computation():
    # unit ball in the plane, cut along the first axis
    ell = Ellipsoid(np.zeros(2), np.eye(2))
    nxt = ellipsoid_step(ell, np.array([1.0, 0.0]))
    assert np.allclose(nxt.center, [-1.0 / 3.0, 0.0], atol=1e-15)
    assert np.allclose(nxt.shape, np.diag([4.0 / 9.0, 4.0 / 3.0]), atol=1e-15)


def test_det_ratio_closed_form():
    assert shape_det_ratio(2) == pytest.approx(16.0 / 27.0, rel=1e-15)
    for n in (2, 3, 7, 20):
        expected = (n * n / (n * n - 1.0)) ** n * (n - 1.0) / (n + 1.0)
        assert shape_det_ratio(n) == pytest.approx(expected, rel=1e-14)


def test_step_determinant_tracks_formula():
    rng = np.random.default_rng(0)
    for n in (2, 5, 13):
        ell = Ellipsoid(rng.normal(size=n), np.eye(n) * 4.0)
        for _ in range(30):
            nxt = ellipsoid_step(ell, rng.normal(size=n))
            assert nxt.log_det_shape() - ell.log_det_shape() == pytest.approx(
                math.log(shape_det_ratio(n)), abs=1e-10
            )
            ell = nxt


def test_step_scale_invariance():
    # the cut uses only the direction of w, never its length
    ell = Ellipsoid(np.array([0.5, -1.0, 2.0]), np.diag([1.0, 2.0, 0.5]))
    w = np.array([0.3, -1.2, 0.7])
    a = ellipsoid_step(ell, w)
    b = ellipsoid_step(ell, w * 1e6)
    assert np.allclose(a.center, b.center, rtol=1e-12)
    assert np.allclose(a.shape, b.shape, rtol=1e-12)


def test_step_rejects_zero_direction():
    ell = Ellipsoid(np.zeros(2), np.eye(2))
    with pytest.raises((ValueError, DegenerateEllipsoidError)):
        ellipsoid_step(ell, np.zeros(2))


def test_long_chain_stays_positive_definite():
    rng = np.random.default_rng(42)
    ell = Ellipsoid(np.zeros(4), np.eye(4))
    for _ in range(200):
        ell = ellipsoid_step(ell, rng.normal(size=4))
    evals = np.linalg.eigvalsh(ell.shape)
    assert evals.min() > 0
    assert np.allclose(ell.shape, ell.shape.T)
    # the step never symmetrizes: an exactly symmetric shape stays so
    factor = rng.normal(size=(4, 4))
    ell = Ellipsoid(np.zeros(4), factor @ factor.T + np.eye(4))
    for _ in range(1000):
        ell = ellipsoid_step(ell, rng.normal(size=4))
        assert np.array_equal(ell.shape, ell.shape.T)
    # construction makes a nearly symmetric shape exactly symmetric
    nearly = Ellipsoid(np.zeros(2), np.array([[2.0, 0.5], [0.5 + 1e-13, 1.0]]))
    assert np.array_equal(nearly.shape, nearly.shape.T)


def _formula_step(c, H, w):
    """One cut step as the closed-form update reads, one temporary per operation."""
    n = c.shape[0]
    hw = H @ w
    s = float(w @ hw)
    center = c - hw / ((n + 1.0) * np.sqrt(s))
    scale = n * n / (n * n - 1.0)
    return center, scale * (H - (2.0 / (n + 1.0)) * np.outer(hw, hw) / s)


@pytest.mark.parametrize("n", [2, 20, 55])
def test_step_equals_the_formula_bit_for_bit_over_long_chains(n):
    rng = np.random.default_rng(n)
    ell = Ellipsoid(np.zeros(n), 100.0 * np.eye(n))
    c, H = ell.center, ell.shape
    for _ in range(300):
        w = rng.normal(size=n)
        ell = ellipsoid_step(ell, w)
        c, H = _formula_step(c, H, w)
        assert ell.center.tobytes() == c.tobytes()
        assert ell.shape.tobytes() == H.tobytes()


def test_ellipsoid_validates_inputs():
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), -np.eye(2))


class TestBox:
    def test_geometry_constants(self):
        box = Box.centered(3, 2.0)
        assert box.inner_radius == pytest.approx(2.0)
        assert box.bounding_ball.radius == pytest.approx(2.0 * math.sqrt(3.0))
        assert box.diameter == pytest.approx(4.0 * math.sqrt(3.0))

    def test_separation_most_violated_coordinate(self):
        box = Box.centered(2, 1.0)
        w = box.separation_hyperplane(np.array([3.0, -1.5]))
        assert np.allclose(w, [1.0, 0.0])

    def test_separation_tie_breaks_to_lowest_index(self):
        box = Box.centered(3, 1.0)
        w = box.separation_hyperplane(np.array([2.0, 2.0, 2.0]))
        assert np.allclose(w, [1.0, 0.0, 0.0])

    def test_separating_plane_excludes_set(self):
        box = Box.centered(4, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=4)
            if box.contains(x):
                continue
            w = box.separation_hyperplane(x)
            corners = box.extreme_points()
            assert (corners @ w).max() <= float(w @ x) + 1e-12

    def test_support_points_are_corners(self):
        box = Box.centered(2, 1.5)
        assert np.allclose(box.support_point(np.array([1.0, -2.0])), [1.5, -1.5])

    def test_a_box_above_the_enumeration_limit_gives_2n_distinct_corners(self):
        n = 13
        box = Box(-np.arange(1.0, n + 1), np.arange(1.0, n + 1) ** 2)
        corners = box.extreme_points()
        assert corners.shape == (2 * n, n)
        assert len(np.unique(corners, axis=0)) == 2 * n
        # every coordinate of every point is one of that coordinate's two bounds
        assert np.all((corners == box.lower) | (corners == box.upper))


class TestBall:
    def test_projection_and_separation(self):
        ball = Ball(np.zeros(3), 2.0)
        out = np.array([6.0, 0.0, 0.0])
        assert np.allclose(ball.project(out), [2.0, 0.0, 0.0])
        w = ball.separation_hyperplane(out)
        assert np.allclose(w / np.linalg.norm(w), [1.0, 0.0, 0.0])

    def test_projection_scales_by_the_norm_bit_for_bit(self):
        ball = Ball(np.array([0.3, -1.0, 2.0]), 1.5)
        rows = np.random.default_rng(6).normal(size=(200, 3)) * 3.0
        for row in rows:
            offset = row - ball.center
            dist = np.linalg.norm(offset)
            expected = row if dist <= 1.5 else ball.center + offset * (1.5 / dist)
            assert np.array_equal(ball.project(row), expected)

    def test_support_point(self):
        ball = Ball(np.array([1.0, 0.0]), 3.0)
        assert np.allclose(ball.support_point(np.array([0.0, 2.0])), [1.0, 3.0])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=-5, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_projection_idempotent_and_nonexpansive(dim, shift, seed):
    rng = np.random.default_rng(seed)
    ball = Ball(np.full(dim, shift), 1.5)
    x = rng.normal(size=dim) * 4.0
    y = rng.normal(size=dim) * 4.0
    px, py = ball.project(x), ball.project(y)
    assert ball.contains(px)
    assert np.allclose(ball.project(px), px, atol=1e-12)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("feasible_set", [Ball(np.array([1.0, -2.0, 0.5]), 2.0),
                                          Box([-1.0, -3.0, 0.0], [2.0, 1.0, 0.5])],
                         ids=["ball", "box"])
def test_projecting_a_block_equals_projecting_each_row(feasible_set):
    rng = np.random.default_rng(4)
    # rows outside, inside, on the boundary, and one at the center (distance 0)
    rows = np.vstack([rng.normal(size=(40, 3)) * 4.0, feasible_set.bounding_ball.center,
                      feasible_set.project(rng.normal(size=3) * 9.0)])
    with np.errstate(all="raise"):
        block = feasible_set.project(rows)
        assert block.shape == rows.shape
        for row, projected in zip(rows, block):
            assert np.array_equal(projected, feasible_set.project(row))
        assert np.array_equal(feasible_set.project(rows[:1]), block[:1])
    rows[7, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        feasible_set.project(rows)
    with pytest.raises(ValueError, match="block"):
        feasible_set.project(rows[None])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_box_projection_clips(dim, seed):
    rng = np.random.default_rng(seed)
    box = Box.centered(dim, 1.0)
    x = rng.normal(size=dim) * 3.0
    p = box.project(x)
    assert box.contains(p)
    assert np.allclose(p, np.clip(x, -1.0, 1.0))


def test_sets_reject_one_dimension():
    with pytest.raises(ValueError):
        Ball(np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        Box.centered(1, 1.0)


def test_linear_optimality_gap_certifies_optimum():
    ball = Ball(np.zeros(2), 1.0)
    g = np.array([0.0, 2.0])
    # at the support point of -g the linearization cannot improve
    x_opt = ball.support_point(-g)
    assert linear_optimality_gap(ball, x_opt, g) == pytest.approx(0.0, abs=1e-12)
    assert linear_optimality_gap(ball, np.zeros(2), g) == pytest.approx(2.0, rel=1e-12)
