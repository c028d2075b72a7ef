import numpy as np
import pytest

from ellipsopt.geometry import Ball, Box
from ellipsopt.oracles import BatchSpec, GaussianOracle, minibatch_gradient
from ellipsopt.problems import QuadraticProblem
from ellipsopt.sgd import SgdConfig, default_step_grid, sgd_run


def exact_oracle(problem, dim):
    return GaussianOracle(problem.objective_and_gradient, dim, sigma=0.0)


def test_single_step_matches_hand_computation():
    # theta1 = project(theta0 - alpha * grad), grad of ||x||^2 at (1,1) is (2,2);
    # the run starts at the ball's center (1,1)
    ball = Ball(np.ones(2), 10.0)
    problem = QuadraticProblem(np.zeros(2), ball)
    oracle = exact_oracle(problem, 2)
    config = SgdConfig(step_size=0.4, iterations=1, batch_size=1, seed=0)
    report = sgd_run(oracle, ball, config)
    assert np.allclose(report.best_point, [0.2, 0.2], atol=1e-12)


def test_projection_keeps_iterates_feasible():
    ball = Ball(np.zeros(2), 0.5)
    problem = QuadraticProblem(np.array([5.0, 0.0]), ball)  # pulls outward
    oracle = exact_oracle(problem, 2)
    config = SgdConfig(step_size=0.3, iterations=50, batch_size=1, seed=0)
    report = sgd_run(oracle, ball, config)
    for rec in report.records:
        assert np.linalg.norm(rec.center) <= 0.5 * (1 + 1e-9)
    assert np.allclose(report.best_point, [0.5, 0.0], atol=1e-6)


@pytest.mark.parametrize(
    "feasible_set",
    [Ball(np.array([5000.0, 0.0]), 1.0), Box([2000.0, 0.0], [2001.0, 1.0])],
    ids=["ball", "box"],
)
def test_sets_far_from_the_origin_run_with_feasible_iterates(feasible_set):
    # sets far from the origin relative to their size run like any other
    problem = QuadraticProblem(np.zeros(2), feasible_set)  # pulls toward the origin
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.1)
    config = SgdConfig(step_size=0.5, iterations=20, batch_size=4, seed=0)
    report = sgd_run(oracle, feasible_set, config)
    assert report.iterations == 20
    for rec in report.records:
        assert feasible_set.contains(rec.center)
    assert feasible_set.contains(report.best_point)


def test_non_finite_gradient_raises():
    oracle = GaussianOracle(lambda x: (0.0, np.array([np.inf, 0.0])), 2, sigma=0.0)
    config = SgdConfig(step_size=0.1, iterations=3, batch_size=1, seed=0)
    with pytest.raises(ValueError, match="finite"):
        sgd_run(oracle, Ball(np.zeros(2), 1.0), config)


def test_reports_the_last_iterate_deterministically():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.array([0.4, 0.3]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.3)
    config = SgdConfig(step_size=0.1, iterations=40, batch_size=8, seed=5)
    a = sgd_run(oracle, ball, config)
    b = sgd_run(oracle, ball, config)
    assert np.array_equal(a.best_point, b.best_point)
    assert a.best_estimate == b.best_estimate
    # the reported point is the step after the last recorded iterate,
    # scored on one fresh batch of batch_size draws
    last = a.records[-1]
    step = minibatch_gradient(oracle, last.center, BatchSpec(8, 5), step=last.index).gradient
    assert np.array_equal(a.best_point, ball.project(last.center - 0.1 * step))
    assert a.batch_size == 8 and a.eval_draws == 8


def test_default_step_grid_values():
    grid = default_step_grid(2.0, 4.0)
    assert grid == pytest.approx((0.0005, 0.005, 0.05, 0.25, 0.5))
    with pytest.raises(ValueError):
        default_step_grid(0.0, 1.0)


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(step_size=-0.1, iterations=10)
    with pytest.raises(ValueError):
        SgdConfig(step_size=0.1, iterations=0)
    with pytest.raises(ValueError):
        SgdConfig(step_size=0.1, iterations=10, batch_size=0)
    with pytest.raises(ValueError):
        SgdConfig(step_size=0.1, iterations=10, seed=-1)
