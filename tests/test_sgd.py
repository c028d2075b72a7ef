import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ellipsopt.geometry import Ball, Box
from ellipsopt.oracles import BatchSpec, GaussianOracle, minibatch_gradient
from ellipsopt.problems import LogisticProblem, QuadraticProblem, generate_synthetic
from ellipsopt.sgd import SgdConfig, default_step_grid, sgd_run

SWEEP = (0.01, 0.1, 0.5, 1.0, 1.5)


def exact_oracle(problem, dim):
    return GaussianOracle(problem.objective_and_gradient, dim, sigma=0.0)


def test_single_step_matches_hand_computation():
    # theta1 = project(theta0 - alpha * grad), grad of ||x||^2 at (1,1) is (2,2);
    # the run starts at the ball's center (1,1)
    ball = Ball(np.ones(2), 10.0)
    problem = QuadraticProblem(np.zeros(2), ball)
    oracle = exact_oracle(problem, 2)
    config = SgdConfig(step_sizes=(0.4,), iterations=1, batch_size=1, seed=0)
    [report] = sgd_run(oracle, ball, config)
    assert np.allclose(report.best_point, [0.2, 0.2], atol=1e-12)


def test_projection_keeps_iterates_feasible():
    ball = Ball(np.zeros(2), 0.5)
    problem = QuadraticProblem(np.array([5.0, 0.0]), ball)  # pulls outward
    oracle = exact_oracle(problem, 2)
    config = SgdConfig(step_sizes=(0.3,), iterations=50, batch_size=1, seed=0)
    [report] = sgd_run(oracle, ball, config)
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
    config = SgdConfig(step_sizes=(0.5,), iterations=20, batch_size=4, seed=0)
    [report] = sgd_run(oracle, feasible_set, config)
    assert report.iterations == 20
    for rec in report.records:
        assert feasible_set.contains(rec.center)
    assert feasible_set.contains(report.best_point)


def test_non_finite_gradient_raises():
    oracle = GaussianOracle(lambda x: (0.0, np.array([np.inf, 0.0])), 2, sigma=0.0)
    config = SgdConfig(step_sizes=(0.1,), iterations=3, batch_size=1, seed=0)
    with pytest.raises(ValueError, match="finite"):
        sgd_run(oracle, Ball(np.zeros(2), 1.0), config)


def test_reports_the_last_iterate_deterministically():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.array([0.4, 0.3]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.3)
    config = SgdConfig(step_sizes=(0.1,), iterations=40, batch_size=8, seed=5)
    [a] = sgd_run(oracle, ball, config)
    [b] = sgd_run(oracle, ball, config)
    assert np.array_equal(a.best_point, b.best_point)
    assert a.best_estimate == b.best_estimate
    # the reported point is the step after the last recorded iterate,
    # scored on one fresh batch of batch_size draws
    last = a.records[-1]
    step, _ = minibatch_gradient(oracle, last.center, BatchSpec(8, 5), step=last.index)
    assert np.array_equal(a.best_point, ball.project(last.center - 0.1 * step))
    assert a.batch_size == 8 and a.eval_draws == 8


def test_default_step_grid_values():
    grid = default_step_grid(2.0, 4.0)
    assert grid == pytest.approx((0.0005, 0.005, 0.05, 0.25, 0.5))
    with pytest.raises(ValueError):
        default_step_grid(0.0, 1.0)


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(step_sizes=(-0.1,), iterations=10)
    with pytest.raises(ValueError):
        SgdConfig(step_sizes=(0.1,), iterations=0)
    with pytest.raises(ValueError):
        SgdConfig(step_sizes=(0.1,), iterations=10, batch_size=0)
    with pytest.raises(ValueError):
        SgdConfig(step_sizes=(0.1,), iterations=10, seed=-1)


@pytest.mark.parametrize("step_sizes", [(), (0.1, math.nan), (math.inf,), (0.1, -1e-9)],
                         ids=["empty", "nan", "inf", "negative"])
def test_sgd_config_rejects_bad_sweeps(step_sizes):
    with pytest.raises(ValueError, match="sweep"):
        SgdConfig(step_sizes=step_sizes, iterations=10)


def _same_run(a, b):
    assert np.array_equal(a.best_point, b.best_point)
    assert a.best_estimate == b.best_estimate
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.center, rb.center) and ra.f_estimate == rb.f_estimate


def test_each_gaussian_sweep_entry_equals_its_own_run_bit_for_bit():
    ball = Ball(np.array([0.5, -0.5, 0.25]), 2.0)
    problem = QuadraticProblem(np.array([1.0, 0.3, -1.2]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 3, sigma=0.3)
    reports = sgd_run(oracle, ball, SgdConfig(SWEEP, iterations=60, batch_size=8, seed=3))
    assert len(reports) == len(SWEEP)
    for alpha, report in zip(SWEEP, reports):
        # each entry's centers are a C-contiguous (N, n) block, the layout the
        # full-data passes of the test curves were pinned with
        assert report.records.centers.shape == (60, 3) and report.records.centers.flags.c_contiguous
        [alone] = sgd_run(oracle, ball, SgdConfig((alpha,), iterations=60, batch_size=8, seed=3))
        _same_run(report, alone)


def _logistic(m=2000, n=10):
    dataset, _ = generate_synthetic(m, n, seed=1)
    problem = LogisticProblem(dataset, weight_radius=10.0)
    return problem.oracle(), problem.feasible_set


def test_a_logistic_one_entry_sweep_is_the_projected_minibatch_step_bit_for_bit():
    oracle, ball = _logistic()
    batch = BatchSpec(16, 4)
    [report] = sgd_run(oracle, ball, SgdConfig((2.5,), iterations=80, batch_size=16, seed=4))
    centers = [rec.center for rec in report.records] + [report.best_point]
    for k, rec in enumerate(report.records):
        gradient, value = minibatch_gradient(oracle, rec.center, batch, step=k)
        assert rec.f_estimate == value
        assert np.array_equal(centers[k + 1], ball.project(rec.center - 2.5 * gradient))


def _logistic_sweep_bits() -> str:
    """A hash of every iterate, estimate and returned point of a 5-wide
    logistic sweep at n=55 and r=4096."""
    oracle, ball = _logistic(m=5000, n=55)
    h = hashlib.sha256()
    for report in sgd_run(oracle, ball, SgdConfig(SWEEP, iterations=20, batch_size=4096, seed=2)):
        for rec in report.records:
            h.update(rec.center.tobytes())
            h.update(float(rec.f_estimate).hex().encode())
        h.update(report.best_point.tobytes())
        h.update(float(report.best_estimate).hex().encode())
    return h.hexdigest()


def test_the_logistic_sweep_has_the_same_bits_under_one_and_two_blas_threads():
    root = Path(__file__).resolve().parent
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(root.parent / "src"), str(root),
                                                           os.environ.get("PYTHONPATH")])))
        code = "import test_sgd; print(test_sgd._logistic_sweep_bits())"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout.strip())
    assert outputs[0] == outputs[1]


def test_a_non_finite_step_in_one_entry_raises():
    # the gradient at the start (1, 1) is (2, 2), and 1e308 * 2 overflows
    ball = Ball(np.ones(2), 10.0)
    oracle = exact_oracle(QuadraticProblem(np.zeros(2), ball), 2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        sgd_run(oracle, ball, SgdConfig((0.1, 1e308, 0.2), iterations=3, batch_size=1))
