import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsopt.geometry import Ball, Box, linear_optimality_gap, shape_det_ratio
from ellipsopt.oracles import BatchSpec, GaussianOracle, PerturbedOracle
from ellipsopt.problems import LinearProblem, QuadraticProblem
from ellipsopt.reporting import (
    CUT_SEPARATION,
    TERMINATION_BUDGET,
    TERMINATION_CERTIFIED,
    TERMINATION_ZERO_GRAD,
)
from ellipsopt.solver import (
    NoFeasiblePointError,
    SolverConfig,
    _select_candidates,
    estimate_value_range,
    iteration_budget,
    resolve_plan,
    solve,
    theoretical_gap,
)


def test_iteration_budget_frozen_value():
    # ceil(2 * 4 * ln(2 * 4 / (0.5 * 0.1))) = ceil(8 ln 160) = 41
    assert iteration_budget(2, 2.0, 4.0, 0.5, 0.1) == 41


def test_iteration_budget_trivial_target_is_zero():
    assert iteration_budget(3, 1.0, 1.0, 1.0, 2.0) == 0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_iteration_budget_monotone_in_accuracy(dim, value_range, diameter):
    loose = iteration_budget(dim, diameter, value_range, 0.5, 0.2)
    tight = iteration_budget(dim, diameter, value_range, 0.5, 0.02)
    assert tight >= loose


def test_theoretical_gap_shrinks_with_budget():
    gaps = [theoretical_gap(3, N, 2.0, 1.0, 0.5) for N in (0, 18, 180)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert theoretical_gap(3, 0, 2.0, 1.0, 0.5, delta=0.7) == pytest.approx(
        4.0 + 0.7, rel=1e-12
    )


def test_noiseless_quadratic_converges():
    ball = Ball(np.zeros(2), 1.5)
    problem = QuadraticProblem(np.array([0.4, -0.3]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.0)
    report = solve(oracle, ball, SolverConfig(eps=1e-6, sigma=0.0, seed=0))
    gap = problem.objective(report.best_point) - problem.reference()[1]
    assert gap <= 1e-6
    # exact gradients may trip the zero-gradient exit before the budget ends
    assert report.termination in (TERMINATION_BUDGET, TERMINATION_ZERO_GRAD)
    assert report.batch_size == 1


def test_infeasible_centers_take_separation_cuts():
    # optimum at a corner far from the bounding ball's center keeps some
    # centers outside the box, so both cut kinds appear in the trace
    box = Box.centered(2, 1.0)
    problem = LinearProblem(np.array([-1.0, -2.0]), box)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.0)
    report = solve(oracle, box, SolverConfig(eps=1e-4, sigma=0.0, seed=1))
    kinds = {rec.cut_kind for rec in report.records}
    assert CUT_SEPARATION in kinds
    gap = problem.objective(report.best_point) - problem.reference()[1]
    assert gap <= 1e-4
    for rec in report.records:
        if not rec.feasible:
            assert rec.f_estimate is None


def test_trace_logdet_follows_fixed_shift():
    ball = Ball(np.zeros(3), 1.0)
    problem = QuadraticProblem(np.array([0.2, 0.1, -0.4]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 3, sigma=0.0)
    report = solve(oracle, ball, SolverConfig(eps=1e-3, sigma=0.0, seed=0))
    shift = math.log(shape_det_ratio(3))
    lds = [rec.log_det_shape for rec in report.records]
    for prev, cur in zip(lds, lds[1:]):
        assert cur - prev == pytest.approx(shift, abs=1e-8)


def test_noisy_run_meets_eps_with_margin():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.array([0.3, 0.2]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.25)
    config = SolverConfig(eps=0.05, beta=0.2, sigma=0.25, seed=7)
    report = solve(oracle, ball, config)
    gap = problem.objective(report.best_point) - problem.reference()[1]
    assert gap <= 0.05
    assert report.batch_size > 1000  # the concentration bound demands a big batch
    assert report.grad_draws == report.batch_size * sum(
        1 for r in report.records if r.cut_kind != CUT_SEPARATION
    )


def test_zero_gradient_exits_early_with_current_center():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.zeros(2), ball)  # optimum at the start center
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.0)
    report = solve(oracle, ball, SolverConfig(eps=1e-8, sigma=0.0, seed=0))
    assert report.termination == TERMINATION_ZERO_GRAD
    assert report.iterations == 1
    assert np.allclose(report.best_point, np.zeros(2))


def test_an_exact_oracle_stops_at_an_eps_certificate():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.array([0.5, 0.1]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.0)
    config = SolverConfig(eps=1e-6, sigma=0.0, seed=0)
    report = solve(oracle, ball, config)
    assert report.termination == TERMINATION_CERTIFIED
    assert report.eval_draws == 0
    assert np.array_equal(report.best_point, report.records[-1].center)
    gap = problem.objective(report.best_point) - problem.reference()[1]
    assert gap <= 1e-6
    assert report.iterations < resolve_plan(oracle, ball, config).iterations


def test_a_noisy_oracle_never_ends_certified():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.array([0.3, -0.2]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.05)
    config = SolverConfig(eps=0.05, sigma=0.05, seed=0, batch_size=64, max_iterations=60)
    report = solve(oracle, ball, config)
    assert report.termination == TERMINATION_BUDGET
    # the exact gradient would have certified a visited center
    assert min(linear_optimality_gap(ball, r.center, problem.gradient(r.center))
               for r in report.records if r.feasible) <= 0.05


def test_an_offset_oracle_never_ends_certified():
    # at offset 0.5 a cut's own gap bound is no certificate: with one that
    # stopped at eps, 18 of these runs ended certified, 16 of them further
    # than eps from f* (worst 0.0730)
    ball = Ball(np.zeros(2), 1.0)
    for seed in range(200):
        problem = QuadraticProblem(np.random.default_rng(seed).uniform(-0.5, 0.5, 2), ball)
        oracle = PerturbedOracle(problem.objective_and_gradient, 2, 0.5)
        config = SolverConfig(eps=0.05, sigma=0.0, seed=seed, batch_size=1,
                              max_iterations=200, value_range=4.0)
        assert solve(oracle, ball, config).termination != TERMINATION_CERTIFIED


@pytest.mark.parametrize("make_set", [lambda n: Ball(np.zeros(n), 1.0),
                                      lambda n: Box.centered(n, 1.0)], ids=["ball", "box"])
def test_every_certified_exact_run_is_within_eps(make_set):
    rng = np.random.default_rng(11)
    certified = 0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        feasible_set = make_set(n)
        problem = (QuadraticProblem(rng.uniform(-1.2, 1.2, n), feasible_set) if rng.random() < 0.5
                   else LinearProblem(rng.standard_normal(n), feasible_set))
        eps = float(10.0 ** rng.uniform(-4, -1))
        oracle = GaussianOracle(problem.objective_and_gradient, n, sigma=0.0)
        report = solve(oracle, feasible_set, SolverConfig(eps=eps, sigma=0.0, seed=int(rng.integers(100))))
        if report.termination == TERMINATION_CERTIFIED:
            certified += 1
            assert problem.objective(report.best_point) - problem.reference()[1] <= eps
    assert certified >= 20


def test_max_iterations_zero_budget_raises_no_feasible():
    # a budget of 0 leaves no visited centers; the terminal center is the
    # ball's center which is feasible, so selection still succeeds
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.array([0.1, 0.1]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.0)
    report = solve(oracle, ball, SolverConfig(sigma=0.0, max_iterations=1, seed=0))
    assert report.iterations == 1


def test_best_point_selection_requires_feasible_records():
    # a set no center ever lies in: every step is a separation cut, and the
    # final center is infeasible too, so nothing can be returned
    class Unreachable(Ball):
        def contains(self, x):
            return False

        def separation_hyperplane(self, x):
            return np.array([1.0, 0.0])

    oracle = GaussianOracle(lambda x: (0.0, np.zeros(2)), 2, sigma=0.0)
    config = SolverConfig(sigma=0.0, max_iterations=3, value_range=1.0)
    with pytest.raises(NoFeasiblePointError):
        solve(oracle, Unreachable(np.zeros(2), 1.0), config)


def test_selection_prefers_lowest_estimate_then_lowest_index():
    ball = Ball(np.zeros(2), 2.0)
    problem = QuadraticProblem(np.array([1.0, 0.0]), ball)
    exact = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.0)
    # candidates come in increasing iteration order, so row i is index i
    candidates = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    point, value, draws = _select_candidates(candidates, exact, BatchSpec(size=1, seed=0))
    assert (value, draws) == (0.0, 3)
    assert np.shares_memory(point, candidates[1])
    # equal exact values at different points: the earlier row wins the tie
    ties = np.array([[0.0, 0.0], [1.0, 0.5], [1.0, -0.5]])
    point, value, _ = _select_candidates(ties, exact, BatchSpec(size=1, seed=0))
    assert value == 0.25 and np.array_equal(point, [1.0, 0.5])
    # every oracle re-estimates every candidate on one shared batch: equal
    # points get equal estimates, and the lower index wins the tie
    noisy = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.5)
    point, value, draws = _select_candidates(candidates, noisy, BatchSpec(size=64, seed=0))
    assert np.shares_memory(point, candidates[1])
    assert np.array_equal(point, [1.0, 0.0])
    assert draws == 3 * 64


def test_resolve_plan_derives_what_the_config_leaves_open():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.array([0.3, 0.2]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.25)
    config = SolverConfig(eps=0.05, beta=0.2, sigma=0.25, seed=7)
    plan = resolve_plan(oracle, ball, config)
    assert plan.value_range == estimate_value_range(oracle, ball, seed=7)
    assert plan.iterations == iteration_budget(2, 2.0, plan.value_range, 1.0, 0.05)
    assert plan.batch_size == plan.theory_batch_size > 1000
    assert plan.zero_tol == pytest.approx(1e-12 * plan.value_range / 2.0, rel=1e-15)
    report = solve(oracle, ball, config)
    assert report.batch_size == plan.batch_size
    assert report.iterations <= plan.iterations

    given = resolve_plan(oracle, ball, SolverConfig(
        eps=0.05, sigma=0.25, batch_size=32, max_iterations=5, value_range=3.0))
    assert (given.value_range, given.iterations, given.batch_size) == (3.0, 5, 32)


def test_resolve_plan_overflowing_theory_batch():
    ball = Ball(np.zeros(2), 1.0)
    oracle = GaussianOracle(lambda x: (0.0, np.zeros(2)), 2, sigma=1.0)
    tiny = dict(eps=1e-250, sigma=1.0, max_iterations=5, value_range=1.0)
    with pytest.raises(ValueError, match="2\\^53"):
        resolve_plan(oracle, ball, SolverConfig(**tiny))
    plan = resolve_plan(oracle, ball, SolverConfig(batch_size=16, **tiny))
    assert plan.batch_size == 16
    assert plan.theory_batch_size is None


def test_estimate_value_range_covers_true_spread():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.zeros(2), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.0)
    est = estimate_value_range(oracle, ball, seed=0)
    # true range on the ball is 1.0; the safety factor doubles the estimate
    assert 0.8 <= est <= 2.2


def test_dimension_mismatch_rejected():
    ball = Ball(np.zeros(3), 1.0)
    oracle = GaussianOracle(lambda x: (0.0, np.zeros(2)), 2, sigma=0.0)
    with pytest.raises(ValueError):
        solve(oracle, ball, SolverConfig(sigma=0.0))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(beta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(sigma=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(batch_size=0)
    for key in ("eps", "sigma", "value_range"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=key):
                SolverConfig(**{key: value})
