import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsopt import solver
from ellipsopt.geometry import (
    Ball,
    Box,
    DegenerateEllipsoidError,
    Ellipsoid,
    ellipsoid_step,
    linear_optimality_gap,
    shape_det_ratio,
)
from ellipsopt.oracles import GaussianOracle, PerturbedOracle, StochasticGradOracle
from ellipsopt.problems import LinearProblem, QuadraticProblem
from ellipsopt.reporting import (
    CUT_SEPARATION,
    TERMINATION_BUDGET,
    TERMINATION_CERTIFIED,
    TERMINATION_DEGENERATE,
)
from ellipsopt.solver import (
    NoFeasiblePointError,
    SolverConfig,
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
    # exact gradients may certify a center before the budget ends
    assert report.termination in (TERMINATION_BUDGET, TERMINATION_CERTIFIED)
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


def test_trace_logdets_are_the_closed_form():
    ball = Ball(np.array([0.5, -0.25, 0.0]), 1.5)
    problem = QuadraticProblem(np.array([0.2, 0.1, -0.4]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 3, sigma=0.0)
    report = solve(oracle, ball, SolverConfig(eps=1e-3, sigma=0.0, seed=0))
    log_det0 = np.linalg.slogdet(1.5 * 1.5 * np.eye(3))[1]
    k = np.arange(report.iterations)
    assert report.iterations > 1
    assert np.array_equal(report.records.log_dets, log_det0 + k * math.log(shape_det_ratio(3)))


def _noisy_run(n: int, **config):
    ball = Ball(np.zeros(n), 1.0)
    problem = QuadraticProblem(np.linspace(-0.3, 0.3, n), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, n, sigma=0.5)
    return solve(oracle, ball, SolverConfig(eps=0.05, sigma=0.5, seed=3, batch_size=64,
                                            value_range=1.0, **config))


def test_log_det_drift_is_measured_and_small_on_a_noisy_n10_run():
    report = _noisy_run(10, max_iterations=1000)
    assert report.termination == TERMINATION_BUDGET and report.iterations == 1000
    # det H shrank by e^100 over the run, and the measured log dets stayed on the closed form
    assert report.records.log_dets[-1] - report.records.log_dets[0] < -99.0
    assert 0.0 <= report.log_det_drift < 1e-9


@pytest.mark.parametrize("budget, steps_at_raise", [(200, 64), (30, 30)], ids=["stride", "end"])
def test_a_shape_that_loses_definiteness_raises_at_the_next_check(monkeypatch, budget, steps_at_raise):
    # from the tenth step on, each step hands back -H, whose determinant is
    # negative in odd n, and takes the next one from H: the run's centers and
    # cuts stay those of a clean run, and only the log det check can see it
    steps = []

    def negating_step(ellipsoid, cut):
        steps.append(cut)
        sign = -1.0 if len(steps) > 10 else 1.0
        nxt = ellipsoid_step(Ellipsoid(ellipsoid.center, sign * ellipsoid.shape, validate=False), cut)
        if len(steps) >= 10:
            nxt.shape = -nxt.shape
        return nxt

    monkeypatch.setattr(solver, "ellipsoid_step", negating_step)
    with pytest.raises(DegenerateEllipsoidError, match="positive definiteness"):
        _noisy_run(5, max_iterations=budget)
    # the old per-step check raised after 10 steps; the strided one at step 64, or at the end
    assert len(steps) == steps_at_raise


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
    # a zero exact gradient is a certificate with gap 0
    assert report.termination == TERMINATION_CERTIFIED
    assert report.iterations == 1
    assert np.array_equal(report.best_point, np.zeros(2))


class _ZeroMeanOracle(StochasticGradOracle):
    """A noisy oracle whose batch means all come out exactly zero."""

    dimension = 2

    def batch_mean(self, x, seed, step, count):
        return np.zeros_like(x), np.zeros(x.shape[:-1])

    def value_means_crn(self, points, seed, step, count):
        return np.zeros(len(points))


def test_a_zero_batch_mean_ends_degenerate_and_selects_a_feasible_center():
    # a zero cut has no extent in the ellipsoid, so the first step is degenerate
    ball = Ball(np.zeros(2), 1.0)
    config = SolverConfig(sigma=0.5, batch_size=8, max_iterations=50, value_range=1.0)
    report = solve(_ZeroMeanOracle(), ball, config)
    assert report.termination == TERMINATION_DEGENERATE
    assert report.iterations == 1
    # the one recorded center is returned, with its recorded estimate
    assert np.array_equal(report.best_point, report.records.centers[0])
    assert report.best_estimate == 0.0


class _ScriptedOracle(StochasticGradOracle):
    """A noisy oracle that records VALUES[k] at step k, whatever the point;
    re-scoring points on a fresh batch would find them all equal."""

    dimension = 2
    VALUES = (3.0, -9.0, 1.0, 2.0, 1.0, 4.0)

    def batch_mean(self, x, seed, step, count):
        return np.array([1.0, 0.5]), self.VALUES[step]

    def value_means_crn(self, points, seed, step, count):
        return np.zeros(len(points))


class _SecondCenterOutside(Ball):
    """A ball whose second membership query says no."""

    def __init__(self, *args):
        super().__init__(*args)
        self.queries = 0

    def contains(self, x):
        self.queries += 1
        return self.queries != 2

    def separation_hyperplane(self, x):
        return np.array([0.0, 1.0])


def test_solve_returns_the_earliest_center_with_the_lowest_recorded_estimate():
    feasible_set = _SecondCenterOutside(np.zeros(2), 1.0)
    config = SolverConfig(sigma=0.5, batch_size=8, max_iterations=6, value_range=1.0)
    report = solve(_ScriptedOracle(), feasible_set, config)
    assert report.termination == TERMINATION_BUDGET
    # row 1 is a separation row: its NaN never wins, whatever the oracle would say
    assert report.records.cut_kinds[1] == CUT_SEPARATION
    # rows 2 and 4 tie at 1.0, and the earlier one is returned
    assert np.array_equal(report.records.f_estimates, [3.0, np.nan, 1.0, 2.0, 1.0, 4.0], equal_nan=True)
    assert np.array_equal(report.best_point, report.records.centers[2])
    assert not np.array_equal(report.best_point, report.records.centers[4])
    assert report.best_estimate == 1.0


def test_an_exact_oracle_stops_at_an_eps_certificate():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.array([0.5, 0.1]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.0)
    config = SolverConfig(eps=1e-6, sigma=0.0, seed=0)
    report = solve(oracle, ball, config)
    assert report.termination == TERMINATION_CERTIFIED
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


def test_exact_linear_runs_over_a_box_return_a_point_inside_it_within_eps():
    # membership admits 1e-9 * width outside the box. Returned as it was,
    # a certified center lay up to 3.8e-9 outside in 38 of these runs; its
    # projection was inside, but 23 of those gaps were above eps. So only a
    # center that the projection leaves unchanged certifies.
    for i in range(40):
        rng = np.random.default_rng(i)
        n, half = int(rng.integers(2, 8)), rng.uniform(0.5, 2.0)
        box = Box.centered(n, half)
        problem = LinearProblem(rng.standard_normal(n), box)
        oracle = GaussianOracle(problem.objective_and_gradient, n, sigma=0.0)
        report = solve(oracle, box, SolverConfig(eps=1e-8, sigma=0.0, seed=i))
        x = report.best_point
        assert np.all(box.lower <= x) and np.all(x <= box.upper), i
        assert problem.objective(x) - problem.reference()[1] <= 1e-8, i
        if report.termination == TERMINATION_CERTIFIED:
            assert np.array_equal(x, report.records.centers[-1])


def test_a_zero_step_budget_returns_the_start_center():
    # eps at D B / rho asks for no step: nothing is estimated or drawn
    ball = Ball(np.array([0.2, -0.1]), 1.0)
    problem = QuadraticProblem(np.array([0.1, 0.1]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.5)
    report = solve(oracle, ball, SolverConfig(eps=2.0, sigma=0.5, value_range=1.0, seed=0))
    assert report.iterations == 0 and report.grad_draws == 0
    assert np.array_equal(report.best_point, ball.center)
    assert not np.shares_memory(report.best_point, ball.center)
    assert math.isnan(report.best_estimate)


def test_best_point_selection_requires_feasible_records():
    # a set no center ever lies in: every step is a separation cut, so
    # nothing can be returned, and neither can an infeasible start center
    class Unreachable(Ball):
        def contains(self, x):
            return False

        def separation_hyperplane(self, x):
            return np.array([1.0, 0.0])

    oracle = GaussianOracle(lambda x: (0.0, np.zeros(2)), 2, sigma=0.0)
    for config in (SolverConfig(sigma=0.0, max_iterations=3, value_range=1.0),
                   SolverConfig(eps=2.0, sigma=0.0, value_range=1.0)):
        with pytest.raises(NoFeasiblePointError):
            solve(oracle, Unreachable(np.zeros(2), 1.0), config)


def test_resolve_plan_derives_what_the_config_leaves_open():
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.array([0.3, 0.2]), ball)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.25)
    config = SolverConfig(eps=0.05, beta=0.2, sigma=0.25, seed=7)
    plan = resolve_plan(oracle, ball, config)
    assert plan.value_range == estimate_value_range(oracle, ball, seed=7)
    assert plan.iterations == iteration_budget(2, 2.0, plan.value_range, 1.0, 0.05)
    assert plan.batch_size == plan.theory_batch_size > 1000
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
