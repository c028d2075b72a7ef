"""Projected minibatch SGD baseline.

Shares the oracle, batch, trace and report machinery with the cut-based
solver so the two produce directly comparable runs: equal seeds consume
identical sample streams at equal (iteration, batch-element) keys. The step
size is constant and the run reports its last iterate, scored on one fresh
batch of ``batch_size`` draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rng import SEED_LIMIT
from .geometry import FeasibleSet
from .oracles import BatchSpec, StochasticGradOracle, minibatch_gradient
from .reporting import CUT_SGD, TERMINATION_BUDGET, IterationRecord, SolverReport
from .solver import _select_candidates

@dataclass(frozen=True)
class SgdConfig:
    step_size: float
    iterations: int
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.step_size < 0:
            raise ValueError("step size must be non-negative")
        if self.iterations < 1:
            raise ValueError("iteration count must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed}")


def default_step_grid(diameter: float, value_range: float) -> tuple[float, ...]:
    """Step-size sweep {1e-3, 1e-2, 1e-1, 0.5, 1} * (D / B)."""
    if diameter <= 0 or value_range <= 0:
        raise ValueError("diameter and value range must be positive")
    base = diameter / value_range
    return tuple(base * m for m in (0.001, 0.01, 0.1, 0.5, 1.0))


def sgd_run(oracle: StochasticGradOracle, feasible_set: FeasibleSet, config: SgdConfig) -> SolverReport:
    """Iterate theta <- project(theta - alpha * minibatch gradient).

    Starts from the bounding ball's center projected onto the set and
    reports the last iterate. Every iterate is projected, so none can leave
    the set; Ball and Box projections raise ValueError on a non-finite step.
    """
    n = feasible_set.dimension
    if oracle.dimension != n:
        raise ValueError(f"oracle dimension {oracle.dimension} does not match the set's {n}")
    theta = feasible_set.project(feasible_set.bounding_ball.center)
    batch = BatchSpec(size=config.batch_size, seed=config.seed)

    records: list[IterationRecord] = []
    for k in range(config.iterations):
        gradient, value = minibatch_gradient(oracle, theta, batch, step=k)
        records.append(IterationRecord(k, theta, True, CUT_SGD, value, None))
        theta = feasible_set.project(theta - config.step_size * gradient)

    _, point, estimate, eval_draws = _select_candidates([(len(records), theta)], oracle, batch)
    return SolverReport(
        best_point=point,
        best_estimate=estimate,
        iterations=len(records),
        batch_size=config.batch_size,
        records=tuple(records),
        termination=TERMINATION_BUDGET,
        grad_draws=len(records) * config.batch_size,
        eval_draws=eval_draws,
    )
