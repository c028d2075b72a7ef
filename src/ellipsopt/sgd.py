"""Projected minibatch SGD baseline, run as a step-size sweep in lockstep.

Shares the oracle, batch, trace and report machinery with the cut-based
solver so the two produce directly comparable runs: equal seeds consume
identical sample streams at equal (iteration, batch-element) keys. Every
entry of a sweep uses the config's seed, so at each step all entries read
the same batch; ``sgd_run`` advances them together as the rows of one
(k, n) iterate block, with one oracle call and one projection per step.
Each step size is constant, and each entry returns its last iterate
unscored: its ``best_estimate`` is NaN, and the sweep draws no values. A
one-entry sweep is a single run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import SEED_LIMIT
from .geometry import FeasibleSet
from .oracles import BatchSpec, StochasticGradOracle, minibatch_gradient
from .reporting import CUT_SGD, TERMINATION_BUDGET, SolverReport, Trace


@dataclass(frozen=True)
class SgdConfig:
    step_sizes: tuple[float, ...]
    iterations: int
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.step_sizes:
            raise ValueError("sweep must list at least one step size")
        if not all(0.0 <= s < math.inf for s in self.step_sizes):
            raise ValueError(
                f"sweep step sizes must be non-negative and finite, got {self.step_sizes}"
            )
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


def sgd_run(
    oracle: StochasticGradOracle, feasible_set: FeasibleSet, config: SgdConfig
) -> list[SolverReport]:
    """Iterate theta_j <- project(theta_j - alpha_j * minibatch gradient) for
    every step size alpha_j of the sweep; one report per step size, in order.

    Every entry starts from the bounding ball's center projected onto the
    set and returns its last iterate. Every iterate is projected, so none
    can leave the set; Ball and Box projections raise ValueError on a
    non-finite step in any entry.
    """
    n = feasible_set.dimension
    if oracle.dimension != n:
        raise ValueError(f"oracle dimension {oracle.dimension} does not match the set's {n}")
    alphas = np.array(config.step_sizes)[:, None]
    thetas = np.tile(feasible_set.project(feasible_set.bounding_ball.center), (len(alphas), 1))
    batch = BatchSpec(size=config.batch_size, seed=config.seed)

    # each entry's centers are one C-contiguous (N, n) slice of this block
    centers = np.empty((len(alphas), config.iterations, n))
    f_estimates = np.empty((len(alphas), config.iterations))
    for k in range(config.iterations):
        gradients, f_estimates[:, k] = minibatch_gradient(oracle, thetas, batch, step=k)
        centers[:, k] = thetas
        thetas = feasible_set.project(thetas - alphas * gradients)

    kinds = np.full(config.iterations, CUT_SGD, dtype=object)
    return [
        SolverReport(
            best_point=theta,
            best_estimate=math.nan,
            batch_size=config.batch_size,
            records=Trace(path, kinds, values, None),
            termination=TERMINATION_BUDGET,
        )
        for theta, path, values in zip(thetas, centers, f_estimates)
    ]
