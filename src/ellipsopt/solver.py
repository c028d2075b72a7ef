"""Cut-based solver for stochastic convex problems in low dimensions.

The run starts from the feasible set's bounding ball and repeatedly halves an
ellipsoid: at a feasible center it cuts along a minibatch gradient estimate,
at an infeasible center along a separation hyperplane. When the budget is
spent, or a cut has no extent in the ellipsoid (a zero batch gradient has
none), the feasible center whose batch recorded the lowest value (the
earliest on ties) is returned, projected onto the set: membership admits a
boundary slack. For an exact oracle only, a center inside the set without
that slack whose exact-gradient gap bound is at most eps ends the run and is
returned as it is.

For a target accuracy eps on a set with diameter D, inner radius rho and
objective range B, ceil(2 n^2 ln(D B / (rho eps))) iterations suffice, with
the batch size chosen so each gradient estimate is an (eps/2)-subgradient
with per-call failure probability beta / (2 N). ``resolve_plan`` fixes B, N
and the batch size before the first step.

For ``GaussianOracle`` a recorded value is f(c_k) + <zeta_k, c_k>, zeta_k the
batch's noise mean, and those N gradient events bound |zeta_k| by eps / (2D).
On an origin-centred ball (|c| <= D/2) each value is then within eps/4 of f,
so the returned center is within eps/2 of the best visited one with no other
failure event: the slack of re-scoring all centers on one common batch,
<zeta, c_i - c_j> <= |zeta| D. ``PerturbedOracle`` values are exact.

Every cut multiplies det H by shape_det_ratio(n), so the trace's log dets
are written in closed form. The log det is measured at the start, every
``_LOG_DET_STRIDE`` steps and at the end, where a lost definiteness raises
DegenerateEllipsoidError; ``log_det_drift`` is the largest gap measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .geometry import (
    DegenerateEllipsoidError,
    Ellipsoid,
    FeasibleSet,
    linear_optimality_gap,
    ellipsoid_step,
    shape_det_ratio,
)
from .oracles import (
    RANGE_PROBE_STEP,
    BatchSpec,
    StochasticGradOracle,
    estimate_values,
    minibatch_gradient,
    required_batch_size,
)
from .reporting import (
    CUT_SEPARATION,
    CUT_SUBGRADIENT,
    TERMINATION_BUDGET,
    TERMINATION_CERTIFIED,
    TERMINATION_DEGENERATE,
    SolverReport,
    Trace,
)

# range probe: feasible points sampled, draws per point, and the factor the
# observed spread is inflated by
_PROBE_POINTS = 100
_PROBE_BATCH = 64
_PROBE_SAFETY = 2.0
_LOG_DET_STRIDE = 64  # steps between measured log dets


class NoFeasiblePointError(RuntimeError):
    """Raised when a run never visits a feasible center."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; fields left None are derived by ``resolve_plan``.

    ``value_range`` (the objective's max-min spread B) is estimated by
    sampling when not supplied. ``eps`` is also where a run on an exact
    oracle stops on a certificate. ``workers`` has no effect; it is kept so
    that existing callers and saved configs still load.
    """

    eps: float = 0.05
    beta: float = 0.1
    sigma: float = 0.0
    seed: int = 0
    workers: int = 1
    batch_size: int | None = None
    max_iterations: int | None = None
    value_range: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie strictly inside (0, 1)")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be non-negative and finite")
        if not 0 <= self.seed < _rng.SEED_LIMIT:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed}")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        for name in ("batch_size", "max_iterations"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be at least 1 when given")
        if self.value_range is not None and not 0.0 < self.value_range < math.inf:
            raise ValueError("value_range must be positive and finite when given")


@dataclass(frozen=True)
class Plan:
    """What a run fixes before its first step."""

    value_range: float
    iterations: int
    batch_size: int
    # the batch size the guarantee asks for; None when it exceeds 2^53
    theory_batch_size: int | None


def iteration_budget(dim: int, diameter: float, value_range: float, inner_radius: float, eps: float) -> int:
    """ceil(2 n^2 ln(D B / (rho eps))), the cut budget that guarantees eps."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if diameter <= 0 or inner_radius <= 0:
        raise ValueError("diameter and inner radius must be positive")
    if value_range < 0:
        raise ValueError("value range must be non-negative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    ratio = diameter * value_range / (inner_radius * eps)
    if ratio <= 1.0:
        return 0
    return math.ceil(2.0 * dim * dim * math.log(ratio))


def theoretical_gap(
    dim: int, iterations: int, value_range: float, radius: float, inner_radius: float, delta: float = 0.0
) -> float:
    """Worst-case gap of the returned point after N cut steps.

    Equals (B R / rho) exp(-N / (2 n^2)) + delta; valid once the budget
    clears 2 n^2 ln(R / rho), with delta the per-call subgradient slack.
    """
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if value_range < 0 or radius <= 0 or inner_radius <= 0 or delta < 0:
        raise ValueError("geometry constants out of range")
    return value_range * radius / inner_radius * math.exp(-iterations / (2.0 * dim * dim)) + delta


def estimate_value_range(
    oracle: StochasticGradOracle,
    feasible_set: FeasibleSet,
    *,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Estimate the objective spread B by probing random feasible points.

    ``workers`` has no effect; it is kept so that existing callers still run.
    """
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    points = feasible_set.sample(_PROBE_POINTS, _rng.generator(seed, _rng.PROBE_STREAM))
    values = estimate_values(oracle, points, BatchSpec(_PROBE_BATCH, seed), step=RANGE_PROBE_STEP)
    return _PROBE_SAFETY * float(values.max() - values.min())


def resolve_plan(
    oracle: StochasticGradOracle, feasible_set: FeasibleSet, config: SolverConfig
) -> Plan:
    """B, N and the batch size of one run.

    Fields given in the config win. Otherwise B comes from the seeded range
    probe, N from ``iteration_budget`` and the batch size from
    ``required_batch_size`` at the per-call failure probability
    beta / (2 max(N, 1)). Raises ValueError when the batch size must be
    derived but exceeds 2^53.
    """
    diameter = feasible_set.diameter
    value_range = config.value_range
    if value_range is None:
        value_range = estimate_value_range(oracle, feasible_set, seed=config.seed)
    iterations = config.max_iterations
    if iterations is None:
        iterations = iteration_budget(
            feasible_set.dimension, diameter, value_range, feasible_set.inner_radius, config.eps
        )
    per_call_beta = config.beta / (2.0 * max(iterations, 1))
    try:
        theory_batch = required_batch_size(config.sigma, diameter, config.eps, per_call_beta)
    except ValueError:
        if config.batch_size is None:
            raise
        theory_batch = None
    return Plan(
        value_range=value_range,
        iterations=iterations,
        batch_size=config.batch_size if config.batch_size is not None else theory_batch,
        theory_batch_size=theory_batch,
    )


def solve(oracle: StochasticGradOracle, feasible_set: FeasibleSet, config: SolverConfig) -> SolverReport:
    """Run the cut loop and return the feasible center with the lowest recorded estimate.

    The run follows ``resolve_plan(oracle, feasible_set, config)``. The trace
    records every iteration's center, branch, estimate and log det of the
    ellipsoid shape, and the answer is read from it with no further draws,
    projected onto the set. When ``oracle.is_exact`` (no other gradient makes
    the bound sound), the first center that its projection leaves unchanged
    and whose ``linear_optimality_gap`` is at most ``config.eps`` ends the run
    and is returned.
    """
    n = feasible_set.dimension
    if oracle.dimension != n:
        raise ValueError(f"oracle dimension {oracle.dimension} does not match the set's {n}")
    plan = resolve_plan(oracle, feasible_set, config)
    batch = BatchSpec(size=plan.batch_size, seed=config.seed)
    ball = feasible_set.bounding_ball
    ellipsoid = Ellipsoid(ball.center, ball.radius * ball.radius * np.eye(n))

    centers = np.empty((plan.iterations, n))
    kinds = np.empty(plan.iterations, dtype=object)
    estimates = np.full(plan.iterations, np.nan)
    termination = TERMINATION_BUDGET
    rows = 0
    log_det0, shift = ellipsoid.log_det_shape(), math.log(shape_det_ratio(n))
    drift = 0.0

    for k in range(plan.iterations):
        if k and k % _LOG_DET_STRIDE == 0:
            drift = max(drift, abs(ellipsoid.log_det_shape() - (log_det0 + k * shift)))
        center = centers[k] = ellipsoid.center
        if feasible_set.contains(center):
            cut, estimates[k] = minibatch_gradient(oracle, center, batch, step=k)
            kinds[k] = CUT_SUBGRADIENT
            if (oracle.is_exact and linear_optimality_gap(feasible_set, center, cut) <= config.eps
                    and np.array_equal(feasible_set.project(center), center)):
                termination = TERMINATION_CERTIFIED
        else:
            cut = feasible_set.separation_hyperplane(center)
            kinds[k] = CUT_SEPARATION
        rows = k + 1
        if termination != TERMINATION_BUDGET:
            break
        try:
            ellipsoid = ellipsoid_step(ellipsoid, cut)
        except DegenerateEllipsoidError:
            termination = TERMINATION_DEGENERATE
            break

    # a run that broke off took one step fewer than it has rows
    steps = rows - (termination != TERMINATION_BUDGET)
    drift = max(drift, abs(ellipsoid.log_det_shape() - (log_det0 + steps * shift)))
    trace = Trace(centers[:rows], kinds[:rows], estimates[:rows], log_det0 + np.arange(rows) * shift)
    if trace.feasible.any():
        # a certified center is returned as it is; otherwise the earliest row
        # with the lowest recorded estimate (separation rows are NaN)
        best = rows - 1 if termination == TERMINATION_CERTIFIED else int(np.nanargmin(trace.f_estimates))
        point, estimate = centers[best], float(estimates[best])
    elif rows == 0 and feasible_set.contains(ellipsoid.center):
        # a zero-step budget estimates nothing and returns the start center
        point, estimate = ellipsoid.center, math.nan
    else:
        raise NoFeasiblePointError("no feasible center was visited")
    return SolverReport(
        best_point=feasible_set.project(point),  # a new array, inside the set without slack
        best_estimate=estimate,
        batch_size=plan.batch_size,
        records=trace,
        termination=termination,
        log_det_drift=drift,
    )
