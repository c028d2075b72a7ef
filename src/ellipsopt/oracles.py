"""Stochastic first-order oracles and approximate-subgradient machinery.

A minibatch of r draws concentrates around the exact gradient: with
probability at least 1 - beta the deviation of the batch mean stays below
(sqrt(2) + sqrt(6 ln(1/beta))) * sigma / sqrt(r), provided single-draw noise
satisfies E exp(||noise||^2 / sigma^2) <= e. A vector within eta of an exact
gradient is a delta-subgradient with delta = eta * D over a set of diameter
D, which is what lets noisy means drive cut steps.

A minibatch mean is one ``batch_mean`` call on counter-keyed streams, so
it is a pure function of the point, the seed, the step and the batch size.
The oracle computes the mean itself: the logistic oracle with one matrix
product over the gathered rows, the synthetic oracles with numpy's mean of
their per-draw ``draw_block`` arrays. Both are fixed for a fixed shape.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import _rng
from .geometry import FeasibleSet, Vector, _as_vector

_CERTIFICATE_TOL = 1e-9
# value draws per block of points in ``estimate_values``: its peak memory
_MAX_BLOCK_DRAWS = 2**22


@dataclass(frozen=True)
class BatchSpec:
    """How a minibatch is drawn: r draws under a master seed."""

    size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("batch size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class DeltaCertificate:
    """Outcome of an empirical delta-subgradient check.

    ``slack`` is the largest violation of
    f(y) >= f(x) + <g, y - x> - delta over the probed points; the check
    passes when it does not exceed a 1e-9 numerical allowance. For failed
    checks ``witness`` is the offending displacement y - x.
    """

    delta: float
    slack: float
    witness: Vector

    @property
    def passed(self) -> bool:
        return self.slack <= _CERTIFICATE_TOL


class StochasticGradOracle(ABC):
    """Source of unbiased-ish gradient draws with subgaussian deviations."""

    @property
    @abstractmethod
    def dimension(self) -> int: ...

    @property
    def is_deterministic(self) -> bool:
        """True when every draw equals the exact value/gradient."""
        return False

    @abstractmethod
    def draw_block(self, x, seed: int, step: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Gradient draws (count, n) and value draws (count,) for the first
        ``count`` batch elements of the stream keyed (seed, step)."""

    @abstractmethod
    def value_block_crn(self, points: np.ndarray, seed: int, step: int, count: int) -> np.ndarray:
        """(count, k) value draws at k points sharing one noise realization
        per batch element (common random numbers down the columns)."""

    def batch_mean(self, x, seed: int, step: int, count: int) -> tuple[Vector, float]:
        """Mean gradient (n,) and mean value of the ``draw_block`` draws."""
        grads, values = self.draw_block(x, seed, step, count)
        return _rng.pairwise_mean(grads), float(_rng.pairwise_mean(values))

    def value_means_crn(self, points: np.ndarray, seed: int, step: int, count: int) -> np.ndarray:
        """(k,) mean of the ``value_block_crn`` draws at each of k points."""
        return _rng.pairwise_mean(self.value_block_crn(points, seed, step, count))


def minibatch_gradient(
    oracle: StochasticGradOracle, x, batch: BatchSpec, step: int = 0
) -> tuple[Vector, float]:
    """Mean gradient and mean value of ``batch.size`` oracle draws at x.

    The result is a pure function of (x, batch.seed, batch.size, step).
    """
    return oracle.batch_mean(_as_vector(x, oracle.dimension), batch.seed, step, batch.size)


def estimate_values(
    oracle: StochasticGradOracle, points: np.ndarray, batch: BatchSpec, step: int = 0
) -> np.ndarray:
    """Estimated objective at each row of ``points`` from one shared batch.

    All points see the same noise realizations (common random numbers), so
    estimate differences cancel most of the noise when points are close.
    Points go in near-equal blocks of at most ``_MAX_BLOCK_DRAWS`` draws (or
    three points), never one point alone, which numpy would send down its
    matrix-vector path with other rounding. The logistic oracle reduces each
    point's row of ``points @ Xb.T`` on its own, and on OpenBLAS a row slice
    of that product has the bits of the whole product at every width the
    blocking cuts (measured: 2 to 699 rows at r=4096, n=55; 2 to 7 rows at
    r=9e5 and 1.5e6), so the bits do not depend on the blocking.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != oracle.dimension:
        raise ValueError(f"points must have width {oracle.dimension}")
    blocks = -(-pts.shape[0] // max(3, _MAX_BLOCK_DRAWS // batch.size))
    return np.concatenate([
        oracle.value_means_crn(block, batch.seed, step, batch.size)
        for block in np.array_split(pts, blocks)
    ])


def _concentration_constant(beta: float) -> float:
    """sqrt(2) + sqrt(6 ln(1/beta)), the constant both concentration bounds share."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly inside (0, 1)")
    return math.sqrt(2.0) + math.sqrt(6.0 * math.log(1.0 / beta))


def concentration_radius(sigma: float, batch_size: int, beta: float) -> float:
    """Deviation radius the batch mean respects with probability >= 1 - beta."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    return _concentration_constant(beta) * sigma / math.sqrt(batch_size)


def required_batch_size(sigma: float, diameter: float, eps: float, beta_per_call: float) -> int:
    """Smallest r with concentration_radius(sigma, r, beta) * diameter <= eps / 2."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if diameter <= 0:
        raise ValueError("diameter must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    constant = _concentration_constant(beta_per_call)
    if sigma == 0.0:
        return 1
    root = 2.0 * sigma * diameter * constant / eps
    size = root * root
    if not size < 2.0**53:
        raise ValueError(
            "eps too small for the float budget: the required batch size "
            "exceeds 2^53; relax eps or pass an explicit batch size"
        )
    return max(1, math.ceil(size))


def _eval_rows(f, rows: np.ndarray) -> np.ndarray:
    """Evaluate an objective that maps (k, n) rows to a (k,) array."""
    out = np.asarray(f(rows), dtype=np.float64)
    if out.shape != (rows.shape[0],):
        raise ValueError(
            f"objective must map rows of shape {rows.shape} to shape "
            f"{(rows.shape[0],)}, got {out.shape}"
        )
    return out


def verify_delta_subgradient(
    f,
    feasible_set: FeasibleSet,
    x,
    gradient,
    delta: float,
    *,
    trial_points: int = 10_000,
    seed: int = 0,
) -> DeltaCertificate:
    """Empirically check f(y) >= f(x) + <g, y - x> - delta over the set.

    ``f`` maps (k, n) rows to the (k,) objective values. Probes ``trial_points`` sampled points plus the set's extreme points and
    the support points along +/- g, where the inequality is tightest.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    v = _as_vector(x, feasible_set.dimension)
    g = _as_vector(gradient, feasible_set.dimension)
    if not feasible_set.contains(v):
        raise ValueError("the base point x must lie in the feasible set")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _rng.PROBE_STREAM)))
    probes = [feasible_set.sample(trial_points, rng)] if trial_points > 0 else []
    probes.append(feasible_set.extreme_points())
    probes.append(np.vstack([feasible_set.support_point(g), feasible_set.support_point(-g)]))
    ys = np.vstack(probes)
    fx = float(_eval_rows(f, v[None, :])[0])
    fy = _eval_rows(f, ys)
    violations = fx + (ys - v) @ g - delta - fy
    worst = int(np.argmax(violations))
    return DeltaCertificate(
        delta=float(delta),
        slack=float(violations[worst]),
        witness=ys[worst] - v,
    )


class GaussianOracle(StochasticGradOracle):
    """Additive Gaussian noise around an exact first-order oracle.

    One draw perturbs the exact gradient by zeta with per-coordinate variance
    sigma^2 / (2n); then E exp(||zeta||^2 / sigma^2) = (1 - 1/n)^(-n/2) <= e
    for n >= 2. The matching value draw is f(x) + <zeta, x - anchor>, i.e.
    value and gradient noise come from one linear perturbation of f, so a
    shared-noise value comparison between nearby points stays informative.

    ``sigma`` equal to zero makes the oracle exact (and deterministic).
    """

    def __init__(self, value_grad, dimension: int, sigma: float, anchor=None) -> None:
        if dimension < 2:
            raise ValueError("oracle dimension must be >= 2")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self._value_grad = value_grad
        self._dim = int(dimension)
        self.sigma = float(sigma)
        self.anchor = np.zeros(self._dim) if anchor is None else _as_vector(anchor, self._dim)
        self._noise_scale = self.sigma / math.sqrt(2.0 * self._dim)

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def is_deterministic(self) -> bool:
        return self.sigma == 0.0

    def _exact(self, x) -> tuple[float, np.ndarray]:
        value, grad = self._value_grad(x)
        return float(value), _as_vector(grad, self._dim)

    def draw_block(self, x, seed, step, count):
        value, grad = self._exact(x)
        if self.sigma == 0.0:
            return np.tile(grad, (count, 1)), np.full(count, value)
        key = _rng.stream_key(seed, _rng.GRAD_STREAM, step)
        noise = self._noise_scale * _rng.standard_normals(key, count, self._dim)
        return grad + noise, value + noise @ (x - self.anchor)

    def value_block_crn(self, points, seed, step, count):
        values = np.array([self._exact(p)[0] for p in points])
        if self.sigma == 0.0:
            return np.tile(values, (count, 1))
        key = _rng.stream_key(seed, _rng.EVAL_STREAM, step)
        noise = self._noise_scale * _rng.standard_normals(key, count, self._dim)
        return values + noise @ (points - self.anchor).T


class PerturbedOracle(StochasticGradOracle):
    """Exact oracle plus a fixed-norm gradient offset, resampled per step.

    Every draw at step k returns g(x) + e_k with ||e_k|| = offset_norm
    exactly, so each call is a delta-subgradient with delta = offset_norm * D
    on a set of diameter D. Values are exact. Useful for validating the
    deterministic gap bound without concentration arguments.
    """

    def __init__(self, value_grad, dimension: int, offset_norm: float) -> None:
        if dimension < 2:
            raise ValueError("oracle dimension must be >= 2")
        if offset_norm < 0:
            raise ValueError("offset norm must be non-negative")
        self._value_grad = value_grad
        self._dim = int(dimension)
        self.offset_norm = float(offset_norm)

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def is_deterministic(self) -> bool:
        # gradient offsets are a fixed function of the step; values are exact
        return True

    def offset(self, seed: int, step: int) -> np.ndarray:
        if self.offset_norm == 0.0:
            return np.zeros(self._dim)
        key = _rng.stream_key(seed, _rng.GRAD_STREAM, step)
        direction = _rng.standard_normals(key, 1, self._dim)[0]
        return direction * (self.offset_norm / float(np.linalg.norm(direction)))

    def draw_block(self, x, seed, step, count):
        value, grad = self._value_grad(x)
        grad = _as_vector(grad, self._dim) + self.offset(seed, step)
        return np.tile(grad, (count, 1)), np.full(count, float(value))

    def value_block_crn(self, points, seed, step, count):
        values = np.array([float(self._value_grad(p)[0]) for p in points])
        return np.tile(values, (count, 1))
