"""Seeded property suites runnable from the CLI.

Each check re-measures one of the package's load-bearing guarantees
(volume contraction, cut containment, batch concentration, the two
convergence bounds, gradient correctness) and reports measured
statistics against its threshold instead of a bare pass/fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Ball, Box, Ellipsoid, ellipsoid_step, shape_det_ratio
from .oracles import GaussianOracle, PerturbedOracle, concentration_radius
from .problems import LogisticProblem, QuadraticProblem, LinearProblem, generate_synthetic
from .solver import SolverConfig, solve, theoretical_gap


@dataclass
class ValidationResult:
    suite: str
    passed: bool
    threshold: str
    metrics: dict[str, float] = field(default_factory=dict)
    runtime_s: float = 0.0

    def lines(self) -> list[str]:
        out = [f"suite={self.suite}", f"passed={'true' if self.passed else 'false'}",
               f"threshold={self.threshold}"]
        out.extend(f"{k}={v!r}" for k, v in self.metrics.items())
        out.append(f"runtime_s={self.runtime_s:.3f}")
        return out


def _random_step_chain(rng: np.random.Generator, dim: int, chain: int):
    """Yield (ellipsoid, direction, next_ellipsoid) along a random cut chain."""
    center = rng.uniform(-1.0, 1.0, size=dim)
    ell = Ellipsoid(center, np.eye(dim))
    for _ in range(chain):
        w = rng.standard_normal(dim)
        nxt = ellipsoid_step(ell, w)
        yield ell, w, nxt
        ell = nxt


def check_volume(steps: int = 100_000, dims: range = range(2, 21), seed: int = 0) -> ValidationResult:
    """det(H')/det(H) must match the closed-form ratio to 1e-9 relative."""
    rng = np.random.default_rng(seed)
    chain = 25
    # round chains per dimension up so `steps` is a lower bound on the total
    per_dim = max(1, math.ceil(steps / (len(dims) * chain)))
    worst = 0.0
    total = 0
    for dim in dims:
        target = shape_det_ratio(dim)
        for _ in range(per_dim):
            for ell, _, nxt in _random_step_chain(rng, dim, chain):
                ratio = math.exp(nxt.log_det_shape() - ell.log_det_shape())
                worst = max(worst, abs(ratio - target) / target)
                total += 1
    return ValidationResult(
        suite="volume",
        passed=worst <= 1e-9,
        threshold="max_rel_err <= 1e-9",
        metrics={"steps": float(total), "max_rel_err": worst},
    )


def check_containment(steps: int = 1_000, points: int = 1_000, seed: int = 0) -> ValidationResult:
    """E' must contain the kept half {x in E : <w, x-c> <= 0} of every cut."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    chain = 10
    done = 0
    while done < steps:
        dim = int(rng.integers(2, 21))
        for ell, w, nxt in _random_step_chain(rng, dim, chain):
            if done >= steps:
                break
            done += 1
            L = np.linalg.cholesky(ell.shape)
            raw = rng.standard_normal((points, dim))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            radii = rng.random(points) ** (1.0 / dim)
            xs = ell.center + (raw * radii[:, None]) @ L.T
            kept = xs[(xs - ell.center) @ w <= 0.0]
            if kept.size == 0:
                continue
            Ln = np.linalg.cholesky(nxt.shape)
            y = np.linalg.solve(Ln, (kept - nxt.center).T)
            quad = np.einsum("ij,ij->j", y, y)
            excess = float(np.max(quad) - 1.0)
            worst = max(worst, excess)
            violations += int(np.count_nonzero(quad > 1.0 + 1e-9))
    return ValidationResult(
        suite="containment",
        passed=violations == 0,
        threshold="0 points outside E' beyond 1e-9",
        metrics={"steps": float(done), "violations": float(violations), "worst_excess": worst},
    )


def check_concentration(trials: int = 10_000, batch_sizes: tuple[int, ...] = (10, 100),
                        betas: tuple[float, ...] = (0.1, 0.01), sigma: float = 1.0,
                        dim: int = 4, seed: int = 0) -> ValidationResult:
    """Batch-mean noise must exceed the concentration radius with freq <= beta."""
    metrics: dict[str, float] = {}
    passed = True
    def flat(x):
        return 0.0, np.zeros(dim)
    oracle = GaussianOracle(flat, dim, sigma=sigma)
    worst_ratio = 0.0
    for r in batch_sizes:
        grads, _ = oracle.draw_block(np.zeros(dim), seed, 0, trials * r)
        means = grads.reshape(trials, r, dim).mean(axis=1)
        norms = np.linalg.norm(means, axis=1)
        for beta in betas:
            radius = concentration_radius(sigma, r, beta)
            freq = float(np.mean(norms > radius))
            metrics[f"exceed_r{r}_beta{beta}"] = freq
            passed = passed and freq <= beta
            worst_ratio = max(worst_ratio, freq / beta)
    metrics["worst_freq_over_beta"] = worst_ratio
    return ValidationResult(
        suite="concentration",
        passed=passed,
        threshold="exceedance frequency <= beta in every cell",
        metrics=metrics,
    )


def _box_instances(rng: np.random.Generator, dim: int):
    """One random quadratic and one random linear objective on the unit box."""
    box = Box.centered(dim, 1.0)
    target = rng.uniform(-0.6, 0.6, size=dim)
    quad = QuadraticProblem(target, box)
    slope = rng.standard_normal(dim)
    lin = LinearProblem(slope, box)
    return box, (quad, lin)


def check_theorem1(instances: int = 20, dims: tuple[int, ...] = (2, 3, 4, 5),
                   budgets: tuple[int, ...] = (10, 50, 200), eta: float = 0.01,
                   seed: int = 0) -> ValidationResult:
    """Deterministic runs with eta-perturbed gradients respect the gap bound.

    A perturbation of norm eta yields delta = eta * D, and the final gap
    must stay below (B R / rho) exp(-N / 2n^2) + delta whenever N clears
    the 2 n^2 ln(R / rho) threshold.
    """
    rng = np.random.default_rng(seed)
    runs = 0
    failures = 0
    worst_margin = -math.inf
    for dim in dims:
        box = Box.centered(dim, 1.0)
        rho = box.inner_radius
        R = box.bounding_ball.radius
        D = box.diameter
        min_budget = 2.0 * dim * dim * math.log(R / rho)
        for _ in range(instances):
            _, problems = _box_instances(rng, dim)
            for problem in problems:
                f_best_true = problem.reference()[1]
                # convex objectives attain their max over the box at a corner;
                # the min needs the true optimum (interior for the quadratic)
                B = float(problem.objective_rows(box.extreme_points()).max() - f_best_true)
                if B <= 0.0:
                    continue
                oracle = PerturbedOracle(problem.objective_and_gradient, dim, eta)
                delta = eta * D
                for N in budgets:
                    if N < min_budget:
                        continue
                    cfg = SolverConfig(eps=1e-9, sigma=0.0, seed=seed, batch_size=1,
                                       max_iterations=N, value_range=B)
                    report = solve(oracle, box, cfg)
                    gap = problem.objective(report.best_point) - f_best_true
                    bound = theoretical_gap(dim, N, B, R, rho, delta)
                    runs += 1
                    margin = gap - bound
                    worst_margin = max(worst_margin, margin)
                    if margin > 0.0:
                        failures += 1
    return ValidationResult(
        suite="theorem1",
        passed=failures == 0,
        threshold="gap <= (B R / rho) exp(-N / 2 n^2) + delta in 100% of runs",
        metrics={"runs": float(runs), "failures": float(failures),
                 "worst_gap_minus_bound": worst_margin},
    )


def check_theorem2(runs: int = 100, eps: float = 0.05, beta: float = 0.2,
                   sigma: float = 0.25, seed: int = 0) -> ValidationResult:
    """Full noisy pipeline: gap > eps must occur with frequency <= beta."""
    dim = 2
    ball = Ball(np.zeros(dim), 1.0)
    rng = np.random.default_rng(seed)
    target = rng.uniform(-0.5, 0.5, size=dim)
    problem = QuadraticProblem(target, ball)
    f_star = problem.reference()[1]
    failures = 0
    worst_gap = 0.0
    first = None
    for run in range(runs):
        oracle = GaussianOracle(problem.objective_and_gradient, dim, sigma=sigma)
        cfg = SolverConfig(eps=eps, beta=beta, sigma=sigma, seed=seed + 1 + run)
        report = solve(oracle, ball, cfg)
        if first is None:
            first = report
        gap = problem.objective(report.best_point) - f_star
        worst_gap = max(worst_gap, gap)
        if gap > eps:
            failures += 1
    freq = failures / runs
    metrics = {"runs": float(runs), "failure_freq": freq, "worst_gap": worst_gap}
    if first is not None:
        metrics["iterations"] = float(first.iterations)
        metrics["batch_size"] = float(first.batch_size)
    return ValidationResult(
        suite="theorem2",
        passed=freq <= beta,
        threshold=f"failure frequency <= beta = {beta}",
        metrics=metrics,
    )


def check_gradcheck(points: int = 100, m: int = 300, n: int = 8,
                    h: float = 1e-6, seed: int = 0) -> ValidationResult:
    """Central differences of the mean logistic loss match the gradient."""
    dataset, _ = generate_synthetic(m, n, seed=seed)
    problem = LogisticProblem(dataset)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(points):
        w = rng.uniform(-2.0, 2.0, size=n)
        grad = problem.gradient(w)
        num = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            num[j] = (problem.objective(w + e) - problem.objective(w - e)) / (2.0 * h)
        denom = max(1.0, float(np.linalg.norm(grad)))
        worst = max(worst, float(np.linalg.norm(num - grad)) / denom)
    return ValidationResult(
        suite="gradcheck",
        passed=worst <= 1e-5,
        threshold="max relative error <= 1e-5",
        metrics={"points": float(points), "max_rel_err": worst},
    )


_SUITES = {
    "volume": check_volume,
    "containment": check_containment,
    "concentration": check_concentration,
    "theorem1": check_theorem1,
    "theorem2": check_theorem2,
    "gradcheck": check_gradcheck,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, **kwargs) -> ValidationResult:
    if name not in _SUITES:
        raise ValueError(f"unknown validation suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    t0 = time.perf_counter()
    result = _SUITES[name](**kwargs)
    result.runtime_s = time.perf_counter() - t0
    return result
