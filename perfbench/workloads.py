"""The benchmark's three workloads.

Each workload is a closed loop: one process and one caller, each call
issued after the previous one returns, ``workers=1``. ``setup(seed)`` builds
the inputs from the seed; ``run(state, out_dir, tracer)`` performs one unit
of work and returns its timings, the output checks, a sha256 of its
artifacts and the solver's health counts.

- ``experiment-n10``: ``run_experiment`` at m=20000, n=10, one seed, default
  knobs but a 150-iteration budget for the cut solver and each SGD run. The
  only workload with the ERM reference, test curves and SGD sweep.
- ``solve-n55``: ``solve`` on the n=55, m=50000 logistic problem at r=4096
  for a fixed prefix of the iteration budget, then the trace CSV write, as
  ``ellipsopt solve`` does. Kernel path and 55x55 ellipsoid updates only.
- ``theorem2-n2``: the criterion-4 configuration, 100 short ``solve`` calls
  on a noisy n=2 quadratic with the derived theory batch. No data, no
  logistic kernel; the only workload inside the theorem's batch regime.

Every call is kept short (0.1-2 s) so that a run repeats it many times;
``clock`` takes the fastest repeat of each slice of a call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from ellipsopt import bench, geometry, oracles, problems, reporting, solver

EPS = 0.05
BETA = 0.1
CUT_BATCH = 4096
# criterion 4 / ``validate theorem2``: oracle noise and failure probability
THEOREM2_SIGMA = 0.25
THEOREM2_BETA = 0.2


@dataclass
class UnitResult:
    wall_s: float
    # measured time of each closed-loop call
    call_s: list[float]
    grad_draws: int
    checks: dict[str, bool]
    digest: str
    # health and solver-quality counts: printed, never gated
    counts: dict[str, object] = field(default_factory=dict)
    sgd_sweep_s: float | None = None


def _call(tracer, index: int):
    """One closed-loop call: a region of the tracer or clock, if any, whose
    run id is the call's position in the unit."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.region("perfbench.call", f"call{index}")


def _separation_frac(reports) -> float:
    kinds = [r.cut_kind for report in reports for r in report.records]
    return sum(k == reporting.CUT_SEPARATION for k in kinds) / len(kinds)


def _regime(batch: int, theory: int | None) -> str:
    if theory is None:
        return "theory batch exceeds 2^53: outside the theorem's regime"
    where = "inside" if batch >= theory else "outside"
    return f"batch {batch} vs theory batch {theory}: {where} the theorem's regime"


def _theory_batch(sigma: float, ball, value_range: float, beta: float = BETA) -> tuple[int, int]:
    """(iteration budget, theorem-2 batch size) the solver would derive."""
    budget = solver.iteration_budget(ball.dimension, ball.diameter, value_range,
                                     ball.inner_radius, EPS)
    return budget, oracles.required_batch_size(sigma, ball.diameter, EPS, beta / (2.0 * max(budget, 1)))


@contextlib.contextmanager
def _recording(module, attr: str, sink: list):
    """Append (args, result) of every call to ``module.attr`` while open."""
    original = getattr(module, attr)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((args, result))
        return result

    setattr(module, attr, recording)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _certified_gap(problem, f_star: float, points) -> float:
    """Bound on f* - min f from the exact-gradient certificate at each point:
    convexity gives min f >= f(x) - linear_optimality_gap(x) for feasible x."""
    lower = max(value - geometry.linear_optimality_gap(problem.feasible_set, x, grad)
                for x in points
                for value, grad in [problem.objective_and_gradient(x)])
    return f_star - lower


def _digest_files(out_dir: Path) -> str:
    """sha256 over every artifact, leaving out what differs between identical
    runs: the manifest's out_dir line and summary.csv's wall-time column."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"out_dir="))
        if path.name == "summary.csv":
            lines = data.decode("utf-8").splitlines()
            col = lines[0].split(",").index("wall_time_s")
            data = "\n".join(",".join(c if i != col else "" for i, c in enumerate(line.split(",")))
                             for line in lines).encode("utf-8")
        h.update(path.name.encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest()


@dataclass(frozen=True)
class ExperimentN10:
    # with m=5000 or 10000 the test set is small enough that, on a few
    # seeds in 100, its noisy curve lets an SGD run reach f*+1e-2 first
    m: int = 20_000
    n: int = 10
    # cut-solver and SGD budget; the derived one makes a call too long to
    # repeat in a run
    iterations: int = 150
    name: ClassVar[str] = "experiment-n10"

    def setup(self, seed: int):
        """The experiment's own set-up phases; run_experiment repeats them."""
        config = bench.BenchConfig(m=self.m, n=self.n, seeds=(seed,), workers=1,
                                   max_iters=self.iterations)
        dataset, _ = problems.generate_synthetic(self.m, self.n, seed=seed)
        train, _ = problems.split_train_test(dataset, config.test_fraction, seed=seed)
        problem = problems.LogisticProblem(train, weight_radius=config.weight_radius)
        problem.fitted_sigma
        solver.estimate_value_range(problem.oracle(), problem.feasible_set, seed=seed, workers=1)
        return config

    def run(self, config, out_dir: Path, tracer=None) -> UnitResult:
        config = dataclasses.replace(config, out_dir=str(out_dir))
        # the outcome holds f* but not the ERM point or run; keep them
        erm_calls, erm_solves = [], []
        with _recording(bench, "erm_reference", erm_calls), \
                _recording(problems, "solve", erm_solves), _call(tracer, 0):
            t0 = time.perf_counter()
            outcome = bench.run_experiment(config)
            wall = time.perf_counter() - t0

        seed_outcome = outcome.seed_outcomes[0]
        ell = next(r for r in seed_outcome.rows if r.solver == "ellipsoid")
        sgd_rows = [r for r in seed_outcome.rows if r.solver == "sgd"]
        (problem, *_), (w_star, f_star) = erm_calls[0]
        # outside the call region, so a traced run does not record these passes
        erm_bound = _certified_gap(problem, f_star, [w_star] + [
            report.records[-1].center for _, report in erm_solves])
        sgd_cross = [r.crossings[1] for r in sgd_rows if r.crossings[1] is not None]
        theory = seed_outcome.theory_batch_size
        return UnitResult(
            wall_s=wall,
            call_s=[wall],
            grad_draws=ell.oracle_calls,
            checks={
                "ordering_ok": seed_outcome.ordering_ok is True,
                "erm_certified": erm_bound <= config.erm_tol,
            },
            digest=_digest_files(out_dir),
            counts={
                "cut_iters_to_1e-2": ell.crossings[1],
                "best_sgd_iters_to_1e-2": min(sgd_cross, default=None),
                "termination": ell.report.termination,
                "separation_frac": _separation_frac([ell.report]),
                "iterations": ell.iterations,
                "erm_fstar_gap_bound": erm_bound,
                "batch_over_theory": None if theory is None else ell.batch_size / theory,
                "regime": _regime(ell.batch_size, theory),
            },
            sgd_sweep_s=sum(r.wall_time_s for r in sgd_rows),
        )


@dataclass(frozen=True)
class SolveN55:
    m: int = 50_000
    n: int = 55
    # a fixed prefix of the ~34.5k-iteration budget, short enough to repeat
    # the call many times in a run; the final selection evaluates every
    # feasible center, an r x candidates value matrix
    prefix: int = 250
    name: ClassVar[str] = "solve-n55"

    def setup(self, seed: int):
        """Data, sigma fit and range probe, with the arguments ``solve`` would
        probe with itself, so passing the range in does not change the run."""
        dataset, _ = problems.generate_synthetic(self.m, self.n, seed=seed)
        problem = problems.LogisticProblem(dataset)
        sigma = problem.fitted_sigma
        oracle = problem.oracle()
        ball = problem.feasible_set
        value_range = solver.estimate_value_range(oracle, ball, seed=seed, workers=1)
        config = solver.SolverConfig(eps=EPS, beta=BETA, sigma=sigma, seed=seed, workers=1,
                                     batch_size=CUT_BATCH, max_iterations=self.prefix,
                                     value_range=value_range)
        return oracle, ball, config, _theory_batch(sigma, ball, value_range)

    def run(self, state, out_dir: Path, tracer=None) -> UnitResult:
        oracle, ball, config, (budget, theory) = state
        trace = out_dir / "trace.csv"
        with _call(tracer, 0):
            t0 = time.perf_counter()
            report = solver.solve(oracle, ball, config)
            reporting.write_trace_csv(trace, report.records)
            wall = time.perf_counter() - t0
        h = hashlib.sha256(trace.read_bytes())
        h.update(repr((report.best_estimate, report.best_point.tolist())).encode("utf-8"))
        return UnitResult(
            wall_s=wall,
            call_s=[wall],
            grad_draws=report.grad_draws,
            checks={
                "termination_budget": report.termination == reporting.TERMINATION_BUDGET,
                "iterations_eq_prefix": report.iterations == self.prefix,
                "best_point_feasible": ball.contains(report.best_point),
            },
            digest=h.hexdigest(),
            counts={
                "termination": report.termination,
                "separation_frac": _separation_frac([report]),
                "iterations": report.iterations,
                "full_budget": budget,
                "batch_over_theory": report.batch_size / theory,
                "regime": _regime(report.batch_size, theory),
            },
        )


@dataclass(frozen=True)
class Theorem2N2:
    runs: int = 100
    name: ClassVar[str] = "theorem2-n2"

    @staticmethod
    def _oracle(problem):
        return oracles.GaussianOracle(problem.objective_and_gradient, 2, sigma=THEOREM2_SIGMA)

    @staticmethod
    def _config(seed: int, run: int):
        return solver.SolverConfig(eps=EPS, beta=THEOREM2_BETA, sigma=THEOREM2_SIGMA,
                                   seed=seed + 1 + run)

    def setup(self, seed: int):
        """The check_theorem2 problem; the range probe of the first run gives
        the theory batch that run derives."""
        rng = np.random.default_rng(seed)
        target = rng.uniform(-0.5, 0.5, size=2)
        ball = geometry.Ball(np.zeros(2), 1.0)
        problem = problems.QuadraticProblem(target, ball)
        value_range = solver.estimate_value_range(self._oracle(problem), ball, seed=seed + 1, workers=1)
        _, theory = _theory_batch(THEOREM2_SIGMA, ball, value_range, THEOREM2_BETA)
        return seed, problem, problem.reference()[1], theory

    def run(self, state, out_dir: Path, tracer=None) -> UnitResult:
        seed, problem, f_star, theory = state
        ball = problem.feasible_set
        reports, solve_s = [], []
        failures = 0
        h = hashlib.sha256()
        t0 = time.perf_counter()
        for run in range(self.runs):
            with _call(tracer, run):
                t = time.perf_counter()
                report = solver.solve(self._oracle(problem), ball, self._config(seed, run))
                solve_s.append(time.perf_counter() - t)
            reports.append(report)
            failures += problem.objective(report.best_point) - f_star > EPS
            h.update(repr((report.best_estimate, report.best_point.tolist(),
                           report.iterations, report.batch_size)).encode("utf-8"))
        wall = time.perf_counter() - t0
        terminations = sorted({r.termination for r in reports})
        return UnitResult(
            wall_s=wall,
            call_s=solve_s,
            grad_draws=sum(r.grad_draws for r in reports),
            checks={"gap_freq_le_beta": failures / self.runs <= THEOREM2_BETA},
            digest=h.hexdigest(),
            counts={
                "gap_gt_eps_freq": failures / self.runs,
                "termination": ",".join(terminations),
                "separation_frac": _separation_frac(reports),
                "iterations": reports[0].iterations,
                "batch_over_theory": reports[0].batch_size / theory,
                "regime": _regime(reports[0].batch_size, theory),
            },
        )


WORKLOADS = {w.name: w for w in (ExperimentN10(), SolveN55(), Theorem2N2())}
