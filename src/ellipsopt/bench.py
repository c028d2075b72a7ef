"""Benchmark harness: cut solver vs projected SGD on logistic problems.

One experiment runs both solvers over shared seeds. Per seed it builds a
dataset (synthetic or from CSV), splits train/test, fits the ERM reference,
then traces each solver's test loss against the iteration count. Artifacts
per experiment: one trace CSV per (solver, seed), a summary table covering
every sweep configuration, and a key=value manifest that doubles as a
config file for byte-identical reruns.

Iteration counts and total oracle draws are reported side by side: the cut
solver takes far fewer iterations but each one consumes a large batch, so
neither axis alone tells the story.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._rng import SEED_LIMIT
from .geometry import linear_optimality_gap
from .problems import (
    LogisticProblem,
    erm_reference,
    generate_synthetic,
    load_dataset_csv,
    split_train_test,
)
from .reporting import SolverReport, Trace, format_float, write_trace_csv
from .sgd import SgdConfig, default_step_grid, sgd_run
from .solver import SolverConfig, resolve_plan, solve

THRESHOLDS = (1e-1, 1e-2, 1e-3)

SUMMARY_COLUMNS = [
    "solver", "seed", "step_size", "batch_size", "iterations",
    "iters_to_1e-1", "iters_to_1e-2", "iters_to_1e-3",
    "oracle_calls", "eval_calls", "wall_time_s", "final_test_loss", "returned_test_loss",
]


class InfeasibleConfigError(ValueError):
    """Config asks for something no run could satisfy (before any file IO)."""


@dataclass(frozen=True)
class BenchConfig:
    """Experiment description; every field maps to one manifest key.

    A field's annotation fixes how its manifest value is parsed and written
    (``_VALUE_KINDS``); an ``int | None`` field reads 0 as "derive it".

    ``workers`` has no effect; it is kept so that existing callers and
    saved manifests still load.
    """

    m: int = 50_000
    n: int = 20
    csv: str | None = None
    intercept: bool = True
    seeds: tuple[int, ...] = (0,)
    eps: float = 0.05
    beta: float = 0.1
    sigma: float | None = None
    batch_size: int | None = 4096
    max_iters: int | None = None
    sgd_batch_size: int = 16
    sgd_iterations: int | None = None
    sweep: tuple[float, ...] | None = None
    test_fraction: float = 0.2
    weight_radius: float = 10.0
    erm_tol: float = 1e-4
    workers: int = 1
    out_dir: str = "bench-out"

    def __post_init__(self) -> None:
        if not self.seeds:
            raise InfeasibleConfigError("provide at least one seed")
        if not all(0 <= s < SEED_LIMIT for s in self.seeds):
            raise InfeasibleConfigError(f"seeds must lie in [0, 2**64), got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise InfeasibleConfigError(f"seeds must not repeat, got {self.seeds}")
        if not 0.0 < self.eps < math.inf:
            raise InfeasibleConfigError("eps must be positive and finite")
        if not 0.0 < self.beta < 1.0:
            raise InfeasibleConfigError("beta must lie strictly inside (0, 1)")
        if self.csv is None and (self.m < 10 or self.n < 2):
            raise InfeasibleConfigError("synthetic data needs m >= 10 and n >= 2")
        if not 0.0 < self.test_fraction < 1.0:
            raise InfeasibleConfigError("test fraction must lie strictly inside (0, 1)")
        if self.workers < 1:
            raise InfeasibleConfigError("worker count must be at least 1")
        for name in ("batch_size", "max_iters", "sgd_iterations"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise InfeasibleConfigError(f"{name} must be at least 1 when given")
        if self.sgd_batch_size < 1:
            raise InfeasibleConfigError("sgd_batch_size must be at least 1")
        if not (0.0 < self.erm_tol < math.inf and 0.0 < self.weight_radius < math.inf):
            raise InfeasibleConfigError("erm_tol and weight_radius must be positive and finite")
        if self.sigma is not None and not 0.0 <= self.sigma < math.inf:
            raise InfeasibleConfigError("sigma must be non-negative and finite when given")
        if self.sweep is not None and not self.sweep:
            raise InfeasibleConfigError("sweep must list at least one step size when given")
        if self.sweep is not None and not all(0.0 <= s < math.inf for s in self.sweep):
            raise InfeasibleConfigError(
                f"sweep step sizes must be non-negative and finite, got {self.sweep}"
            )


@dataclass
class RunRow:
    """One summary line: a single solver configuration on a single seed."""

    solver: str
    seed: int
    step_size: float | None
    batch_size: int
    iterations: int
    crossings: tuple[int | None, int | None, int | None]
    oracle_calls: int
    eval_calls: int
    wall_time_s: float
    # the curve's last value, and the test loss of the point the solver returns
    final_test_loss: float
    returned_test_loss: float
    report: SolverReport

    def cells(self) -> list[str]:
        return [
            self.solver,
            str(self.seed),
            "" if self.step_size is None else format_float(self.step_size),
            str(self.batch_size),
            str(self.iterations),
            *("" if c is None else str(c) for c in self.crossings),
            str(self.oracle_calls),
            str(self.eval_calls),
            f"{self.wall_time_s:.3f}",
            format_float(self.final_test_loss),
            format_float(self.returned_test_loss),
        ]


@dataclass
class SeedOutcome:
    seed: int
    f_star_train: float
    # exact-gradient linear optimality gap at the ERM point
    f_star_gap: float
    f_star_test: float
    sigma: float
    value_range: float
    iterations: int
    theory_batch_size: int | None
    sweep: tuple[float, ...]
    rows: list[RunRow] = field(default_factory=list)
    ordering_ok: bool = False


@dataclass
class ExperimentOutcome:
    seed_outcomes: list[SeedOutcome]
    ordering_ok: bool
    trace_paths: list[Path]
    summary_path: Path
    manifest_path: Path


def first_crossings(curve, f_star: float):
    """First iteration index where the curve dips to f_star + t, per t in THRESHOLDS."""
    values = np.asarray(curve, dtype=np.float64)
    out: list[int | None] = []
    for t in THRESHOLDS:
        hits = np.nonzero(values <= f_star + t)[0]
        out.append(int(hits[0]) if hits.size else None)
    return tuple(out)


def running_best_test_curve(trace: Trace, test_problem: LogisticProblem) -> np.ndarray:
    """Test loss of the point the cut solver would return after each step.

    The anytime output is the feasible center with the lowest recorded
    estimate so far (a separation row's NaN never is). Its test loss is
    recomputed, as a single-row pass with matrix-vector bits, only when it changes.
    """
    best_estimate = math.inf
    current = math.inf
    out = np.empty(len(trace))
    for i, estimate in enumerate(trace.f_estimates.tolist()):
        if estimate < best_estimate:
            best_estimate = estimate
            current = float(test_problem.objective(trace.centers[i]))
        out[i] = current
    return out


def iterate_test_curve(trace: Trace, test_problem: LogisticProblem) -> np.ndarray:
    """Test loss of every recorded iterate (SGD's anytime output)."""
    return test_problem.objective_many(trace.centers)


def load_dataset(config: BenchConfig, seed: int):
    """The config's dataset: its CSV, or the synthetic draw for ``seed``."""
    if config.csv is not None:
        return load_dataset_csv(config.csv)
    dataset, _ = generate_synthetic(config.m, config.n, seed=seed, intercept=config.intercept)
    return dataset


def solver_config(config: BenchConfig, seed: int, problem: LogisticProblem) -> SolverConfig:
    """The cut solver's parameters for one seed, sigma fitted to the data if unset."""
    return SolverConfig(
        eps=config.eps,
        beta=config.beta,
        sigma=config.sigma if config.sigma is not None else problem.fitted_sigma,
        seed=seed,
        batch_size=config.batch_size,
        max_iterations=config.max_iters,
    )


def _run_seed(config: BenchConfig, seed: int) -> SeedOutcome:
    train, test = split_train_test(load_dataset(config, seed), config.test_fraction, seed=seed)
    problem = LogisticProblem(train, weight_radius=config.weight_radius)
    test_problem = LogisticProblem(test, weight_radius=config.weight_radius)
    ball = problem.feasible_set
    oracle = problem.oracle()

    solver_cfg = solver_config(config, seed, problem)
    try:
        plan = resolve_plan(oracle, ball, solver_cfg)
    except ValueError as exc:
        raise InfeasibleConfigError(str(exc)) from exc
    if plan.iterations == 0:
        raise InfeasibleConfigError(f"seed {seed}: the iteration budget derived for eps={config.eps} "
                                    "is 0, so no run has a curve; use a smaller eps or set max_iters")
    # the solve reuses the probed range instead of probing again
    solver_cfg = dataclasses.replace(solver_cfg, value_range=plan.value_range)
    sweep = config.sweep if config.sweep is not None else default_step_grid(ball.diameter, plan.value_range)
    sgd_iters = config.sgd_iterations if config.sgd_iterations is not None else plan.iterations

    w_star, f_star_train = erm_reference(problem, tol=config.erm_tol, seed=seed)
    f_star_test = float(test_problem.objective(w_star))

    outcome = SeedOutcome(
        seed=seed,
        f_star_train=f_star_train,
        f_star_gap=linear_optimality_gap(ball, w_star, problem.gradient(w_star)),
        f_star_test=f_star_test,
        sigma=solver_cfg.sigma,
        value_range=plan.value_range,
        iterations=plan.iterations,
        theory_batch_size=plan.theory_batch_size,
        sweep=tuple(sweep),
    )

    def add_row(solver: str, step_size: float | None, report: SolverReport, wall: float,
                test_curve) -> None:
        curve = test_curve(report.records, test_problem)
        outcome.rows.append(
            RunRow(
                solver=solver,
                seed=seed,
                step_size=step_size,
                batch_size=report.batch_size,
                iterations=report.iterations,
                crossings=first_crossings(curve, f_star_test),
                oracle_calls=report.grad_draws,
                eval_calls=report.eval_draws,
                wall_time_s=wall,
                final_test_loss=float(curve[-1]),
                returned_test_loss=test_problem.objective(report.best_point),
                report=report,
            )
        )

    # wall times cover the solver calls only, not the test curves
    t0 = time.perf_counter()
    report = solve(oracle, ball, solver_cfg)
    add_row("ellipsoid", None, report, time.perf_counter() - t0, running_best_test_curve)
    sgd_cfg = SgdConfig(
        step_sizes=tuple(sweep),
        iterations=sgd_iters,
        batch_size=config.sgd_batch_size,
        seed=seed,
    )
    t0 = time.perf_counter()
    reports = sgd_run(oracle, ball, sgd_cfg)
    # the entries run in lockstep, so each gets an equal share of the sweep's time
    wall = (time.perf_counter() - t0) / len(reports)
    for alpha, report in zip(sweep, reports):
        add_row("sgd", alpha, report, wall, iterate_test_curve)

    outcome.ordering_ok = _check_ordering(outcome)
    return outcome


def _check_ordering(outcome: SeedOutcome) -> bool:
    """Cut solver must hit f*+1e-2 in strictly fewer iterations than every
    SGD configuration."""
    target = next(r for r in outcome.rows if r.solver == "ellipsoid").crossings[1]
    return target is not None and all(r.crossings[1] is None or target < r.crossings[1]
                                      for r in outcome.rows if r.solver == "sgd")


def _best_sgd_row(rows: list[RunRow]) -> RunRow:
    """The sweep configuration whose trace gets archived: earliest to the
    1e-2 threshold, then earliest to 1e-3, then lowest final test loss."""
    def key(r: RunRow):
        c2 = math.inf if r.crossings[1] is None else r.crossings[1]
        c3 = math.inf if r.crossings[2] is None else r.crossings[2]
        return (c2, c3, r.final_test_loss)
    return min((r for r in rows if r.solver == "sgd"), key=key)


def render_summary_csv(rows: list[RunRow]) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    lines.extend(",".join(row.cells()) for row in rows)
    return "\n".join(lines) + "\n"


# --- manifest / config file format -----------------------------------------

def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false", "0", "1"):
        raise ValueError("expected true/false")
    return value.lower() in ("true", "1")


def _split(value: str) -> list[str]:
    return [p.strip() for p in value.split(",") if p.strip() != ""]


# BenchConfig's fields are the manifest schema: a field's annotation, with
# "| None" stripped, picks the (parse, format) pair for its value
_VALUE_KINDS = {
    "int": (int, str),
    "float": (float, format_float),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "str": (str, str),
    "tuple[int, ...]": (lambda s: tuple(int(p) for p in _split(s)), lambda v: ",".join(map(str, v))),
    "tuple[float, ...]": (lambda s: tuple(float(p) for p in _split(s)),
                          lambda v: ",".join(map(format_float, v))),
}
# key -> (parse, format, derivable); the int | None keys read 0 as "derive it"
_SCHEMA = {
    f.name: (*_VALUE_KINDS[f.type.removesuffix(" | None")], f.type == "int | None")
    for f in dataclasses.fields(BenchConfig)
}
# keys older manifests carry -> (the values that still load, a test for them). Only a
# value meaning what the code now always does loads: no old manifest reruns another experiment
_RETIRED_KEYS = {
    "parallel_seeds": ("any value", lambda v: True),
    "solvers": ("ellipsoid,sgd", lambda v: v == "" or sorted(_split(v)) == ["ellipsoid", "sgd"]),
    "eval_batch_size": ("0", lambda v: v in ("", "0")),
}


def read_key_value_file(path) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment, blanks skipped."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def config_from_mapping(mapping: dict[str, str]) -> BenchConfig:
    """Build a config from string key=value pairs (file or CLI supplied).

    Keys outside the config schema are ignored when prefixed with
    "resolved." or "result." (manifest echo lines), and so are retired keys
    (``_RETIRED_KEYS``) at a value that still loads; anything else unknown
    is an error. Empty values mean "use the default / derive it".
    """
    kwargs: dict[str, object] = {}
    for key, value in mapping.items():
        if key.startswith(("resolved.", "result.")):
            continue
        if key in _RETIRED_KEYS:
            accepted, loads = _RETIRED_KEYS[key]
            if not loads(value):
                raise ValueError(f"config key {key} is retired and loads only as {accepted}, got {value!r}")
            continue
        if key not in _SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        if value == "":
            continue
        parse, _, derivable = _SCHEMA[key]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ValueError(f"config key {key}={value!r}: {exc}") from exc
        kwargs[key] = None if derivable and parsed == 0 else parsed
    return BenchConfig(**kwargs)


def _config_items(config: BenchConfig) -> list[tuple[str, str]]:
    items = []
    for key, (_, fmt, derivable) in _SCHEMA.items():
        value = getattr(config, key)
        if value is None:
            # 0 round-trips to "derive it" for these; "" would load as the
            # field default, which for batch_size is a fixed size instead
            items.append((key, "0" if derivable else ""))
        else:
            items.append((key, fmt(value)))
    return items


def render_manifest(config: BenchConfig, outcomes: list[SeedOutcome], ordering_ok: bool) -> str:
    lines = ["# experiment manifest: the key=value lines below rerun this",
             "# experiment byte-identically via --config (resolved.* and",
             "# result.* lines are informational echoes and are ignored)"]
    lines.extend(f"{k}={v}" for k, v in _config_items(config))
    for oc in outcomes:
        p = f"resolved.seed{oc.seed}"
        lines.append(f"{p}.sigma={format_float(oc.sigma)}")
        lines.append(f"{p}.value_range={format_float(oc.value_range)}")
        lines.append(f"{p}.iterations={oc.iterations}")
        theory = "" if oc.theory_batch_size is None else str(oc.theory_batch_size)
        lines.append(f"{p}.theory_batch_size={theory}")
        lines.append(f"{p}.sweep={','.join(format_float(a) for a in oc.sweep)}")
        lines.append(f"{p}.f_star_train={format_float(oc.f_star_train)}")
        lines.append(f"{p}.f_star_gap={format_float(oc.f_star_gap)}")
        lines.append(f"{p}.f_star_test={format_float(oc.f_star_test)}")
        lines.append(f"result.seed{oc.seed}.ordering_ok={'true' if oc.ordering_ok else 'false'}")
    lines.append(f"result.ordering_ok={'true' if ordering_ok else 'false'}")
    return "\n".join(lines) + "\n"


def run_experiment(config: BenchConfig) -> ExperimentOutcome:
    """Run every (solver, seed) pair and write traces, summary, manifest.

    Artifact layout under config.out_dir: ellipsoid-seed<g>.csv and
    sgd-seed<g>.csv per seed (the SGD trace is the best sweep entry),
    summary.csv with one row per sweep configuration, manifest.txt.
    Raises InfeasibleConfigError before writing anything if the config
    cannot run (that includes eps so small the theory batch size
    overflows the float budget while no explicit batch size is given):
    every seed runs before the first file is written.
    """
    out_dir = Path(config.out_dir)
    outcomes = [_run_seed(config, seed) for seed in config.seeds]

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_paths: list[Path] = []
    all_rows: list[RunRow] = []
    for oc in outcomes:
        all_rows.extend(oc.rows)
        for row in (next(r for r in oc.rows if r.solver == "ellipsoid"), _best_sgd_row(oc.rows)):
            path = out_dir / f"{row.solver}-seed{oc.seed}.csv"
            write_trace_csv(path, row.report.records)
            trace_paths.append(path)

    summary_path = out_dir / "summary.csv"
    summary_path.write_text(render_summary_csv(all_rows), encoding="utf-8")

    ordering_ok = all(oc.ordering_ok for oc in outcomes)
    manifest_path = out_dir / "manifest.txt"
    manifest_path.write_text(render_manifest(config, outcomes, ordering_ok), encoding="utf-8")

    return ExperimentOutcome(
        seed_outcomes=outcomes,
        ordering_ok=ordering_ok,
        trace_paths=trace_paths,
        summary_path=summary_path,
        manifest_path=manifest_path,
    )
