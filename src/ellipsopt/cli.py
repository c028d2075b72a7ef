"""Command line front end.

Subcommands: gen-data (write a synthetic dataset CSV), solve (one cut-solver
run on a dataset), bench (solver comparison experiment), validate (seeded
property suites). Flags override config-file values; exit status is nonzero
exactly when an asserted comparison or validation check fails, or the
inputs are invalid.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bench import (
    BenchConfig,
    InfeasibleConfigError,
    config_from_mapping,
    read_key_value_file,
    run_experiment,
)
from .problems import (
    LogisticProblem,
    generate_synthetic,
    load_dataset_csv,
    save_dataset_csv,
)
from .reporting import format_float, write_trace_csv
from .solver import SolverConfig, solve
from .validation import SUITE_NAMES, run_suite


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    p.add_argument("--out-dir", default=None, help="artifact directory")
    p.add_argument("--eps", type=float, default=None, help="target accuracy")
    p.add_argument("--beta", type=float, default=None, help="allowed failure probability")
    p.add_argument("--sigma", type=float, default=None,
                   help="subgaussian noise scale (default: fitted from data)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="gradient minibatch size; 0 = derive from the concentration bound")
    p.add_argument("--max-iters", type=int, default=None,
                   help="iteration cap; 0 = the 2 n^2 ln(DB/(rho eps)) budget")
    p.add_argument("--csv", default=None, help="dataset CSV path (header row, labels in column y)")
    p.add_argument("--m", type=int, default=None, help="synthetic dataset size")
    p.add_argument("--n", type=int, default=None, help="synthetic feature count")
    p.add_argument("--no-intercept", action="store_true",
                   help="omit the constant-1 intercept column in synthetic data")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsopt",
        description="Cut-based stochastic convex solver, SGD baseline and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic logistic dataset CSV")
    _add_shared_flags(g)
    g.add_argument("--out", default=None, help="output CSV path (default <out-dir>/data.csv)")

    s = sub.add_parser("solve", help="run the cut solver on a logistic dataset")
    _add_shared_flags(s)
    s.add_argument("--weight-radius", type=float, default=10.0,
                   help="radius of the feasible weight ball")
    s.add_argument("--trace", default=None, help="trace CSV path (default <out-dir>/trace.csv)")

    b = sub.add_parser("bench", help="compare the cut solver against the SGD sweep")
    _add_shared_flags(b)
    b.add_argument("--config", default=None,
                   help="key=value config file (flags given here win over it)")
    b.add_argument("--solvers", default=None, help="comma list: ellipsoid,sgd")
    b.add_argument("--seeds", default=None, help="comma list of seeds (overrides --seed)")
    b.add_argument("--sgd-batch-size", type=int, default=None)
    b.add_argument("--sgd-iterations", type=int, default=None)
    b.add_argument("--sweep", default=None, help="comma list of SGD step sizes")
    b.add_argument("--erm-tol", type=float, default=None)
    b.add_argument("--weight-radius", type=float, default=None)
    b.add_argument("--test-fraction", type=float, default=None)

    v = sub.add_parser("validate", help="run a seeded property suite")
    _add_shared_flags(v)
    v.add_argument("suite", choices=sorted(SUITE_NAMES))
    return parser


def _cmd_gen_data(args) -> int:
    m = args.m if args.m is not None else 50_000
    n = args.n if args.n is not None else 20
    seed = args.seed if args.seed is not None else 0
    out = args.out
    if out is None:
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / "data.csv"
    dataset, _ = generate_synthetic(m, n, seed=seed, intercept=not args.no_intercept)
    save_dataset_csv(dataset, out)
    print(f"wrote {dataset.size} x {dataset.width} dataset to {out}")
    return 0


def _cmd_solve(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.csv is not None:
        dataset = load_dataset_csv(args.csv)
    else:
        m = args.m if args.m is not None else 50_000
        n = args.n if args.n is not None else 20
        dataset, _ = generate_synthetic(m, n, seed=seed, intercept=not args.no_intercept)
    problem = LogisticProblem(dataset, weight_radius=args.weight_radius)
    sigma = args.sigma if args.sigma is not None else problem.fitted_sigma
    config = SolverConfig(
        eps=args.eps if args.eps is not None else 0.05,
        beta=args.beta if args.beta is not None else 0.1,
        sigma=sigma,
        seed=seed,
        batch_size=args.batch_size or None,
        max_iterations=args.max_iters or None,
    )
    report = solve(problem.oracle(), problem.feasible_set, config)
    trace = args.trace
    if trace is None:
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        trace = out_dir / "trace.csv"
    write_trace_csv(trace, report.records)
    print(f"iterations={report.iterations} batch_size={report.batch_size} "
          f"termination={report.termination}")
    print(f"best_estimate={format_float(report.best_estimate)}")
    print("best_point=" + ",".join(format_float(v) for v in report.best_point))
    print(f"trace={trace}")
    return 0


def _bench_config(args) -> BenchConfig:
    mapping: dict[str, str] = {}
    if args.config is not None:
        mapping.update(read_key_value_file(args.config))

    # every bench flag's dest is the config key it sets
    for f in dataclasses.fields(BenchConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            mapping[f.name] = str(value)
    if args.no_intercept:
        mapping["intercept"] = "false"
    if args.seeds is None and args.seed is not None:
        mapping["seeds"] = str(args.seed)
    return config_from_mapping(mapping)


def _cmd_bench(args) -> int:
    config = _bench_config(args)
    outcome = run_experiment(config)
    print(f"wrote {len(outcome.trace_paths)} trace files, {outcome.summary_path}, "
          f"{outcome.manifest_path}")
    for oc in outcome.seed_outcomes:
        for row in oc.rows:
            label = row.solver if row.step_size is None else f"{row.solver}(a={row.step_size:.4g})"
            cross = ",".join("-" if c is None else str(c) for c in row.crossings)
            print(f"seed {row.seed} {label}: iters-to-thresholds [{cross}] "
                  f"oracle_calls={row.oracle_calls}")
    if any(oc.ordering_ok is not None for oc in outcome.seed_outcomes):
        print(f"ordering (cut solver first to f*+1e-2 on every seed): "
              f"{'ok' if outcome.ordering_ok else 'FAILED'}")
        return 0 if outcome.ordering_ok else 1
    return 0


def _cmd_validate(args) -> int:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    result = run_suite(args.suite, **kwargs)
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"validate-{args.suite}.txt"
    report_path.write_text("\n".join(result.lines()) + "\n", encoding="utf-8")
    for line in result.lines():
        print(line)
    print(f"report={report_path}")
    return 0 if result.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except (InfeasibleConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
