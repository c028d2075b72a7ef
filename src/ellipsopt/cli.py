"""Command line front end.

Subcommands: gen-data (write a synthetic dataset CSV), solve (one cut-solver
run on a dataset), bench (solver comparison experiment), validate (seeded
property suites). Each run flag sets the ``BenchConfig`` key of its name,
so every subcommand parses, defaults and validates its flags the same way,
and a subcommand takes only the flags it reads. Flags override config-file
values; exit status is nonzero exactly when an asserted comparison or
validation check fails, or the inputs are invalid.
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
    load_dataset,
    read_key_value_file,
    run_experiment,
    solver_config,
)
from .problems import LogisticProblem, save_dataset_csv
from .reporting import format_float, write_trace_csv
from .solver import solve
from .validation import SUITE_NAMES, run_suite


# help text of the run flags; a flag without an entry has none
_HELP = {
    "m": "synthetic dataset size",
    "n": "synthetic feature count",
    "csv": "dataset CSV path (header row, labels in column y)",
    "intercept": "omit the constant-1 intercept column in synthetic data",
    "solvers": "comma list: ellipsoid,sgd",
    "seeds": "comma list of seeds (overrides --seed)",
    "eps": "target accuracy",
    "beta": "allowed failure probability",
    "sigma": "subgaussian noise scale (default: fitted from data)",
    "batch_size": "gradient minibatch size; 0 = derive from the concentration bound",
    "max_iters": "iteration cap; 0 = the 2 n^2 ln(DB/(rho eps)) budget",
    "sweep": "comma list of SGD step sizes",
    "weight_radius": "radius of the feasible weight ball",
    "out_dir": "artifact directory",
}
_DATA_KEYS = ["m", "n", "intercept"]
_SOLVE_KEYS = _DATA_KEYS + ["csv", "eps", "beta", "sigma", "batch_size", "max_iters", "weight_radius"]


def _add_config_flags(p: argparse.ArgumentParser, keys, **defaults) -> None:
    """``--seed`` and one flag per BenchConfig key in ``keys``, its dest the
    key. Values stay strings for ``config_from_mapping`` to parse; an unset
    flag reads its entry in ``defaults``, or None."""
    p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    for key in keys:
        if key == "intercept":
            p.add_argument("--no-intercept", dest=key, action="store_const", const="false",
                           help=_HELP[key])
        else:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=defaults.get(key),
                           help=_HELP.get(key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsopt",
        description="Cut-based stochastic convex solver, SGD baseline and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic logistic dataset CSV")
    _add_config_flags(g, _DATA_KEYS + ["out_dir"], out_dir=".")
    g.add_argument("--out", default=None, help="output CSV path (default <out-dir>/data.csv)")

    s = sub.add_parser("solve", help="run the cut solver on a logistic dataset")
    _add_config_flags(s, _SOLVE_KEYS + ["out_dir"], out_dir=".")
    s.add_argument("--trace", default=None, help="trace CSV path (default <out-dir>/trace.csv)")

    b = sub.add_parser("bench", help="compare the cut solver against the SGD sweep")
    _add_config_flags(b, _SOLVE_KEYS + ["solvers", "seeds", "sgd_batch_size", "sgd_iterations",
                                        "sweep", "erm_tol", "test_fraction", "out_dir"])
    b.add_argument("--config", default=None,
                   help="key=value config file (flags given here win over it)")

    v = sub.add_parser("validate", help="run a seeded property suite")
    _add_config_flags(v, ["out_dir"], out_dir=".")
    v.add_argument("suite", choices=sorted(SUITE_NAMES))
    return parser


def _in_out_dir(out_dir: str, name: str) -> Path:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return Path(out_dir) / name


def _cmd_gen_data(args) -> int:
    config = _bench_config(args)
    out = args.out if args.out is not None else _in_out_dir(config.out_dir, "data.csv")
    dataset = load_dataset(config, config.seeds[0])
    save_dataset_csv(dataset, out)
    print(f"wrote {dataset.size} x {dataset.width} dataset to {out}")
    return 0


def _cmd_solve(args) -> int:
    config = _bench_config(args)
    seed = config.seeds[0]
    problem = LogisticProblem(load_dataset(config, seed), weight_radius=config.weight_radius)
    report = solve(problem.oracle(), problem.feasible_set, solver_config(config, seed, problem))
    trace = args.trace if args.trace is not None else _in_out_dir(config.out_dir, "trace.csv")
    write_trace_csv(trace, report.records)
    print(f"iterations={report.iterations} batch_size={report.batch_size} "
          f"termination={report.termination}")
    print(f"best_estimate={format_float(report.best_estimate)}")
    print("best_point=" + ",".join(format_float(v) for v in report.best_point))
    print(f"trace={trace}")
    return 0


def _bench_config(args) -> BenchConfig:
    """The config a gen-data, solve or bench command line describes."""
    mapping: dict[str, str] = {}
    if getattr(args, "config", None) is not None:
        mapping.update(read_key_value_file(args.config))

    # every run flag's dest is the config key it sets
    for f in dataclasses.fields(BenchConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            mapping[f.name] = str(value)
    if getattr(args, "seeds", None) is None and args.seed is not None:
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
    report_path = _in_out_dir(args.out_dir, f"validate-{args.suite}.txt")
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}; a smaller --batch-size needs less", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
