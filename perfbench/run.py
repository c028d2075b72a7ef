"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload experiment-n10 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each run pins BLAS and OpenMP to one thread. The workload's unit
repeats until ``--seconds`` have passed (at least one unit). A unit is one
or more closed-loop calls.

The host this runs on is shared, and its other tenants slow the program by
up to half for seconds to minutes at a time; that noise only adds time.
So ``--trace 0`` times calls with ``clock``: the fastest repeat of each
millisecond-long slice of a call, summed over the call. ``call_ms`` and
``cut_solve_ms`` are those filtered times, averaged over the unit's
distinct calls. ``setup_s`` filters the same way: the fastest probe of
each module's import time in a fresh interpreter (probed before and after
the units), plus the shortest of the workload's repeated set-ups. The
measured minimum, median and p90 call times are printed as ``info`` lines
but not reported as metrics. Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (output checks) and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one unit
untraced, then set-up and one unit again with every layer wrapped, and
reports the per-layer metrics; the spans go to
``.perfbench-out/spans-<workload>-seed<seed>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import clock
import layers
import spans

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 5
# import probes on each side of the units
IMPORT_PROBES = 5
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
_MARK = "perfbench: import ellipsopt"
_IMPORT_PROBE = f"import sys; print({_MARK!r}, file=sys.stderr, flush=True); import ellipsopt"


def fresh_import() -> dict[str, float]:
    """Module -> self time in s, for every module that importing the package
    (numpy and scipy included) loads in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    lines = out.stderr.splitlines()
    modules = {}
    for line in lines[lines.index(_MARK) + 1:]:
        self_us, _, name = line.removeprefix("import time:").split("|")
        modules[name.strip()] = int(self_us) * 1e-6
    return modules


def filtered_import_s(probes: list[dict[str, float]]) -> float:
    """Sum over modules of the fastest probe's self time, as ``clock`` does
    for calls. The load order varies with the hash seed, so modules are
    matched by name; probes that loaded other modules than the first are
    left out."""
    same = [p for p in probes if p.keys() == probes[0].keys()]
    return sum(min(p[name] for p in same) for name in probes[0])


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty list."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict[str, str]:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = {"nproc": str(os.cpu_count()), "cpu": cpu, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    env.update({var: os.environ.get(var, "") for var in THREAD_VARS})
    return env


def _checks(prefix: str, unit) -> list[tuple[str, bool]]:
    return [(f"{prefix}{name}", ok) for name, ok in unit.checks.items()]


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and run ``workload``; return metrics, checks, counts and digests."""
    OUT_ROOT.mkdir(exist_ok=True)
    imports = [] if trace else [fresh_import() for _ in range(IMPORT_PROBES)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)

    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        def unit_dir(label: str) -> Path:
            path = Path(tmp) / label
            path.mkdir()
            return path

        units, info = [], {}
        if trace:
            units.append(workload.run(state, unit_dir("unit0")))
        else:
            slices = clock.SliceClock()
            slices.tracer.install()
            try:
                start = time.perf_counter()
                while not units or time.perf_counter() - start < seconds:
                    units.append(workload.run(state, unit_dir(f"unit{len(units)}"), slices.tracer))
                    slices.fold()
            finally:
                slices.tracer.uninstall()
        checks = [c for i, u in enumerate(units) for c in _checks(f"unit{i}.", u)]
        checks.append(("digest_repeats", len({u.digest for u in units}) == 1))

        if trace:
            tracer = spans.Tracer(layers.TARGETS)
            tracer.install()
            try:
                with tracer.region("perfbench.setup", "setup"):
                    traced_state = workload.setup(seed)
                traced = workload.run(traced_state, unit_dir("traced"), tracer)
            finally:
                tracer.uninstall()
            checks += _checks("traced.", traced)
            checks.append(("traced_digest_eq_untraced", traced.digest == units[0].digest))
            checks.append(("wrappers_restored", tracer.restored()))
            spans.write_spans_csv(OUT_ROOT / f"spans-{workload.name}-seed{seed}.csv", tracer.spans)
            per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
            values = layers.per_layer_metrics(tracer.spans, [m["name"] for m in per_layer],
                                              traced.counts["separation_frac"],
                                              traced.wall_s - units[0].wall_s)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer}
        else:
            imports += [fresh_import() for _ in range(IMPORT_PROBES)]
            checks.append(("clock_restored", slices.tracer.restored()))
            checks.append(("slices_align", slices.aligned))
            fastest = slices.results()
            cut_s = sum(f.cut_solve_s for f in fastest)
            values = {
                "setup_s": (filtered_import_s(imports) + min(setups), "s"),
                "call_ms": (1000.0 * sum(f.call_s for f in fastest) / len(fastest), "ms"),
                "cut_solve_ms": (1000.0 * cut_s / len(fastest), "ms"),
                "cut_draws_per_s": (units[0].grad_draws / cut_s, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
            calls_ms = [1000.0 * c for u in units for c in u.call_s]
            info = {"measured_call_ms_min": (min(calls_ms), "ms"),
                    "measured_call_ms_p50": (percentile(calls_ms, 50.0), "ms"),
                    "measured_call_ms_p90": (percentile(calls_ms, 90.0), "ms"),
                    "slice_samples_min": (min(f.samples_min for f in fastest), "count")}

    failed = sum(not ok for _, ok in checks)
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "units": len(units),
        "calls": sum(len(u.call_s) for u in units),
        "env": environment(),
        "checks": dict(checks),
        "failed_frac": failed / len(checks),
        "digest": units[0].digest,
        "counts": units[0].counts,
        "metrics": metrics,
        "info": info,
    }
    if units[0].sgd_sweep_s is not None:
        report["info"]["sgd_sweep_s_min"] = (min(u.sgd_sweep_s for u in units), "s")
    return report


def print_report(report: dict) -> None:
    print(f"workload={report['workload']} seed={report['seed']} trace={report['trace']} "
          f"units={report['units']} calls={report['calls']}")
    print("env " + " ".join(f"{k}={v!r}" if " " in v else f"{k}={v}" for k, v in report["env"].items()))
    for name, ok in report["checks"].items():
        print(f"check {name}={'pass' if ok else 'FAIL'}")
    print(f"sha256 artifacts={report['digest']}")
    for name, value in report["counts"].items():
        if name != "regime":
            print(f"count {name}={value}")
    print(f"regime: {report['counts']['regime']}")
    for name, m in report["metrics"].items():
        print(f"metric {name}={m['value']!r} {m['unit']}")
    print(f"metric failed_frac={report['failed_frac']!r} ratio")
    for name, (value, unit) in report["info"].items():
        print(f"info {name}={value!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "ellipsopt" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ellipsopt'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # pinned before numpy loads: BLAS threads oversubscribe small machines and swing timings
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    report = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_ROOT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_report(report)
    failed = sum(not ok for ok in report["checks"].values())
    print(json.dumps({"correct": failed == 0, "attempted": len(report["checks"]),
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
