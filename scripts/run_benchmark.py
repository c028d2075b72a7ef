#!/usr/bin/env python3
"""Full benchmark: cut solver vs the SGD sweep on synthetic logistic data.

Reproduces the package's headline comparison (n=20 over three seeds, then
n=55) and prints iterations-to-threshold per solver configuration. Artifacts
land under --out-dir: trace CSVs, summary.csv, manifest.txt per experiment.
"""

import argparse
import sys
import time
from pathlib import Path

from ellipsopt.bench import BenchConfig, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="bench-out")
    parser.add_argument("--m", type=int, default=50_000)
    parser.add_argument("--quick", action="store_true",
                        help="small problem for a fast end-to-end check")
    args = parser.parse_args()

    if args.quick:
        plans = [("quick", BenchConfig(m=4_000, n=5, seeds=(0,), batch_size=512,
                                       max_iters=400, sgd_iterations=400,
                                       out_dir=str(Path(args.out_dir) / "quick")))]
    else:
        plans = [
            ("n=20", BenchConfig(m=args.m, n=20, seeds=(0, 1, 2),
                                 out_dir=str(Path(args.out_dir) / "n20"))),
            ("n=55", BenchConfig(m=args.m, n=55, seeds=(0,),
                                 out_dir=str(Path(args.out_dir) / "n55"))),
        ]

    all_ok = True
    for label, config in plans:
        t0 = time.perf_counter()
        outcome = run_experiment(config)
        dt = time.perf_counter() - t0
        print(f"[{label}] ordering_ok={outcome.ordering_ok}  wall={dt:.1f}s  "
              f"artifacts in {config.out_dir}")
        for oc in outcome.seed_outcomes:
            print(f"  seed {oc.seed}: f*_test={oc.f_star_test:.6f} "
                  f"sigma={oc.sigma:.3f} N={oc.iterations}")
            for row in oc.rows:
                name = row.solver if row.step_size is None else \
                    f"{row.solver}(a={row.step_size:.4g})"
                cross = ", ".join("-" if c is None else str(c) for c in row.crossings)
                print(f"    {name:24s} to f*+{{1e-1,1e-2,1e-3}}: [{cross}]  "
                      f"oracle_calls={row.oracle_calls}")
        all_ok = all_ok and outcome.ordering_ok
    print(f"overall ordering: {'ok' if all_ok else 'FAILED'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
