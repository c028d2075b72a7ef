"""Tests of the benchmark itself: span arithmetic, wrapper restoration, and a
seconds-long smoke configuration of every workload through ``measure``.

    python3 -m pytest perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clock
import layers
import run
import spans
import workloads
from ellipsopt import solver

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))

SMOKE = [
    workloads.ExperimentN10(m=3000, n=5, iterations=40),
    workloads.SolveN55(m=3000, n=6, prefix=60),
    workloads.Theorem2N2(runs=5),
]


def _tree():
    # root [0, 10] with children a [1, 4] and b [5, 6] closing one after the
    # other, a child c [2, 3] of a, and a parent-less c [11, 12]
    S = spans.Span
    return [
        S(3, "c", 2.0, 3.0, 1, "r", {"elements": 7}),
        S(1, "a", 1.0, 4.0, 0, "r", {"elements": 5}),
        S(2, "b", 5.0, 6.0, 0, "r"),
        S(0, "root", 0.0, 10.0, None, "r"),
        S(4, "c", 11.0, 12.0, None, "r", {"elements": 1}),
    ]


def test_self_time_is_duration_minus_the_children_durations():
    # root: 10 - (3 + 1); a: 3 - 1
    assert spans.self_times(_tree()) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0}


def test_layer_totals_and_counts_within_an_ancestor():
    tree = _tree()
    totals = spans.layer_totals(tree)
    assert totals["c"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0, "elements": 8}
    assert totals["root"]["self_s"] == 6.0 and totals["root"]["total_s"] == 10.0
    assert spans.sum_within(tree, "a", "c") == 1
    assert spans.sum_within(tree, "root", "c", "elements") == 7
    assert spans.sum_within(tree, "b", "c") == 0


def test_tracer_records_only_calls_inside_a_region():
    tracer = spans.Tracer([])
    f = tracer.wrap("f", lambda x: x + 1)
    assert f(1) == 2
    with tracer.region("outer", "call0"):
        assert f(2) == 3
    assert f(3) == 4
    outer, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert (outer.name, inner.name) == ("outer", "f")
    assert inner.parent == outer.id and inner.run == "call0"


def _call_spans(shift: float, first_slice: float = 1.0, extra_step: bool = False):
    """One call: region [0, 10] around a solve loop [1, 9] with two gradient
    + step iterations, the second gradient 0.5 slower than the first."""
    S = spans.Span
    iters = [(2.0, 3.0, 3.5, 4.0), (5.0, 6.5, 7.0, 7.5)] + [(7.6, 8.0, 8.2, 8.5)] * extra_step
    out = [S(0, "perfbench.call", shift + 1.0 - first_slice, shift + 10.0, None, "call0"),
           S(1, "solver.solve", shift + 1.0, shift + 9.0, 0, "call0")]
    for k, (g0, g1, s0, s1) in enumerate(iters):
        out += [S(2 + 2 * k, "oracles.minibatch_gradient", shift + g0, shift + g1, 1, "call0"),
                S(3 + 2 * k, "geometry.ellipsoid_step", shift + s0, shift + s1, 1, "call0")]
    return out


def test_clock_sums_the_fastest_slice_of_each_label():
    clock_ = clock.SliceClock()
    clock_.tracer.spans = _call_spans(0.0)
    clock_.fold()
    # measured 10; the two gradient slices share a label, so both count as the faster 1.0
    (only,) = clock_.results()
    assert only.call_s == pytest.approx(9.5)
    assert only.cut_solve_s == pytest.approx(7.5)
    clock_.tracer.spans = _call_spans(20.0, first_slice=0.25)
    clock_.fold()
    (only,) = clock_.results()
    assert only.call_s == pytest.approx(8.75)
    assert only.samples_min == 2 and clock_.aligned
    clock_.tracer.spans = _call_spans(40.0, extra_step=True)
    clock_.fold()
    assert not clock_.aligned


def test_import_time_sums_each_modules_fastest_probe():
    probes = [{"numpy": 0.2, "scipy": 0.1}, {"scipy": 0.05, "numpy": 0.3},
              {"numpy": 0.01}]
    assert run.filtered_import_s(probes) == pytest.approx(0.25)


def _bindings():
    """Identity of every attribute of the package's modules and traced classes."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "ellipsopt"]
    for t in layers.TARGETS:
        owner, _, _ = t.attr.rpartition(".")
        if owner:
            owners.append(getattr(sys.modules[t.module], owner))
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_traced_run_restores_every_wrapper_and_matches_the_untraced_digest(workload):
    before = _bindings()
    report = run.measure(workload, seed=0, seconds=0.0, trace=True)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert report["checks"]["wrappers_restored"]
    assert report["checks"]["traced_digest_eq_untraced"]
    assert all(report["checks"].values()), report["checks"]
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(report["metrics"]) == names
    values = {k: v["value"] for k, v in report["metrics"].items()}
    assert values["oracles.minibatch_gradient.calls"] > 0
    assert values["solver.solve.self_s"] > 0


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    report = run.measure(workload, seed=1, seconds=0.0, trace=False)
    assert all(report["checks"].values()), report["checks"]
    assert report["failed_frac"] == 0.0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in report["metrics"].values())
    assert re.fullmatch(r"[0-9a-f]{64}", report["digest"])


def test_experiment_smoke_digest_repeats_across_units_and_seeds_differ():
    w = SMOKE[0]
    state = w.setup(3)
    tmp = Path(run.OUT_ROOT) / "test-digest"
    shutil.rmtree(tmp, ignore_errors=True)
    digests = []
    for i in range(2):
        (tmp / str(i)).mkdir(parents=True)
        digests.append(w.run(state, tmp / str(i)).digest)
    (tmp / "other").mkdir()
    other = w.run(w.setup(4), tmp / "other").digest
    shutil.rmtree(tmp)
    assert digests[0] == digests[1] != other


def test_solve_setup_passes_the_range_solve_would_probe_itself():
    w = SMOKE[1]
    oracle, ball, config, _ = w.setup(2)
    derived = solver.SolverConfig(eps=config.eps, beta=config.beta, sigma=config.sigma,
                                  seed=config.seed, batch_size=config.batch_size,
                                  max_iterations=config.max_iterations)
    a = solver.solve(oracle, ball, config)
    b = solver.solve(oracle, ball, derived)
    assert np.array_equal(a.best_point, b.best_point)
    assert a.best_estimate == b.best_estimate


def test_benchmark_json_names_the_workloads_and_valid_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theorem2-n2",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
