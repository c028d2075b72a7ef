"""The benchmark in perfbench/ wraps package functions by name from outside
the package. Renaming or deleting one of them must fail this suite, not only
a traced benchmark run. The benchmark's modules are imported without writing
bytecode next to them."""

import functools
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from ellipsopt import _rng, sgd
from ellipsopt.geometry import Box
from ellipsopt.oracles import GaussianOracle
from ellipsopt.problems import LinearProblem
from ellipsopt.reporting import CUT_SEPARATION, write_trace_csv
from ellipsopt.sgd import SgdConfig, sgd_run
from ellipsopt.solver import SolverConfig, solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def hook_modules():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        layers = importlib.import_module("layers")
        clock = importlib.import_module("clock")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    yield layers, clock, workloads
    for name in ("layers", "clock", "spans", "workloads"):
        sys.modules.pop(name, None)


def _resolve(module: str, attr: str):
    """The object the tracer wraps: a module's own function, or a method
    defined on the class itself (``vars``, so an inherited one does not count)."""
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for part in classes:
        owner = getattr(owner, part)
    return vars(owner)[name]


def test_every_traced_target_resolves(hook_modules):
    layers, clock, _ = hook_modules
    targets = layers.TARGETS + clock.TARGETS
    assert targets
    for target in targets:
        assert target.module.split(".")[0] == "ellipsopt", target
        obj = _resolve(target.module, target.attr)
        assert callable(obj) or isinstance(obj, functools.cached_property), target


def test_recorded_module_attributes_resolve():
    # the experiment workload records erm_reference as bench calls it and
    # the solve that erm_reference runs, through these module attributes
    assert callable(_resolve("ellipsopt.problems", "solve"))
    assert callable(_resolve("ellipsopt.bench", "erm_reference"))


def test_a_split_gaussian_draw_records_one_span_per_traced_call(hook_modules, monkeypatch):
    # the tracer keeps one span stack and is not thread-safe: the threads that
    # fill parts of a split draw must call no traced function
    layers, _, _ = hook_modules
    monkeypatch.setattr(_rng, "_CPUS", 4)
    oracle = GaussianOracle(lambda x: (float(x @ x), 2.0 * x), 2, sigma=0.25)
    tracer = sys.modules["spans"].Tracer(layers.TARGETS)
    tracer.install()
    try:
        with tracer.region("call", "call0"):
            oracle.batch_mean(np.array([0.5, -0.25]), 0, _rng.GRAD_STREAM, 3, 21888)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    ids = {s.id for s in tracer.spans}
    names = [s.name for s in tracer.spans]
    for name in ("rng.standard_normals", "rng.stream_key", "rng.pairwise_mean"):
        assert names.count(name) == 1, names
    assert names.count("call") == 1
    assert all(s.parent in ids for s in tracer.spans if s.name != "call")
    assert all(s.run == "call0" for s in tracer.spans)


def test_every_lockstep_sgd_step_counts_as_one_step(hook_modules):
    layers, _, _ = hook_modules
    box = Box.centered(2, 1.0)
    oracle = GaussianOracle(LinearProblem(np.array([-1.0, -2.0]), box).objective_and_gradient, 2, sigma=0.5)
    tracer = sys.modules["spans"].Tracer(layers.TARGETS)
    tracer.install()
    try:
        with tracer.region("call", "call0"):
            # through the module attribute, which the tracer rebinds
            sgd.sgd_run(oracle, box, SgdConfig((0.01, 0.1, 1.0), iterations=17, batch_size=4))
    finally:
        tracer.uninstall()
    assert tracer.restored()
    metrics = layers.per_layer_metrics(
        tracer.spans, ["sgd.sgd_run.steps", "oracles.estimate_values.points"], 0.0, 0.0)
    assert metrics["sgd.sgd_run.steps"] == 17
    # the sweep returns its last iterates unscored: no value draw at any point
    assert metrics["oracles.estimate_values.points"] == 0


def test_a_solve_measures_the_log_det_at_its_start_and_end(hook_modules):
    # the closed form fills the trace, so the traced layer must still see the checks
    layers, _, _ = hook_modules
    box = Box.centered(2, 1.0)
    oracle = GaussianOracle(LinearProblem(np.array([-1.0, -2.0]), box).objective_and_gradient, 2, sigma=0.5)
    tracer = sys.modules["spans"].Tracer(layers.TARGETS)
    tracer.install()
    try:
        with tracer.region("call", "call0"):
            solve(oracle, box, SolverConfig(sigma=0.5, batch_size=4, max_iterations=10, value_range=1.0))
    finally:
        tracer.uninstall()
    assert tracer.restored()
    names = [s.name for s in sorted(tracer.spans, key=lambda s: s.start)]
    metrics = layers.per_layer_metrics(tracer.spans, ["geometry.Ellipsoid.log_det_shape.calls"], 0.0, 0.0)
    assert metrics["geometry.Ellipsoid.log_det_shape.calls"] >= 2
    steps = [i for i, name in enumerate(names) if name in ("oracles.minibatch_gradient", "geometry.ellipsoid_step")]
    log_dets = [i for i, name in enumerate(names) if name == "geometry.Ellipsoid.log_det_shape"]
    assert log_dets[0] < steps[0] and log_dets[-1] > steps[-1]


def _reports():
    """A cut run with separation and subgradient rows, and one SGD entry."""
    box = Box.centered(2, 1.0)
    problem = LinearProblem(np.array([-1.0, -2.0]), box)
    oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.0)
    cut = solve(oracle, box, SolverConfig(eps=1e-4, sigma=0.0, seed=1))
    [sgd] = sgd_run(oracle, box, SgdConfig((0.1,), iterations=30, batch_size=4))
    return {"solve": cut, "sgd": sgd}


@pytest.mark.parametrize("solver", ["solve", "sgd"])
def test_the_report_reads_of_the_workloads_hold(hook_modules, solver, tmp_path):
    # the reads perfbench/workloads.py and layers.py make of a report
    layers, _, workloads = hook_modules
    report = _reports()[solver]
    records = report.records
    kinds = [r.cut_kind for r in records]
    assert len(kinds) == len(records) == report.iterations > 0
    assert workloads._separation_frac([report]) == kinds.count(CUT_SEPARATION) / len(kinds)
    assert (0 < kinds.count(CUT_SEPARATION) < len(kinds)) == (solver == "solve")
    assert report.grad_draws == report.batch_size * (len(kinds) - kinds.count(CUT_SEPARATION))
    assert np.array_equal(records[-1].center, records.centers[len(records) - 1])
    path = tmp_path / "trace.csv"
    write_trace_csv(path, records)
    counts = layers._trace_csv_counts((path, records), {}, None)
    assert counts["rows"] == len(records) == len(path.read_text(encoding="utf-8").splitlines()) - 1


@pytest.mark.parametrize("solver", ["solve", "sgd"])
def test_the_row_view_reads_each_column(solver):
    records = _reports()[solver].records
    for k, r in enumerate(records):
        assert r.index == k
        assert r.feasible == (r.cut_kind != CUT_SEPARATION)
        assert (r.f_estimate is None) == (r.cut_kind == CUT_SEPARATION)
        assert (r.log_det_shape is None) == (solver == "sgd")
        assert np.array_equal(r.center, records.centers[k])
    assert (records[-1].index, records[-len(records)].index) == (len(records) - 1, 0)
    with pytest.raises(IndexError):
        records[len(records)]
    with pytest.raises(IndexError):
        records[-len(records) - 1]
