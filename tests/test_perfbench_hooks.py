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

from ellipsopt import _rng
from ellipsopt.oracles import GaussianOracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def hook_modules():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        layers = importlib.import_module("layers")
        clock = importlib.import_module("clock")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    yield layers, clock
    for name in ("layers", "clock", "spans"):
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
    layers, clock = hook_modules
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
    layers, _ = hook_modules
    monkeypatch.setattr(_rng, "_CPUS", 4)
    oracle = GaussianOracle(lambda x: (float(x @ x), 2.0 * x), 2, sigma=0.25)
    tracer = sys.modules["spans"].Tracer(layers.TARGETS)
    tracer.install()
    try:
        with tracer.region("call", "call0"):
            oracle.batch_mean(np.array([0.5, -0.25]), 0, 3, 21888)
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
