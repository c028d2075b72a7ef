"""The benchmark in perfbench/ wraps package functions by name from outside
the package. Renaming or deleting one of them must fail this suite, not only
a traced benchmark run. The benchmark's modules are imported without writing
bytecode next to them."""

import functools
import importlib
import sys
from pathlib import Path

import pytest

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
