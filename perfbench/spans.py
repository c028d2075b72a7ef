"""Span tracer that instruments the ellipsopt package from outside it.

A ``Tracer`` replaces chosen module functions and class methods with
wrappers that record one span per call (name, start, end, parent, run id)
plus per-call work counts, and puts every original object back on
``uninstall``. Nothing inside the package is edited. Only calls made inside
a ``region`` (the benchmark's set-up or one closed-loop call) are recorded,
so the benchmark's own output checks stay out of the layer times. Spans
stay in memory until the run ends and are written out once.

A module-level function is usually bound under its own name in several
modules (``from .oracles import minibatch_gradient``), so installing a
function target rebinds every loaded ``ellipsopt`` module attribute that is
the original object; calls through any of those names are traced.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_PACKAGE = "ellipsopt"
_NO_RESULT = object()

# (args, kwargs, result) -> {count name: value}, evaluated after the call
CountFn = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict | None = None


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` is "func" or "Class.method" in ``module``."""

    name: str
    module: str
    attr: str
    count: CountFn | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Span name -> {"calls", "self_s", "total_s", and the sum of every
    recorded count}. ``total_s`` counts a span nested in a same-name span twice."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s in spans:
        t = totals[s.name]
        t["calls"] += 1
        t["self_s"] += selfs[s.id]
        t["total_s"] += s.end - s.start
        for key, value in (s.counts or {}).items():
            t[key] = t.get(key, 0) + value
    return dict(totals)


def sum_within(spans: list[Span], ancestor: str, name: str, count: str | None = None) -> float:
    """Calls to ``name`` (or the sum of its ``count``) made under an ``ancestor`` span."""
    by_id = {s.id: s for s in spans}

    def under(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == ancestor:
                return True
            p = by_id[p].parent
        return False

    return sum(
        1 if count is None else (s.counts or {}).get(count, 0)
        for s in spans
        if s.name == name and under(s)
    )


def write_spans_csv(path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start,end,parent,run\n")
        for s in spans:
            parent = "" if s.parent is None else str(s.parent)
            fh.write(f"{s.id},{s.name},{s.start!r},{s.end!r},{parent},{s.run}\n")


class Tracer:
    """Records spans for the targets while installed; restores them after."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.run = "-"
        self._stack: list[int] = []
        self._next_id = 0
        # (owner, attribute, original) for every rebinding ever made
        self._bindings: list[tuple[object, str, object]] = []
        self._installed = False

    def _open(self) -> tuple[int, int | None, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid: int, name: str, start: float, end: float, parent, counts) -> None:
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.run, counts))

    def wrap(self, name: str, fn, count: CountFn | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                # outside every region: the benchmark's own checks, not the program
                return fn(*args, **kwargs)
            sid, parent, start = self._open()
            result = _NO_RESULT
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                counts = None
                if count is not None and result is not _NO_RESULT:
                    counts = count(args, kwargs, result)
                self._close(sid, name, start, end, parent, counts)

        return traced

    @contextlib.contextmanager
    def region(self, name: str, run: str):
        """A span around the benchmark's own code (set-up, one closed-loop
        call); every span recorded inside it carries the run id ``run``."""
        previous = self.run
        self.run = run
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(sid, name, start, time.perf_counter(), parent, None)
            self.run = previous

    def _rebind(self, owner, attr: str, new) -> None:
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._installed = True
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == _PACKAGE or key.startswith(_PACKAGE + "."))]
        try:
            for target in self.targets:
                module = sys.modules[target.module]
                owner_name, _, attr = target.attr.rpartition(".")
                if not owner_name:
                    original = vars(module)[attr]
                    wrapped = self.wrap(target.name, original, target.count)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._rebind(m, key, wrapped)
                    continue
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                if isinstance(original, functools.cached_property):
                    wrapped = functools.cached_property(
                        self.wrap(target.name, original.func, target.count))
                    wrapped.__set_name__(owner, attr)
                else:
                    wrapped = self.wrap(target.name, original, target.count)
                self._rebind(owner, attr, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._installed = False

    def restored(self) -> bool:
        """True when every attribute the tracer rebound holds its original again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._bindings)
