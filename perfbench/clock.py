"""Call times with the host's contention filtered out.

The benchmark runs on a shared host whose other tenants slow the program by
up to half for seconds to minutes at a time, so even the fastest of a run's
calls moves by tens of percent between runs. Within a slow stretch there
are still moments of a millisecond or so that run at full speed, and this
module measures in pieces that short.

While installed, the clock records a checkpoint at the entry and exit of
every loop (``solve``, ``sgd_run``) and of every iteration's
``minibatch_gradient`` and ``ellipsoid_step`` inside one closed-loop call
(a ``perfbench.call`` region). The gaps between consecutive checkpoints are
slices. Each slice gets a label:

- inside a loop: the loop's position among the call's loops and the two
  checkpoints around the slice. Every iteration of a loop does the same
  work, so the slices of one label are repeats of the same work: one per
  iteration, in every repeat of the call;
- outside every loop: its position among the call's slices outside loops,
  repeated once per repeat of the call.

The fastest slice of each label is close to free of contention. The
filtered time of a call is the sum, over its slices, of the fastest slice
of the same label. Repeats of a call do the same work (the workloads check
that their artifact digests are equal), so every repeat must give the same
labels the same number of times; ``aligned`` records whether they did.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from spans import Span, Target, Tracer

CUT_SOLVE = "solver.solve"
LOOPS = (CUT_SOLVE, "sgd.sgd_run")
TARGETS = [
    Target(CUT_SOLVE, "ellipsopt.solver", "solve"),
    Target("sgd.sgd_run", "ellipsopt.sgd", "sgd_run"),
    Target("oracles.minibatch_gradient", "ellipsopt.oracles", "minibatch_gradient"),
    Target("geometry.ellipsoid_step", "ellipsopt.geometry", "ellipsoid_step"),
]


def labelled_slices(spans: list[Span]) -> list[tuple[tuple, float]]:
    """(label, length) of every slice of one call, from its region span and
    the clock's spans inside it. A loop label is (loop index, loop name,
    checkpoint before, checkpoint after); an outside label is ("outside",
    position)."""
    events = sorted((t, edge, s.id, s.name) for s in spans
                    for t, edge in ((s.start, "start"), (s.end, "end")))
    loops: list[tuple[int, str]] = []  # enclosing loops, innermost last
    ordinal = {}
    out, outside = [], 0
    for (t0, edge0, sid0, name0), (t1, edge1, _, name1) in zip(events, events[1:]):
        if name0 in LOOPS:
            if edge0 == "start":
                ordinal[sid0] = len(ordinal)
                loops.append((ordinal[sid0], name0))
            else:
                loops.pop()
        if loops:
            label = (*loops[-1], f"{name0}.{edge0}", f"{name1}.{edge1}")
        else:
            label = ("outside", outside)
            outside += 1
        out.append((label, t1 - t0))
    return out


@dataclass(frozen=True)
class Filtered:
    call_s: float
    cut_solve_s: float
    # fewest slices behind any label's fastest one
    samples_min: int


class SliceClock:
    """Records checkpoints inside every ``perfbench.call`` region while
    installed, and keeps the fastest slice of each label.

    The calls of one workload differ at most in their seeds (the solves of
    ``theorem2-n2``), so a label means the same work in all of them and they
    share one pool of fastest slices. Their iteration counts may differ.
    """

    def __init__(self) -> None:
        self.tracer = Tracer(TARGETS)
        self.shapes: dict[str, Counter] = {}  # call -> label counts of its first repeat
        self.fastest: dict[tuple, float] = {}
        self.samples: Counter = Counter()
        self.aligned = True

    def fold(self) -> None:
        """Turn the spans recorded since the last fold into slices and drop them."""
        by_call: dict[str, list[Span]] = defaultdict(list)
        for s in self.tracer.spans:
            by_call[s.run].append(s)
        for call, spans in by_call.items():
            slices = labelled_slices(spans)
            counts = Counter(label for label, _ in slices)
            self.aligned &= counts == self.shapes.setdefault(call, counts)
            for label, length in slices:
                self.fastest[label] = min(length, self.fastest.get(label, length))
            self.samples.update(counts)
        self.tracer.spans.clear()

    def results(self) -> list[Filtered]:
        """The filtered time of every call, from the first repeat's slices."""
        out = []
        for counts in self.shapes.values():
            # the cut solve is the call's last solve loop
            cut = max((label[0] for label in counts if label[1] == CUT_SOLVE), default=None)
            out.append(Filtered(
                call_s=sum(n * self.fastest[label] for label, n in counts.items()),
                cut_solve_s=sum(n * self.fastest[label] for label, n in counts.items()
                                if label[0] == cut),
                samples_min=min(self.samples[label] for label in counts),
            ))
        return out
