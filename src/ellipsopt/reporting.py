"""Run traces, run reports, and the trace CSV format.

Trace files have one row per iteration with the header
``k,feasible,cut_kind,f_estimate,logdet_H,c0,...,c{n-1}``. Floats are written
in shortest round-trip form, so identical runs produce byte-identical files.
A cut run's ``logdet_H`` is the closed form log det H0 + k log(shape_det_ratio(n));
the report's ``log_det_drift`` says how far the measured log dets strayed from it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geometry import Vector

CUT_SUBGRADIENT = "subgradient"
CUT_SEPARATION = "separation"
CUT_SGD = "sgd-step"

TRACE_CUT_KINDS = (CUT_SUBGRADIENT, CUT_SEPARATION, CUT_SGD)

TERMINATION_BUDGET = "budget"
TERMINATION_CERTIFIED = "certified"
TERMINATION_DEGENERATE = "degenerate"

# rows of a trace rendered at a time: about 1 MB of CSV text at n=55
_CHUNK_ROWS = 1024


# one row of a Trace, as Trace.__getitem__ reads it for perfbench/workloads.py
IterationRecord = namedtuple("IterationRecord", "index center feasible cut_kind f_estimate log_det_shape")


@dataclass(frozen=True)
class Trace:
    """A run's iterations as columns, row k for iteration k. A center is
    infeasible, and has no estimate (NaN), exactly where its cut kind is CUT_SEPARATION."""

    centers: np.ndarray  # (N, n)
    cut_kinds: np.ndarray  # (N,) of TRACE_CUT_KINDS
    f_estimates: np.ndarray  # (N,)
    log_dets: np.ndarray | None  # (N,) log det of the ellipsoid shape, in closed form; None for SGD

    def __post_init__(self) -> None:
        if not set(self.cut_kinds.tolist()).issubset(TRACE_CUT_KINDS):
            raise ValueError(f"cut kinds must be in {TRACE_CUT_KINDS}, got {set(self.cut_kinds.tolist())}")

    def __len__(self) -> int:
        return len(self.cut_kinds)

    @property
    def feasible(self) -> np.ndarray:
        return self.cut_kinds != CUT_SEPARATION

    def __getitem__(self, k: int) -> IterationRecord:
        k = range(len(self))[k]
        feasible = self.cut_kinds[k] != CUT_SEPARATION
        estimate = float(self.f_estimates[k]) if feasible else None
        log_det = None if self.log_dets is None else float(self.log_dets[k])
        return IterationRecord(k, self.centers[k], feasible, self.cut_kinds[k], estimate, log_det)


@dataclass(frozen=True)
class SolverReport:
    """What a run returns: the chosen point and how the run went."""

    best_point: Vector
    best_estimate: float
    batch_size: int
    records: Trace
    termination: str
    # value draws spent picking the returned point: 0 for a cut run, one batch for SGD
    eval_draws: int
    # largest |measured - closed-form| log det of the shape over the checks; None for SGD
    log_det_drift: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def grad_draws(self) -> int:
        """One gradient batch per row with a feasible center."""
        return self.batch_size * int(np.count_nonzero(self.records.feasible))


def format_float(x: float) -> str:
    return repr(float(x))


def trace_header(dim: int) -> list[str]:
    return ["k", "feasible", "cut_kind", "f_estimate", "logdet_H"] + [f"c{i}" for i in range(dim)]


def _trace_chunks(trace: Trace):
    """The trace's CSV text in pieces of up to ``_CHUNK_ROWS`` rows, the header
    in the first, so a piece's Python values are all that exist at once."""
    head = ",".join(trace_header(trace.centers.shape[1])) + "\n"
    # a zero-row trace still yields its header
    for lo in range(0, max(len(trace), 1), _CHUNK_ROWS):
        part = slice(lo, lo + _CHUNK_ROWS)
        kinds = trace.cut_kinds[part].tolist()
        feasible = [kind != CUT_SEPARATION for kind in kinds]
        # tolist() gives Python floats, whose repr is format_float's
        estimates = [repr(e) if f else "" for f, e in zip(feasible, trace.f_estimates[part].tolist())]
        log_dets = [""] * len(kinds) if trace.log_dets is None else map(repr, trace.log_dets[part].tolist())
        rows = zip(feasible, kinds, estimates, log_dets, trace.centers[part].tolist())
        # no field can need quoting: integers, 0/1, the fixed cut kinds, repr floats, empty cells
        yield head + "".join(",".join([str(k), "1" if f else "0", kind, e, d, *map(repr, center)]) + "\n"
                             for k, (f, kind, e, d, center) in enumerate(rows, start=lo))
        head = ""


def render_trace_csv(trace: Trace) -> str:
    return "".join(_trace_chunks(trace))


def write_trace_csv(path, trace: Trace) -> None:
    """Write ``render_trace_csv(trace)`` one piece at a time: a trace of at
    most ``_CHUNK_ROWS`` rows is one write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_trace_chunks(trace))
