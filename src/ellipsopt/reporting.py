"""Iteration records, run reports, and the trace CSV format.

Trace files have one row per iteration with the header
``k,feasible,cut_kind,f_estimate,logdet_H,c0,...,c{n-1}``. Floats are written
in shortest round-trip form, so identical runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Vector

CUT_SUBGRADIENT = "subgradient"
CUT_SEPARATION = "separation"
CUT_ZERO_GRAD = "zero-grad-exit"
CUT_SGD = "sgd-step"

TRACE_CUT_KINDS = (CUT_SUBGRADIENT, CUT_SEPARATION, CUT_ZERO_GRAD, CUT_SGD)

TERMINATION_BUDGET = "budget"
TERMINATION_ZERO_GRAD = "zero-gradient"
TERMINATION_DEGENERATE = "degenerate"
TERMINATION_CERTIFIED = "certified"


@dataclass(frozen=True)
class IterationRecord:
    index: int
    center: Vector
    feasible: bool
    cut_kind: str
    f_estimate: float | None
    log_det_shape: float | None

    def __post_init__(self) -> None:
        if self.cut_kind not in TRACE_CUT_KINDS:
            raise ValueError(f"unknown cut kind {self.cut_kind!r}")


@dataclass(frozen=True)
class SolverReport:
    """What a run returns: the chosen point and how the run went."""

    best_point: Vector
    best_estimate: float
    iterations: int
    batch_size: int
    eval_batch_size: int
    records: tuple[IterationRecord, ...]
    termination: str
    # exact sample accounting: draws spent on gradient batches vs on
    # value estimation (final selection and any internal probing)
    grad_draws: int = 0
    eval_draws: int = 0


def format_float(x: float) -> str:
    return repr(float(x))


def _record_row(record: IterationRecord) -> list[str]:
    return [
        str(record.index),
        "1" if record.feasible else "0",
        record.cut_kind,
        "" if record.f_estimate is None else format_float(record.f_estimate),
        "" if record.log_det_shape is None else format_float(record.log_det_shape),
        *(format_float(c) for c in record.center),
    ]


def trace_header(dim: int) -> list[str]:
    return ["k", "feasible", "cut_kind", "f_estimate", "logdet_H"] + [f"c{i}" for i in range(dim)]


def render_trace_csv(records) -> str:
    records = list(records)
    if not records:
        raise ValueError("cannot render an empty trace")
    # no field can need quoting: integers, 0/1, the fixed cut kinds, repr floats, empty cells
    lines = [",".join(trace_header(records[0].center.shape[0]))]
    lines.extend(",".join(_record_row(r)) for r in records)
    return "\n".join(lines) + "\n"


def write_trace_csv(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_trace_csv(records))

