import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsopt import reporting
from ellipsopt.reporting import (
    CUT_SEPARATION,
    CUT_SGD,
    CUT_SUBGRADIENT,
    TRACE_CUT_KINDS,
    Trace,
    format_float,
    render_trace_csv,
    trace_header,
    write_trace_csv,
)


def _row(center=(0.25, -1.5), kind=CUT_SUBGRADIENT, estimate=0.125, logdet=-0.4054651081081645):
    """One (center, cut kind, estimate, log det) row; a separation row has no
    estimate, which the trace holds as NaN."""
    return center, kind, math.nan if kind == CUT_SEPARATION else estimate, logdet


def _trace(*rows, log_dets=True):
    """A trace of ``_row`` rows; without log dets, as SGD writes it."""
    centers, kinds, estimates, logdets = zip(*rows)
    return Trace(np.array(centers, dtype=np.float64), np.array(kinds, dtype=object),
                 np.array(estimates, dtype=np.float64), np.array(logdets) if log_dets else None)


def test_header_lists_metadata_then_center_coordinates():
    assert trace_header(3) == ["k", "feasible", "cut_kind", "f_estimate", "logdet_H", "c0", "c1", "c2"]


def test_render_puts_one_row_per_record():
    text = render_trace_csv(_trace(_row(), _row(kind=CUT_SEPARATION)))
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0,1,subgradient,0.125,")
    assert lines[2].startswith("1,0,separation,,")


def test_none_fields_render_as_empty_cells():
    text = render_trace_csv(_trace(_row(kind=CUT_SEPARATION), log_dets=False))
    row = text.splitlines()[1].split(",")
    assert row[3] == ""
    assert row[4] == ""


def test_format_float_round_trips_exactly():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 1e300, 0.0):
        assert float(format_float(x)) == x


def test_a_zero_row_trace_renders_its_header():
    # a run whose budget is 0 iterations has a trace without rows
    header = "k,feasible,cut_kind,f_estimate,logdet_H,c0,c1,c2\n"
    for log_dets in (np.empty(0), None):
        trace = Trace(np.empty((0, 3)), np.empty(0, dtype=object), np.empty(0), log_dets)
        assert len(trace) == 0
        assert render_trace_csv(trace) == header


def test_unknown_cut_kind_is_rejected():
    with pytest.raises(ValueError, match="sideways"):
        _trace(_row(), _row(kind="sideways"))


def _parse_trace(path):
    """(index, feasible, cut_kind, f_estimate, log_det, center) per row."""
    lines = path.read_text(encoding="utf-8").splitlines()
    out = []
    for line in lines[1:]:
        k, feasible, kind, estimate, logdet, *center = line.split(",")
        out.append((int(k), feasible == "1", kind, None if estimate == "" else float(estimate),
                    None if logdet == "" else float(logdet), np.array([float(c) for c in center])))
    return out


def test_write_then_read_round_trips(tmp_path):
    trace = _trace(_row(center=(0.1, 0.2, 0.3)),
                   _row(center=(1.0 / 3.0, -7e-12, 4e155), kind=CUT_SEPARATION))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    loaded = _parse_trace(path)
    assert len(loaded) == 2
    for original, (index, feasible, kind, estimate, logdet, center) in zip(trace, loaded):
        assert index == original.index
        assert feasible == original.feasible
        assert kind == original.cut_kind
        assert estimate == original.f_estimate
        assert logdet == original.log_det_shape
        np.testing.assert_array_equal(center, original.center)


def test_identical_records_render_identical_bytes(tmp_path):
    trace = _trace(*(_row(center=(0.1 * i, -0.2 * i)) for i in range(5)))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trace_csv(a, trace)
    write_trace_csv(b, trace)
    assert a.read_bytes() == b.read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_round_trip_preserves_floats_bit_for_bit(tmp_path_factory, rows):
    trace = _trace(*(_row(center=(a, b), kind=CUT_SUBGRADIENT if flag else CUT_SEPARATION,
                          estimate=a, logdet=b) for a, b, flag in rows))
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    write_trace_csv(path, trace)
    loaded = _parse_trace(path)
    assert len(loaded) == len(rows)
    for original, (*_, estimate, logdet, center) in zip(trace, loaded):
        np.testing.assert_array_equal(center, original.center)
        assert estimate == original.f_estimate
        assert logdet == original.log_det_shape


def _csv_module_render(trace):
    """The trace as the csv module writes it, row by row through the row
    view: the reference for render_trace_csv."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(trace_header(trace.centers.shape[1]))
    for r in trace:
        writer.writerow([
            str(r.index),
            "1" if r.feasible else "0",
            r.cut_kind,
            "" if r.f_estimate is None else format_float(r.f_estimate),
            "" if r.log_det_shape is None else format_float(r.log_det_shape),
            *(format_float(c) for c in r.center),
        ])
    return buffer.getvalue()


def test_render_writes_the_csv_module_bytes():
    odd = (-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1.0 / 3.0)
    every_kind = _trace(*(
        _row(center=(odd[i % len(odd)], odd[(i + 1) % len(odd)], 1e300), kind=kind,
             estimate=odd[i % len(odd)], logdet=odd[(i + 2) % len(odd)])
        for i, kind in enumerate(TRACE_CUT_KINDS * 3)
    ))
    # a cut run's kinds, and an SGD run without log dets
    cut_run = _trace(*(_row(center=(0.5 * i, -1.0 / (i + 3), 2.0 ** -i), kind=kind, estimate=0.1 * i,
                            logdet=-0.25 * i)
                       for i, kind in enumerate([CUT_SEPARATION, CUT_SUBGRADIENT, CUT_SEPARATION,
                                                 CUT_SUBGRADIENT, CUT_SUBGRADIENT])))
    sgd_run = _trace(*(_row(center=(odd[i % len(odd)], 1.0 / 7.0, -2.5e-17 * i), kind=CUT_SGD,
                            estimate=odd[(i + 3) % len(odd)]) for i in range(7)), log_dets=False)
    for trace in (every_kind, cut_run, sgd_run):
        text = render_trace_csv(trace)
        assert text == _csv_module_render(trace)
        assert ",," in text
    text = render_trace_csv(every_kind)
    assert all(v in text for v in ("-0.0", "nan", "inf", "5e-324"))
    assert all(kind in text for kind in TRACE_CUT_KINDS)


def _record_writes(monkeypatch):
    """The lengths of the writes each file that write_trace_csv opens takes."""
    writes = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: writes.append(len(text)) or write(text)
        return fh

    monkeypatch.setattr(reporting, "open", recording_open, raising=False)
    return writes


@pytest.mark.parametrize("log_dets", [True, False])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 6, 7])
def test_writes_the_rendered_bytes_in_pieces_of_the_chunk_rows(tmp_path, monkeypatch, rows, log_dets):
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", 3)
    if rows:
        trace = _trace(*(_row(center=(0.1 * i, -1.0 / (i + 3)), kind=(CUT_SUBGRADIENT, CUT_SEPARATION)[i % 2],
                              estimate=0.5 * i, logdet=-0.25 * i) for i in range(rows)), log_dets=log_dets)
    else:
        trace = Trace(np.empty((0, 2)), np.empty(0, dtype=object), np.empty(0), np.empty(0) if log_dets else None)
    writes = _record_writes(monkeypatch)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    text = path.read_text(encoding="utf-8")
    assert text == _csv_module_render(trace) == render_trace_csv(trace)
    # the header rides with the first rows; a trace of one chunk or fewer is one write
    assert len(writes) == max(1, -(-rows // 3))
    assert sum(writes) == len(text)


def test_writing_a_long_trace_peaks_at_a_bound_set_by_the_chunk_rows(tmp_path, peak_bytes):
    rows, n = 20000, 55
    rng = np.random.default_rng(0)
    trace = Trace(rng.standard_normal((rows, n)), np.full(rows, CUT_SUBGRADIENT, dtype=object),
                  rng.standard_normal(rows), rng.standard_normal(rows))
    path = tmp_path / "trace.csv"
    # one chunk's text, its lines and its centers as Python floats; the bound
    # does not grow with the rows, and the whole file is several times larger
    bound = 128 * reporting._CHUNK_ROWS * n
    peak = peak_bytes(lambda: write_trace_csv(path, trace))
    assert path.stat().st_size > 2 * bound
    assert peak <= bound
