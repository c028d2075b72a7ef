import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsopt.reporting import (
    CUT_SEPARATION,
    CUT_SUBGRADIENT,
    TRACE_CUT_KINDS,
    IterationRecord,
    format_float,
    render_trace_csv,
    trace_header,
    write_trace_csv,
)


def _record(index=0, center=(0.25, -1.5), feasible=True, kind=CUT_SUBGRADIENT,
            estimate=0.125, logdet=-0.4054651081081645):
    return IterationRecord(
        index=index,
        center=np.array(center, dtype=np.float64),
        feasible=feasible,
        cut_kind=kind,
        f_estimate=estimate,
        log_det_shape=logdet,
    )


def test_header_lists_metadata_then_center_coordinates():
    assert trace_header(3) == ["k", "feasible", "cut_kind", "f_estimate", "logdet_H", "c0", "c1", "c2"]


def test_render_puts_one_row_per_record():
    text = render_trace_csv([_record(0), _record(1, feasible=False, kind=CUT_SEPARATION, estimate=None)])
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0,1,subgradient,0.125,")
    assert lines[2].startswith("1,0,separation,,")


def test_none_fields_render_as_empty_cells():
    text = render_trace_csv([_record(estimate=None, logdet=None)])
    row = text.splitlines()[1].split(",")
    assert row[3] == ""
    assert row[4] == ""


def test_format_float_round_trips_exactly():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 1e300, 0.0):
        assert float(format_float(x)) == x


def test_render_rejects_empty_trace():
    with pytest.raises(ValueError):
        render_trace_csv([])


def test_unknown_cut_kind_is_rejected():
    with pytest.raises(ValueError):
        _record(kind="sideways")


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
    records = [
        _record(0, center=(0.1, 0.2, 0.3)),
        _record(1, center=(1.0 / 3.0, -7e-12, 4e155), feasible=False,
                kind=CUT_SEPARATION, estimate=None),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(path, records)
    loaded = _parse_trace(path)
    assert len(loaded) == 2
    for original, (index, feasible, kind, estimate, logdet, center) in zip(records, loaded):
        assert index == original.index
        assert feasible == original.feasible
        assert kind == original.cut_kind
        assert estimate == original.f_estimate
        assert logdet == original.log_det_shape
        np.testing.assert_array_equal(center, original.center)


def test_identical_records_render_identical_bytes(tmp_path):
    records = [_record(i, center=(0.1 * i, -0.2 * i)) for i in range(5)]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trace_csv(a, records)
    write_trace_csv(b, records)
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
    records = [
        IterationRecord(
            index=i,
            center=np.array([a, b]),
            feasible=flag,
            cut_kind=CUT_SUBGRADIENT if flag else CUT_SEPARATION,
            f_estimate=a,
            log_det_shape=b,
        )
        for i, (a, b, flag) in enumerate(rows)
    ]
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    write_trace_csv(path, records)
    loaded = _parse_trace(path)
    for original, (*_, estimate, logdet, center) in zip(records, loaded):
        np.testing.assert_array_equal(center, original.center)
        assert estimate == original.f_estimate
        assert logdet == original.log_det_shape


def _csv_module_render(records):
    """The trace as the csv module writes it: the reference for render_trace_csv."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(trace_header(records[0].center.shape[0]))
    for r in records:
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
    records = [
        _record(i, center=(odd[i % len(odd)], odd[(i + 1) % len(odd)], 1e300), kind=kind,
                feasible=kind != CUT_SEPARATION, estimate=None if i % 2 else odd[i % len(odd)],
                logdet=None if i % 3 == 0 else odd[(i + 2) % len(odd)])
        for i, kind in enumerate(TRACE_CUT_KINDS * 3)
    ]
    text = render_trace_csv(records)
    assert text == _csv_module_render(records)
    assert ",," in text
    assert all(v in text for v in ("-0.0", "nan", "inf", "5e-324"))
    assert all(kind in text for kind in TRACE_CUT_KINDS)
