"""The traced layers and the per-layer metrics computed from their spans.

Layers are the ellipsopt modules. Each target below is one function or
method whose calls get a span; the per-layer metrics are the ``per_layer``
list of BENCHMARK.json, and their names are
"<span name>.<field>", where the field is ``calls``, ``self_s`` (span time
minus child spans), ``total_s`` (span time) or a work count recorded at the
call. Work counts are computed from array shapes, not measured traffic.
"""

from __future__ import annotations

import os

from spans import Span, Target, layer_totals, sum_within

_F64 = 8


def _result_size(args, kwargs, result):
    return {"elements": result.size}


def _pairwise_elements(args, kwargs, result):
    return {"elements": args[0].size}


def _estimate_values_counts(args, kwargs, result):
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    k = result.shape[0]
    return {"points": k, "bytes": batch.size * k * _F64}


def _logistic_draw_counts(args, kwargs, result):
    rows, n = result[0].shape
    # gathered: n feature values and one label per sampled row
    return {"rows": rows, "gather_bytes": rows * (n + 1) * _F64}


def _objective_many_counts(args, kwargs, result):
    k = result.shape[0]
    return {"passes": k, "elements": args[0].dataset.size * k}


def _one_pass(args, kwargs, result):
    return {"passes": 1}


def _trace_csv_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    records = args[1] if len(args) > 1 else kwargs["records"]
    return {"rows": len(records), "bytes": os.path.getsize(path)}


def _t(name: str, attr: str, count=None) -> Target:
    # metric names must start with a letter, so the _rng module's layer is "rng"
    layer = name.split(".")[0]
    module = "ellipsopt." + ("_rng" if layer == "rng" else layer)
    return Target(name, module, attr, count)


TARGETS = [
    _t("rng.stream_key", "stream_key"),
    _t("rng.uniform_indices", "uniform_indices", _result_size),
    _t("rng.standard_normals", "standard_normals", _result_size),
    _t("rng.pairwise_mean", "pairwise_mean", _pairwise_elements),
    _t("oracles.minibatch_gradient", "minibatch_gradient"),
    _t("oracles.GaussianOracle.draw_block", "GaussianOracle.draw_block"),
    _t("oracles.estimate_values", "estimate_values", _estimate_values_counts),
    _t("problems.LogisticOracle.draw_block", "LogisticOracle.draw_block", _logistic_draw_counts),
    _t("problems.LogisticOracle.value_block_crn", "LogisticOracle.value_block_crn", _result_size),
    _t("problems.erm_reference", "erm_reference"),
    _t("problems.objective_many", "LogisticProblem.objective_many", _objective_many_counts),
    _t("problems.objective_and_gradient", "LogisticProblem.objective_and_gradient", _one_pass),
    _t("problems.generate_synthetic", "generate_synthetic"),
    _t("problems.split_train_test", "split_train_test"),
    _t("problems.fitted_sigma", "LogisticProblem.fitted_sigma"),
    _t("geometry.ellipsoid_step", "ellipsoid_step"),
    _t("geometry.Ellipsoid.log_det_shape", "Ellipsoid.log_det_shape"),
    _t("geometry.Ball.project", "Ball.project"),
    _t("solver.solve", "solve"),
    _t("solver.estimate_value_range", "estimate_value_range"),
    _t("sgd.sgd_run", "sgd_run"),
    _t("bench.iterate_test_curve", "iterate_test_curve"),
    _t("bench.running_best_test_curve", "running_best_test_curve"),
    _t("reporting.write_trace_csv", "write_trace_csv", _trace_csv_counts),
]
_TARGET_NAMES = {t.name for t in TARGETS}


def _full_passes(spans: list[Span], ancestor: str) -> float:
    """Loss evaluations over a whole dataset, one per weight vector."""
    return (sum_within(spans, ancestor, "problems.objective_and_gradient")
            + sum_within(spans, ancestor, "problems.objective_many", "passes"))


def per_layer_metrics(spans: list[Span], names: list[str], separation_frac: float,
                      overhead_s: float) -> dict[str, float]:
    """The value of each metric in ``names``; a layer the workload never calls reads 0."""
    totals = layer_totals(spans)
    derived = {
        "problems.erm_reference.full_passes": _full_passes(spans, "problems.erm_reference"),
        "bench.running_best_test_curve.full_passes": _full_passes(spans, "bench.running_best_test_curve"),
        "sgd.sgd_run.steps": sum_within(spans, "sgd.sgd_run", "oracles.minibatch_gradient"),
        "geometry.separation_frac": separation_frac,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric in names:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        span_name, _, field = metric.rpartition(".")
        if span_name not in _TARGET_NAMES:
            raise KeyError(f"per-layer metric {metric!r} names no traced target")
        out[metric] = totals.get(span_name, {}).get(field, 0)
    return out
