import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ellipsopt.geometry import Ball
from ellipsopt.oracles import GaussianOracle
from ellipsopt.problems import QuadraticProblem
from ellipsopt.solver import SolverConfig, solve
from ellipsopt.validation import (
    SUITE_NAMES,
    ValidationResult,
    check_concentration,
    check_containment,
    check_gradcheck,
    check_theorem1,
    check_theorem2,
    check_volume,
    run_suite,
)


def test_suite_names_cover_the_dispatcher():
    for name in SUITE_NAMES:
        assert callable(run_suite.__globals__["_SUITES"][name])


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown validation suite"):
        run_suite("spin")


def test_result_lines_are_key_value_pairs():
    result = ValidationResult(
        suite="volume", passed=True, threshold="x <= 1", metrics={"a": 0.5}, runtime_s=0.25
    )
    lines = result.lines()
    assert lines[0] == "suite=volume"
    assert lines[1] == "passed=true"
    assert lines[2] == "threshold=x <= 1"
    assert "a=0.5" in lines
    assert lines[-1] == "runtime_s=0.250"
    assert all("=" in line for line in lines)


def test_volume_ratio_matches_closed_form():
    result = check_volume(steps=2_000, dims=range(2, 7), seed=0)
    assert result.passed
    assert result.metrics["max_rel_err"] <= 1e-9
    assert result.metrics["steps"] >= 1_000


def test_cut_half_stays_inside_the_next_ellipsoid():
    result = check_containment(steps=60, points=200, seed=0)
    assert result.passed
    assert result.metrics["violations"] == 0.0


def test_batch_means_respect_the_concentration_radius():
    result = check_concentration(trials=800, batch_sizes=(10,), betas=(0.1,), seed=0)
    assert result.passed
    assert result.metrics["exceed_r10_beta0.1"] <= 0.1


def test_perturbed_runs_respect_the_gap_bound():
    result = check_theorem1(instances=3, dims=(2, 3), budgets=(50, 200), seed=0)
    assert result.passed
    assert result.metrics["failures"] == 0.0
    assert result.metrics["runs"] > 0
    assert result.metrics["worst_gap_minus_bound"] <= 0.0


def test_noisy_pipeline_failure_rate_is_within_beta():
    result = check_theorem2(runs=10, eps=0.05, beta=0.2, seed=0)
    assert result.passed
    assert result.metrics["failure_freq"] <= 0.2
    assert result.metrics["batch_size"] >= 1.0


def test_logistic_gradient_passes_finite_differences():
    result = check_gradcheck(points=10, m=120, n=4, seed=0)
    assert result.passed
    assert result.metrics["max_rel_err"] <= 1e-5


def test_run_suite_forwards_keyword_arguments():
    result = run_suite("gradcheck", points=3, m=60, n=3, seed=1)
    assert result.suite == "gradcheck"
    assert result.metrics["points"] == 3.0
    assert result.runtime_s >= 0.0


# sha256 of repr((best_estimate, best_point.tolist(), iterations, batch_size))
# for the first three solves of criterion 4's configuration (check_theorem2
# at seed 0, so solver seeds 1-3), hashed as the theorem2-n2 benchmark hashes
# them. They move only when a change to the normals, the noise mean or the
# solver is meant to.
PINNED_THEOREM2_DIGESTS = [
    "4aaecf6cee3ff1993d8bd57123f88cd5d70848e8e1435d40dcf6766bac040a71",
    "2bac5de8b2b5741ec99a95bd7b5662fa371ee32373eae394f8bf81d732a54601",
    "68f62ce75b1f4a3492929850c1e2eb410c40ad70d327f4352f7b65c57674c7f2",
]


def _theorem2_digests() -> list[str]:
    ball = Ball(np.zeros(2), 1.0)
    problem = QuadraticProblem(np.random.default_rng(0).uniform(-0.5, 0.5, size=2), ball)
    digests = []
    for seed in (1, 2, 3):
        oracle = GaussianOracle(problem.objective_and_gradient, 2, sigma=0.25)
        report = solve(oracle, ball, SolverConfig(eps=0.05, beta=0.2, sigma=0.25, seed=seed))
        record = repr((report.best_estimate, report.best_point.tolist(), report.iterations,
                       report.batch_size))
        digests.append(hashlib.sha256(record.encode("utf-8")).hexdigest())
    return digests


def test_theorem2_solves_are_pinned_to_recorded_bits():
    root = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root.parent / "src"), str(root),
                                                       os.environ.get("PYTHONPATH")])))
    code = "import test_validation; print(test_validation._theorem2_digests())"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == repr(PINNED_THEOREM2_DIGESTS)
