import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsopt import oracles
from ellipsopt.geometry import Ball, Box
from ellipsopt.oracles import (
    BatchSpec,
    GaussianOracle,
    PerturbedOracle,
    concentration_radius,
    estimate_values,
    minibatch_gradient,
    required_batch_size,
    verify_delta_subgradient,
)
from ellipsopt.problems import LogisticOracle, generate_synthetic


def quad_value_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return float(x @ x), 2.0 * x


def test_concentration_radius_closed_form():
    # (sqrt(2) + sqrt(6 ln(1/beta))) * sigma / sqrt(r) at sigma=r=1, beta=1/e
    assert concentration_radius(1.0, 1, math.exp(-1.0)) == pytest.approx(
        3.8637033051562731, rel=1e-15
    )
    assert concentration_radius(2.0, 4, 0.1) == pytest.approx(
        concentration_radius(1.0, 1, 0.1), rel=1e-15
    )
    assert concentration_radius(0.0, 10, 0.1) == 0.0


def test_required_batch_size_frozen_value():
    assert required_batch_size(1.0, 1.0, 0.1, 1e-4) == 31316


def test_required_batch_size_edges():
    assert required_batch_size(0.0, 1.0, 0.01, 0.1) == 1
    with pytest.raises(ValueError):
        required_batch_size(1.0, 1.0, 1e-300, 0.1)
    with pytest.raises(ValueError):
        required_batch_size(-1.0, 1.0, 0.1, 0.1)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=1e-3, max_value=0.5),
    st.floats(min_value=1e-6, max_value=0.5),
)
def test_required_batch_size_meets_target(sigma, diameter, eps, beta):
    r = required_batch_size(sigma, diameter, eps, beta)
    assert concentration_radius(sigma, r, beta) * diameter <= eps / 2.0 + 1e-12
    if r > 1:
        assert concentration_radius(sigma, r - 1, beta) * diameter > eps / 2.0


def test_zero_sigma_oracle_is_exact_and_deterministic():
    oracle = GaussianOracle(quad_value_grad, 3, sigma=0.0)
    assert oracle.is_deterministic
    x = np.array([0.5, -1.0, 2.0])
    gradient, value = minibatch_gradient(oracle, x, BatchSpec(size=1, seed=4))
    assert value == pytest.approx(float(x @ x), rel=1e-15)
    assert np.allclose(gradient, 2.0 * x, rtol=1e-15)


def test_gaussian_oracle_replay_and_mean_convergence():
    oracle = GaussianOracle(quad_value_grad, 2, sigma=1.0)
    x = np.array([1.0, -0.5])
    a, _ = minibatch_gradient(oracle, x, BatchSpec(size=4096, seed=0), step=3)
    b, _ = minibatch_gradient(oracle, x, BatchSpec(size=4096, seed=0), step=3)
    assert np.array_equal(a, b)
    c, _ = minibatch_gradient(oracle, x, BatchSpec(size=4096, seed=1), step=3)
    assert not np.array_equal(a, c)
    # minibatch mean approaches the exact gradient at the sigma/sqrt(r) rate
    err = np.linalg.norm(a - 2.0 * x)
    assert err < 5.0 * 1.0 / math.sqrt(4096)


def test_gaussian_oracle_noise_is_subgaussian():
    # E exp(||noise||^2 / sigma^2) <= e, estimated over many draws
    sigma = 0.7
    oracle = GaussianOracle(quad_value_grad, 4, sigma=sigma)
    grads, _ = oracle.draw_block(np.zeros(4), seed=0, step=0, count=200_000)
    sq = np.sum(grads * grads, axis=1) / sigma**2
    assert np.exp(sq).mean() < math.e
    # and the square norm's mean sits at sigma^2 / 2 for the gaussian model
    assert sq.mean() == pytest.approx(0.5, abs=0.01)


def test_gaussian_oracle_value_noise_is_consistent_with_gradient():
    # values are perturbed by <zeta, x - anchor>: at the anchor they are exact
    oracle = GaussianOracle(quad_value_grad, 2, sigma=2.0, anchor=np.array([1.0, 1.0]))
    _, values = oracle.draw_block(np.array([1.0, 1.0]), seed=5, step=0, count=8)
    assert np.allclose(values, 2.0, rtol=1e-12)


# Batch means recorded bit for bit (float.hex). They move if the Philox word
# layout, the inverse-CDF normals, the index draw, the softplus or the
# reduction order changes; any such change alters every trace and must be
# deliberate.
PINNED_LOGISTIC_GRADIENT = ["-0x1.c0ff087d81efcp-7", "0x1.44d3b6073ae48p-4",
                            "-0x1.71e52568b13a3p-3", "0x1.4ab1266f60e91p-2",
                            "-0x1.30c5b6dddc5e0p-2"]
PINNED_LOGISTIC_VALUE = "0x1.0b79389dde48bp+0"
PINNED_GAUSSIAN_GRADIENT = ["0x1.9a592972e6d7fp-2", "-0x1.6458225fa7c0ap+0",
                            "0x1.1a9eafe135766p+1"]
PINNED_GAUSSIAN_VALUE = "0x1.bd3d8775c6c3ap+0"
PINNED_ESTIMATES = ["0x1.5bae17fa398b2p-1", "0x1.10fc2c66d8b5cp+0", "0x1.65919317a54fcp-1"]


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _pinned_means():
    """The logistic gradient, value and estimates, then the Gaussian gradient
    and value, that the pins record."""
    ds, _ = generate_synthetic(300, 5, seed=2)
    logistic = LogisticOracle(ds.features, ds.labels)
    w = np.array([0.5, -0.25, 0.125, 1.0, -0.75])
    gradient, value = minibatch_gradient(logistic, w, BatchSpec(size=4096, seed=7), step=11)
    points = np.array([[0.3, 0.1, -0.2, 0.0, 0.4], w, -w])
    values = estimate_values(logistic, points, BatchSpec(size=4096, seed=7), step=2)
    gaussian = GaussianOracle(quad_value_grad, 3, sigma=0.5, anchor=np.array([0.1, 0.2, 0.3]))
    g_gradient, g_value = minibatch_gradient(gaussian, np.array([0.2, -0.7, 1.1]),
                                             BatchSpec(size=999, seed=5), step=3)
    return _hex(gradient), _hex(value), _hex(values), _hex(g_gradient), _hex(g_value)


PINNED_MEANS = (PINNED_LOGISTIC_GRADIENT, [PINNED_LOGISTIC_VALUE], PINNED_ESTIMATES,
                PINNED_GAUSSIAN_GRADIENT, [PINNED_GAUSSIAN_VALUE])


def test_batch_means_are_pinned_to_recorded_bits():
    assert _pinned_means() == PINNED_MEANS


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pinned_logistic_bits_hold_under_one_and_two_blas_threads(threads):
    # the matrix products that reduce a batch, and the Gaussian value draw
    # noise @ (x - anchor), must not round by thread count
    root = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(root.parent / "src"), str(root),
                                                       os.environ.get("PYTHONPATH")])))
    code = "import test_oracles; print(repr(test_oracles._pinned_means()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == repr(PINNED_MEANS)


# unit roundoff of float64
_U = 2.0**-53


def _mean_slack(terms, r):
    """Twice the error bound of one mean of r float64 terms, each term and
    the division rounded once: a recursive sum errs by at most r * u * sum|t|
    (Higham, SIAM J. Sci. Comput. 14(4), 1993), so each mean lies within
    (r + 2) * u * mean|t| of the exact mean, and two means within twice that."""
    return 2 * (r + 2) * _U * np.abs(terms).mean(axis=0)


def test_fused_logistic_batch_mean_matches_the_per_draw_mean():
    ds, _ = generate_synthetic(2000, 55, seed=5)
    logistic = LogisticOracle(ds.features, ds.labels)
    x = np.random.default_rng(1).uniform(-0.2, 0.2, size=55)
    r = 4096
    grads, values = logistic.draw_block(x, 3, 4, r)
    gradient, value = logistic.batch_mean(x, 3, 4, r)
    assert np.all(np.abs(gradient - grads.mean(axis=0)) <= _mean_slack(grads, r))
    assert abs(value - values.mean()) <= _mean_slack(values, r)


def test_fused_logistic_value_means_match_the_per_draw_means():
    ds, _ = generate_synthetic(2000, 55, seed=5)
    logistic = LogisticOracle(ds.features, ds.labels)
    points = np.random.default_rng(2).uniform(-0.2, 0.2, size=(7, 55))
    r, n = 4096, 55
    block = logistic.value_block_crn(points, 3, 4, r)
    means = logistic.value_means_crn(points, 3, 4, r)
    # the two paths may also round a draw's logit z differently: z is a dot
    # product of n terms with |z| <= A, and the loss is 1-Lipschitz in z, so
    # evaluating z and the loss errs by at most (n + 5) * u * A + 4u per path
    A = (np.abs(ds.features) @ np.abs(points).T).max(axis=0)
    logit_slack = 2 * _U * ((n + 5) * A + 4)
    assert np.all(np.abs(means - block.mean(axis=0)) <= _mean_slack(block, r) + logit_slack)


def test_estimate_values_shares_noise_across_points():
    oracle = GaussianOracle(quad_value_grad, 2, sigma=1.0)
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    values = estimate_values(oracle, pts, BatchSpec(size=256, seed=0))
    # identical points get bit-identical estimates under common random numbers
    assert values[0] == values[1]


def _recording_block_widths(oracle, widths):
    value_means_crn = oracle.value_means_crn

    def recording(points, *args):
        widths.append(points.shape[0])
        return value_means_crn(points, *args)

    oracle.value_means_crn = recording


def test_blocked_estimates_equal_one_block_estimates_bit_for_bit(monkeypatch):
    ds, _ = generate_synthetic(300, 55, seed=3)
    logistic = LogisticOracle(ds.features, ds.labels)
    batch = BatchSpec(size=4096, seed=7)
    per_block = oracles._MAX_BLOCK_DRAWS // batch.size
    points = np.random.default_rng(0).uniform(-0.3, 0.3, size=(2 * per_block + 1, 55))
    widths = []
    _recording_block_widths(logistic, widths)
    values = estimate_values(logistic, points, batch, step=2)
    assert len(widths) == 3
    monkeypatch.setattr(oracles, "_MAX_BLOCK_DRAWS", batch.size * points.shape[0])
    assert _hex(values) == _hex(estimate_values(logistic, points, batch, step=2))
    assert widths[-1] == points.shape[0]


def test_blocks_hold_two_to_the_cap_points(monkeypatch):
    oracle = GaussianOracle(quad_value_grad, 2, sigma=1.0)
    batch = BatchSpec(size=16, seed=0)
    monkeypatch.setattr(oracles, "_MAX_BLOCK_DRAWS", 3 * batch.size)
    points = np.random.default_rng(0).uniform(-1.0, 1.0, size=(40, 2))
    widths = []
    _recording_block_widths(oracle, widths)
    for k in range(2, 41):
        widths.clear()
        estimate_values(oracle, points[:k], batch)
        # a one-point block would take numpy's matrix-vector path
        assert sum(widths) == k and min(widths) >= 2 and max(widths) <= 3


def test_estimate_values_memory_stays_bounded_by_the_block_size():
    ds, _ = generate_synthetic(300, 3, seed=1)
    logistic = LogisticOracle(ds.features, ds.labels)
    batch = BatchSpec(size=4096, seed=0)
    bound = 6 * oracles._MAX_BLOCK_DRAWS * 8
    points = np.zeros((8192, 3))
    # one unblocked (batch x points) float64 value matrix alone exceeds the bound
    assert batch.size * points.shape[0] * 8 > bound
    tracemalloc.start()
    try:
        estimate_values(logistic, points, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_perturbed_oracle_offset_norm_and_exact_values():
    eta = 0.01
    oracle = PerturbedOracle(quad_value_grad, 3, eta)
    assert oracle.is_deterministic
    x = np.array([0.3, 0.4, -0.2])
    for step in range(5):
        grads, values = oracle.draw_block(x, seed=0, step=step, count=1)
        assert np.linalg.norm(grads[0] - 2.0 * x) == pytest.approx(eta, rel=1e-12)
        assert values[0] == pytest.approx(float(x @ x), rel=1e-15)


def test_verify_delta_subgradient_accepts_true_perturbation():
    box = Box.centered(3, 1.0)
    x = np.array([0.2, -0.5, 0.0])
    eta = 0.05
    rng = np.random.default_rng(1)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    g = 2.0 * x + eta * direction
    cert = verify_delta_subgradient(
        lambda rows: np.einsum("ij,ij->i", rows, rows), box, x, g, delta=eta * box.diameter, seed=2
    )
    assert cert.passed


def test_verify_delta_subgradient_rejects_bad_gradient():
    ball = Ball(np.zeros(2), 1.0)
    x = np.array([0.5, 0.0])
    bad = np.array([-10.0, 0.0])  # wrong sign and magnitude
    cert = verify_delta_subgradient(
        lambda rows: np.einsum("ij,ij->i", rows, rows), ball, x, bad, delta=0.0, seed=3
    )
    assert not cert.passed
    assert cert.slack > 1e-3


def test_verify_delta_subgradient_rejects_a_misshaped_objective():
    ball = Ball(np.zeros(2), 1.0)
    x = np.array([0.5, 0.0])
    # a scalar objective applied to a (1, 2) block of rows returns shape ()
    with pytest.raises(ValueError, match=r"\(1, 2\) to shape \(1,\), got \(\)"):
        verify_delta_subgradient(lambda p: float(np.dot(p.ravel(), p.ravel())), ball, x,
                                 2.0 * x, delta=0.0, seed=3)


def test_batch_spec_validation():
    with pytest.raises(ValueError):
        BatchSpec(size=0)
    with pytest.raises(ValueError):
        BatchSpec(size=4, seed=-1)
