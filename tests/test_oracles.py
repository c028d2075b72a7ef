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

from ellipsopt import _rng, problems
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


def shifted_value_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.1 + float(x @ x), 2.0 * x + 0.1


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
    # values are perturbed by <zeta, x>: at x = 0 they are exact
    oracle = GaussianOracle(shifted_value_grad, 2, sigma=2.0)
    origin = np.zeros(2)
    _, values = oracle.draw_block(origin, seed=5, step=0, count=8)
    assert _hex(values) == _hex([0.1] * 8)
    assert _hex(oracle.batch_mean(origin, seed=5, step=0, count=8)[1]) == _hex(0.1)
    means = oracle.value_means_crn(np.zeros((3, 2)), seed=5, step=0, count=8)
    assert _hex(means) == _hex([0.1] * 3)


@pytest.mark.parametrize("n", [2, 20])
@pytest.mark.parametrize("count", [1, 999, 21888])
def test_gaussian_means_equal_the_mean_of_the_per_draw_reference(n, count):
    sigma, seed, step = 0.8, 3, 4
    oracle = GaussianOracle(quad_value_grad, n, sigma=sigma)
    rng = np.random.default_rng(n)
    x = rng.uniform(-0.5, 0.5, size=n)
    grads, values = oracle.draw_block(x, seed, step, count)
    gradient, value = oracle.batch_mean(x, seed, step, count)
    np.testing.assert_allclose(gradient, grads.mean(axis=0), rtol=0, atol=1e-12)
    assert abs(value - values.mean()) <= 1e-12
    # value draws f(p) + <zeta, p> at each point, zeta from the eval stream
    points = rng.uniform(-0.5, 0.5, size=(5, n))
    key = _rng.stream_key(seed, _rng.EVAL_STREAM, step)
    zeta = sigma / math.sqrt(2 * n) * _rng.standard_normals(key, count, n)
    draws = np.einsum("ij,ij->i", points, points) + zeta @ points.T
    means = oracle.value_means_crn(points, seed, step, count)
    np.testing.assert_allclose(means, draws.mean(axis=0), rtol=0, atol=1e-12)


# Batch means recorded bit for bit (float.hex). They move if the Philox word
# layout, the inverse-CDF normals, the index draw, the softplus or the
# reduction order changes; any such change alters every trace and must be
# deliberate.
PINNED_LOGISTIC_GRADIENT = ["-0x1.46dcfd3ce97e6p-6", "0x1.502091b402f86p-4",
                            "-0x1.6c48859d15954p-3", "0x1.4546b56f06881p-2",
                            "-0x1.330c0b018929ap-2"]
PINNED_LOGISTIC_VALUE = "0x1.0adb793aff9d0p+0"
PINNED_GAUSSIAN_GRADIENT = ["0x1.9ceb68cd19322p-2", "-0x1.6540bd31db0e0p+0",
                            "0x1.1c0cb6bcfe84ep+1"]
PINNED_GAUSSIAN_VALUE = "0x1.c23137dc4d199p+0"
PINNED_ESTIMATES = ["0x1.6105d43914ca4p-1", "0x1.0b3a4da689f36p+0", "0x1.6f439d6f0ad58p-1"]


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
    gaussian = GaussianOracle(quad_value_grad, 3, sigma=0.5)
    g_gradient, g_value = minibatch_gradient(gaussian, np.array([0.2, -0.7, 1.1]),
                                             BatchSpec(size=999, seed=5), step=3)
    return _hex(gradient), _hex(value), _hex(values), _hex(g_gradient), _hex(g_value)


PINNED_MEANS = (PINNED_LOGISTIC_GRADIENT, [PINNED_LOGISTIC_VALUE], PINNED_ESTIMATES,
                PINNED_GAUSSIAN_GRADIENT, [PINNED_GAUSSIAN_VALUE])


def test_batch_means_are_pinned_to_recorded_bits():
    assert _pinned_means() == PINNED_MEANS


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pinned_logistic_bits_hold_under_one_and_two_blas_threads(threads):
    # the matrix products that reduce a batch, and the Gaussian value term
    # <mean noise, x>, must not round by thread count
    root = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(root.parent / "src"), str(root),
                                                       os.environ.get("PYTHONPATH")])))
    code = "import test_oracles; print(repr(test_oracles._pinned_means()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == repr(PINNED_MEANS)


# The Gaussian batch gradient at the quadratic's minimiser, where the exact
# gradient is 0 and the result is the noise mean itself, recorded bit for bit
# (float.hex) for (count, n). Unlike the pins above, these see the order in
# which the noise mean is summed.
PINNED_NOISE_MEANS = {
    (21888, 2): ["0x1.7a27e9bcd37e8p-12", "0x1.a0dff8aadc822p-9"],
    (999, 3): ["0x1.a8e799bfcc3f5p-9", "0x1.25a9348b5860ep-8", "0x1.398e91b2759ecp-6"],
}


@pytest.mark.parametrize("count, n", sorted(PINNED_NOISE_MEANS))
def test_noise_means_are_pinned_to_recorded_bits(count, n):
    oracle = GaussianOracle(quad_value_grad, n, sigma=0.5)
    gradient, value = oracle.batch_mean(np.zeros(n), seed=5, step=3, count=count)
    assert _hex(gradient) == PINNED_NOISE_MEANS[count, n]
    assert value == 0.0


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


def _recording_product_widths(monkeypatch, widths):
    """Record the rows of each product block the logistic value means take.

    One loss pass per product block makes each block one ``_losses_into``
    call; the loss blocking never changes a value's bits."""
    losses_into = problems._losses_into

    def recording(z, y, out):
        widths.append(z.shape[0])
        return losses_into(z, y, out)

    monkeypatch.setattr(problems, "_LOSS_BLOCK_ELEMENTS", 2**62)
    monkeypatch.setattr(problems, "_losses_into", recording)


def _logistic_oracle(n):
    ds, _ = generate_synthetic(300, n, seed=3)
    return LogisticOracle(ds.features, ds.labels)


def test_blocked_estimates_equal_one_block_estimates_bit_for_bit(monkeypatch):
    oracle = _logistic_oracle(55)
    batch = BatchSpec(size=4096, seed=7)
    per_block = problems._PRODUCT_BLOCK_ELEMENTS // batch.size
    points = np.random.default_rng(0).uniform(-0.3, 0.3, size=(2 * per_block + 1, 55))
    widths = []
    _recording_product_widths(monkeypatch, widths)
    values = estimate_values(oracle, points, batch, step=2)
    assert len(widths) == 3
    monkeypatch.setattr(problems, "_PRODUCT_BLOCK_ELEMENTS", batch.size * points.shape[0])
    assert _hex(values) == _hex(estimate_values(oracle, points, batch, step=2))
    assert widths[-1] == points.shape[0]


def test_blocks_hold_two_to_the_cap_points(monkeypatch):
    oracle = _logistic_oracle(2)
    batch = BatchSpec(size=16, seed=0)
    monkeypatch.setattr(problems, "_PRODUCT_BLOCK_ELEMENTS", 3 * batch.size)
    points = np.random.default_rng(0).uniform(-1.0, 1.0, size=(40, 2))
    widths = []
    _recording_product_widths(monkeypatch, widths)
    for k in range(2, 41):
        widths.clear()
        estimate_values(oracle, points[:k], batch)
        # a one-point block would take numpy's matrix-vector path
        assert sum(widths) == k and min(widths) >= 2 and max(widths) <= 3


def test_estimate_values_memory_stays_bounded_by_the_block_size():
    ds, _ = generate_synthetic(300, 3, seed=1)
    logistic = LogisticOracle(ds.features, ds.labels)
    batch = BatchSpec(size=4096, seed=0)
    bound = 6 * problems._PRODUCT_BLOCK_ELEMENTS * 8
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


# bytes of one (21888, 2) float64 block: theorem2-n2's noise at its theory batch
_NOISE_BLOCK_BYTES = 8 * 21888 * 2


@pytest.mark.parametrize("draw", [
    lambda: _rng.standard_normals(_rng.stream_key(3, _rng.GRAD_STREAM, 4), 21888, 2),
    lambda: GaussianOracle(quad_value_grad, 2, sigma=0.25).batch_mean(
        np.array([0.1, -0.2]), 3, 4, 21888),
], ids=["standard_normals", "gaussian_batch_mean"])
def test_a_gaussian_draw_peaks_at_two_noise_blocks(draw):
    draw()  # the key table is cached, not part of a draw
    tracemalloc.start()
    try:
        draw()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _NOISE_BLOCK_BYTES + 64 * 1024


def test_perturbed_oracle_offset_norm_and_exact_values():
    eta = 0.01
    oracle = PerturbedOracle(quad_value_grad, 3, eta)
    assert oracle.is_deterministic
    x = np.array([0.3, 0.4, -0.2])
    for step in range(5):
        gradient, value = oracle.batch_mean(x, seed=0, step=step, count=1)
        assert np.linalg.norm(gradient - 2.0 * x) == pytest.approx(eta, rel=1e-12)
        assert value == pytest.approx(float(x @ x), rel=1e-15)


@pytest.mark.parametrize("make", [lambda: GaussianOracle(shifted_value_grad, 3, sigma=0.0),
                                  lambda: PerturbedOracle(shifted_value_grad, 3, 0.01)],
                         ids=["gaussian-sigma0", "perturbed"])
def test_exact_oracles_answer_exactly_at_any_batch_size(make):
    # a mean of three copies of 0.1 rounds to 0.10000000000000002
    oracle = make()
    points = np.array([[0.0, 0.0, 0.0], [0.3, -0.1, 0.2]])
    exact = [shifted_value_grad(p) for p in points]
    for p, (value, grad) in zip(points, exact):
        gradient, mean = oracle.batch_mean(p, seed=1, step=2, count=3)
        assert _hex(mean) == _hex(value)
        offset = oracle.offset(1, 2) if isinstance(oracle, PerturbedOracle) else 0.0
        assert _hex(gradient) == _hex(grad + offset)
    means = oracle.value_means_crn(points, seed=1, step=2, count=3)
    assert _hex(means) == _hex([value for value, _ in exact])


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
