import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ellipsopt import _rng, problems
from ellipsopt.geometry import Ball, _as_vector, linear_optimality_gap
from ellipsopt.problems import (
    Dataset,
    DatasetFormatError,
    LinearProblem,
    LogisticOracle,
    LogisticProblem,
    QuadraticProblem,
    erm_reference,
    generate_synthetic,
    load_dataset_csv,
    save_dataset_csv,
    split_train_test,
)

SIGMOID_1 = 0.7310585786300049
SOFTPLUS_1 = 1.3132616875182228


def logistic_value_grad(weights, features_row, label: float):
    """Single-sample cross-entropy loss and gradient (sigmoid(z) - y) x: the
    per-row reference the problem and its oracle are checked against."""
    w = _as_vector(weights)
    x = _as_vector(features_row, w.shape[0])
    if label not in (0, 1):
        raise ValueError("label must be 0 or 1")
    z = float(w @ x)
    value = float(problems._softplus(np.asarray(z)) - label * z)
    grad = (float(expit(z)) - label) * x
    return value, grad


class TestLogisticValueGrad:
    def test_frozen_values_at_unit_logit(self):
        value, grad = logistic_value_grad([1.0, 0.0], [1.0, 1.0], 0.0)
        assert value == pytest.approx(SOFTPLUS_1, abs=1e-15)
        np.testing.assert_allclose(grad, [SIGMOID_1, SIGMOID_1], atol=1e-15)

    def test_zero_weights_give_log_two_and_residual_half(self):
        x = np.array([3.0, -2.0])
        for label in (0.0, 1.0):
            value, grad = logistic_value_grad(np.zeros(2), x, label)
            assert value == pytest.approx(math.log(2.0), abs=1e-15)
            np.testing.assert_allclose(grad, (0.5 - label) * x, atol=1e-15)

    def test_saturated_logits_stay_finite(self):
        value_pos, grad_pos = logistic_value_grad([40.0, 0.0], [1.0, 0.0], 0.0)
        assert value_pos == pytest.approx(40.0, abs=1e-12)
        assert np.all(np.isfinite(grad_pos))
        value_neg, grad_neg = logistic_value_grad([40.0, 0.0], [1.0, 0.0], 1.0)
        assert 0.0 <= value_neg < 1e-15
        assert np.all(np.isfinite(grad_neg))

    def test_rejects_fractional_label(self):
        with pytest.raises(ValueError):
            logistic_value_grad([1.0, 0.0], [1.0, 1.0], 0.5)


class TestDataset:
    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((0, 2)), labels=np.zeros(0))
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)), labels=np.zeros(2))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                Dataset(features=np.array([[1.0, 0.0], [-2.0, bad]]), labels=np.zeros(2))
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0.0, 0.5]))

    def test_size_and_width(self):
        ds = Dataset(features=np.zeros((5, 3)), labels=np.zeros(5))
        assert ds.size == 5
        assert ds.width == 3


def _toy_problem(m: int = 40, n: int = 4, seed: int = 7) -> LogisticProblem:
    dataset, _ = generate_synthetic(m, n, seed=seed)
    return LogisticProblem(dataset)


class TestLogisticProblem:
    def test_objective_matches_per_row_mean(self):
        problem = _toy_problem()
        w = np.array([0.3, -0.7, 0.1, 0.5])
        per_row = [
            logistic_value_grad(w, problem.dataset.features[i], problem.dataset.labels[i])[0]
            for i in range(problem.dataset.size)
        ]
        assert problem.objective(w) == pytest.approx(np.mean(per_row), rel=1e-12)

    def test_objective_many_agrees_with_objective(self):
        problem = _toy_problem()
        rows = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.5, 0.2]])
        many = problem.objective_many(rows)
        for k in range(rows.shape[0]):
            assert many[k] == pytest.approx(problem.objective(rows[k]), rel=1e-12)

    def test_gradient_matches_central_difference(self):
        problem = _toy_problem()
        w = np.array([0.2, 0.4, -0.3, 0.1])
        grad = problem.gradient(w)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (problem.objective(w + e) - problem.objective(w - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-6)

    def test_objective_and_gradient_is_consistent(self):
        problem = _toy_problem()
        w = np.array([0.5, 0.5, -0.5, 0.0])
        value, grad = problem.objective_and_gradient(w)
        assert value == pytest.approx(problem.objective(w), rel=1e-14)
        np.testing.assert_allclose(grad, problem.gradient(w), atol=1e-14)

    def test_fitted_sigma_bounds_the_noise_moment(self):
        problem = _toy_problem(m=500, n=5, seed=3)
        sigma = problem.fitted_sigma
        assert sigma > 0.0
        grads = (0.5 - problem.dataset.labels)[:, None] * problem.dataset.features
        dev_sq = np.sum((grads - grads.mean(axis=0)) ** 2, axis=1)
        assert np.mean(np.exp(dev_sq / sigma**2)) <= math.e

    def test_requires_two_feature_columns(self):
        ds = Dataset(features=np.ones((4, 1)), labels=np.array([0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            LogisticProblem(ds)


def test_softplus_matches_logaddexp_within_two_ulp():
    saturated = [40.0, -40.0, 745.0, -745.0, 746.0, -746.0, 800.0, -800.0, 1e300, -1e300]
    edges = [0.0, 5e-324, -5e-324] + saturated
    z = np.concatenate([np.linspace(-50.0, 50.0, 20001), edges])
    given_z = z.copy()
    reference = np.logaddexp(0.0, z)
    assert np.all(np.abs(problems._softplus(z) - reference) <= 2 * np.spacing(reference))
    assert np.array_equal(z, given_z)
    for v in edges:
        out = problems._softplus(np.asarray(v))
        assert out.shape == ()
        assert abs(out - np.logaddexp(0.0, v)) <= 2 * np.spacing(np.logaddexp(0.0, v))


def _one_pass_losses(z, y):
    """softplus(z) - y z over a whole product at once: the one-pass formula
    the blocked loss passes must reproduce bit for bit."""
    losses = problems._softplus(z)
    z *= y
    losses -= z
    return losses


def _block_cases():
    """(width, rows) around the first block edge of each product width."""
    cases = []
    for width in (1, 2, 3, 150, 511, 512):
        b = problems._LOSS_BLOCK_ELEMENTS // width
        cases += [(width, rows) for rows in (1, b - 1, b, b + 1, 4000)]
    return cases


def _spread_weights(k, n, seed):
    """k weight rows whose logits run from near 0 into saturation."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, n)) * rng.uniform(0.01, 8.0, (k, 1))


class TestBlockedLossPasses:
    @pytest.mark.parametrize("n", [10, 55])
    @pytest.mark.parametrize("k, m", _block_cases())
    def test_objective_many_equals_one_pass(self, k, m, n):
        problem = LogisticProblem(generate_synthetic(m, n, seed=k)[0])
        W = _spread_weights(k, n, seed=m)
        X, y = problem.dataset.features, problem.dataset.labels
        reference = _one_pass_losses(W @ X.T, y).mean(axis=1)
        assert np.array_equal(problem.objective_many(W), reference)

    @pytest.mark.parametrize("m", [4000, 10000])
    def test_objective_many_keeps_its_bits_over_any_split(self, m):
        problem = LogisticProblem(generate_synthetic(m, 55, seed=m)[0])
        W = _spread_weights(700, 55, seed=1)
        whole = problem.objective_many(W)
        # at these data sizes a row slice of two or more rows of W @ X.T has
        # the whole product's bits, so no split into such parts moves a value
        random_cuts = np.cumsum(np.random.default_rng(m).integers(2, 150, size=20))
        splits = [[2], [698], [350], range(2, 700, 2), range(3, 698, 3),
                  random_cuts[random_cuts <= 698]]
        for cuts in splits:
            parts = np.split(W, list(cuts))
            assert min(p.shape[0] for p in parts) >= 2
            assert np.array_equal(np.concatenate([problem.objective_many(p) for p in parts]), whole)

    @pytest.mark.parametrize("n", [10, 55])
    @pytest.mark.parametrize("count, points", _block_cases())
    def test_value_means_equal_one_pass(self, count, points, n):
        oracle = LogisticProblem(generate_synthetic(2000, n, seed=n)[0]).oracle()
        P = _spread_weights(points, n, seed=count)
        Xb, yb = oracle._rows(5, _rng.EVAL_STREAM, 3, count)
        reference = _one_pass_losses(P @ Xb.T, yb).mean(axis=1)
        assert np.array_equal(oracle.batch_mean(P, 5, _rng.EVAL_STREAM, 3, count)[1], reference)

    def test_blocks_hold_two_to_the_cap_points(self, monkeypatch):
        problem = LogisticProblem(generate_synthetic(300, 2, seed=3)[0])
        monkeypatch.setattr(problems, "_PRODUCT_BLOCK_ELEMENTS", 3 * problem.dataset.size)
        # one loss pass per product block makes each block one _losses_into call
        monkeypatch.setattr(problems, "_LOSS_BLOCK_ELEMENTS", 2**62)
        losses_into, widths = problems._losses_into, []

        def recording(z, y, out):
            widths.append(z.shape[0])
            return losses_into(z, y, out)

        monkeypatch.setattr(problems, "_losses_into", recording)
        W = np.random.default_rng(0).uniform(-1.0, 1.0, size=(40, 2))
        for k in range(2, 41):
            widths.clear()
            problem.objective_many(W[:k])
            # a one-row block would take numpy's matrix-vector path
            assert sum(widths) == k and min(widths) >= 2 and max(widths) <= 3

    def test_objective_many_peaks_below_the_one_pass_version(self, peak_bytes):
        problem = LogisticProblem(generate_synthetic(10000, 55, seed=3)[0])
        W = _spread_weights(512, 55, seed=4)
        X, y = problem.dataset.features, problem.dataset.labels
        blocked = peak_bytes(lambda: problem.objective_many(W))
        one_pass = peak_bytes(lambda: _one_pass_losses(X @ W.T, y[:, None]).mean(axis=0))
        # one (256, 10000) product block against the whole product, its losses
        # and a temporary
        assert blocked < one_pass / 2

    def test_objective_many_peaks_near_one_product_block(self, peak_bytes):
        problem = LogisticProblem(generate_synthetic(10000, 3, seed=2)[0])
        W = _spread_weights(1200, 3, seed=5)
        # one product block in float64, and half a block for everything else
        bound = 3 * problems._PRODUCT_BLOCK_ELEMENTS * 8 // 2
        # the whole (1200, 10000) float64 product alone exceeds the bound
        assert W.shape[0] * problem.dataset.size * 8 > bound
        assert peak_bytes(lambda: problem.objective_many(W)) <= bound


class TestLogisticOracle:
    def test_draw_block_replays_exactly(self):
        problem = _toy_problem()
        oracle = problem.oracle()
        w = np.array([0.1, 0.2, 0.3, 0.4])
        g1, v1 = oracle.draw_block(w, seed=11, step=2, count=8)
        g2, v2 = oracle.draw_block(w, seed=11, step=2, count=8)
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(v1, v2)
        g3, _ = oracle.draw_block(w, seed=12, step=2, count=8)
        assert not np.array_equal(g1, g3)

    def test_value_block_shape_for_several_points(self):
        problem = _toy_problem()
        oracle = problem.oracle()
        points = np.zeros((3, 4))
        block = oracle.value_block_crn(points, seed=2, step=0, count=7)
        assert block.shape == (7, 3)
        np.testing.assert_allclose(block, math.log(2.0), atol=1e-14)

    def test_rejects_single_column(self):
        with pytest.raises(ValueError):
            LogisticOracle(np.ones((4, 1)), np.zeros(4))

    @pytest.mark.parametrize("features, labels", [
        (np.ones((5, 3)), np.ones(4)),
        (np.ones(5), np.ones(5)),
        (np.array([[0.0, np.nan], [1.0, 2.0]]), np.array([0.0, 1.0])),
        (np.ones((2, 3)), np.array([0.0, 2.0])),
    ], ids=["label-count", "one-dimensional-features", "nan-feature", "label-2"])
    def test_rejects_bad_input_at_construction(self, features, labels):
        with pytest.raises(ValueError):
            LogisticOracle(features, labels)


def test_sample_oracle_replays_and_draws_real_rows():
    problem = _toy_problem(m=6)
    oracle = problem.oracle()
    w = np.array([0.3, 0.1, -0.2, 0.0])
    first = oracle.draw_block(w, seed=4, step=9, count=1)
    again = oracle.draw_block(w, seed=4, step=9, count=1)
    np.testing.assert_array_equal(first[0], again[0])
    np.testing.assert_array_equal(first[1], again[1])
    row_pairs = [
        logistic_value_grad(w, problem.dataset.features[i], problem.dataset.labels[i])
        for i in range(problem.dataset.size)
    ]
    for step in range(4):
        grads, values = oracle.draw_block(w, seed=0, step=step, count=5)
        for grad, value in zip(grads, values):
            assert any(
                math.isclose(value, v, rel_tol=1e-12) and np.allclose(grad, g, atol=1e-12)
                for v, g in row_pairs
            )


def _row_block_edges(n):
    """Row counts below, at and above the first and second row-block edges
    of ``_LOSS_BLOCK_ELEMENTS // n`` rows."""
    b = problems._LOSS_BLOCK_ELEMENTS // n
    return [b - 1, b, b + 1, 2 * b + 1]


def _one_pass_sigma(X, y):
    """fitted_sigma's formula over the whole (m, n) gradient matrix at once."""
    G = (0.5 - y)[:, None] * X
    return float(np.quantile(np.linalg.norm(G - G.mean(axis=0), axis=1), 0.99)) * 1.5


class TestFitSubgaussianSigma:
    @pytest.mark.parametrize("n", [2, 10, 55])
    def test_equals_the_one_pass_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for m in _row_block_edges(n):
            # columns of very different scales and offsets, so the order of
            # the column sums shows in their last bits
            X = rng.standard_normal((m, n)) * rng.uniform(0.01, 100.0, n) + rng.uniform(-50.0, 50.0, n)
            y = (rng.random(m) < 0.3).astype(np.float64)
            assert LogisticProblem(Dataset(X, y)).fitted_sigma == _one_pass_sigma(X, y)

    def test_peaks_well_under_one_dataset(self, peak_bytes):
        m = 20000
        problem = LogisticProblem(generate_synthetic(m, 55, seed=6)[0])
        # a gradient block, the norm's temporaries of one block, and the
        # deviations with the quantile's copy of them
        bound = 3 * problems._LOSS_BLOCK_ELEMENTS * 8 + 2 * m * 8
        assert bound < problem.dataset.features.nbytes / 4
        assert peak_bytes(lambda: problem.fitted_sigma) <= bound

    def test_scales_linearly_with_features(self):
        dataset, _ = generate_synthetic(300, 4, seed=1)
        base = LogisticProblem(dataset).fitted_sigma
        scaled = LogisticProblem(
            Dataset(features=3.0 * dataset.features, labels=dataset.labels)
        ).fitted_sigma
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_degenerate_gradients_raise(self):
        ds = Dataset(features=np.ones((5, 2)), labels=np.zeros(5))
        with pytest.raises(ValueError):
            LogisticProblem(ds).fitted_sigma


def _one_shot_synthetic(m, n, seed, intercept):
    """generate_synthetic's draws as one (m, gaussian columns) matrix joined
    to its intercept column: the reference for the row-blocked build."""
    rng = _rng.generator(seed, _rng.DATA_STREAM)
    X = rng.standard_normal((m, n - 1 if intercept else n))
    if intercept:
        X = np.hstack([X, np.ones((m, 1))])
    direction = rng.standard_normal(n)
    true_weights = direction * (2.0 / float(np.linalg.norm(direction)))
    probs = expit(X @ true_weights)
    for _ in range(8):
        labels = (rng.random(m) < probs).astype(np.float64)
        if 0.0 < labels.mean() < 1.0:
            break
    return X, labels, true_weights


class TestGenerateSynthetic:
    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("n", [3, 55])
    def test_row_blocks_give_the_one_shot_bits(self, n, intercept):
        for m in _row_block_edges(n):
            dataset, true_weights = generate_synthetic(m, n, seed=m, intercept=intercept)
            X, labels, reference_weights = _one_shot_synthetic(m, n, m, intercept)
            assert np.array_equal(dataset.features, X)
            assert np.array_equal(dataset.labels, labels)
            assert np.array_equal(true_weights, reference_weights)

    def test_peaks_at_one_block_and_the_label_vectors_above_the_features(self, peak_bytes):
        m, n = 20000, 55
        generate_synthetic(10, n)  # the generator's first use is not part of a build
        built = []
        peak = peak_bytes(lambda: built.append(generate_synthetic(m, n, seed=3)))
        # one block of normals, then at most four (m,) vectors at once: the
        # probabilities, a uniform draw, its labels and the previous draw's
        bound = built[0][0].features.nbytes + problems._LOSS_BLOCK_ELEMENTS * 8 + 4 * m * 8
        # the one-shot build holds a second copy of the features
        assert 2 * built[0][0].features.nbytes > bound
        assert peak <= bound

    def test_shapes_intercept_and_label_range(self):
        dataset, true_w = generate_synthetic(200, 6, seed=0)
        assert dataset.features.shape == (200, 6)
        assert dataset.labels.shape == (200,)
        np.testing.assert_array_equal(dataset.features[:, -1], np.ones(200))
        assert set(np.unique(dataset.labels)) <= {0.0, 1.0}
        assert 0.0 < dataset.labels.mean() < 1.0
        assert np.linalg.norm(true_w) == pytest.approx(2.0, rel=1e-12)

    def test_no_intercept_features_are_all_gaussian(self):
        dataset, _ = generate_synthetic(200, 4, seed=0, intercept=False)
        assert dataset.features.shape == (200, 4)
        assert not np.all(dataset.features[:, -1] == 1.0)

    def test_deterministic_per_seed(self):
        a, wa = generate_synthetic(50, 3, seed=9)
        b, wb = generate_synthetic(50, 3, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(wa, wb)
        c, _ = generate_synthetic(50, 3, seed=10)
        assert not np.array_equal(a.features, c.features)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 3)
        with pytest.raises(ValueError):
            generate_synthetic(10, 1)


class TestSplitTrainTest:
    def test_sizes_and_row_preservation(self):
        dataset, _ = generate_synthetic(50, 3, seed=2)
        train, test = split_train_test(dataset, test_fraction=0.2, seed=0)
        assert test.size == 10
        assert train.size == 40
        merged = np.vstack([train.features, test.features])
        order_m = np.lexsort(merged.T)
        order_o = np.lexsort(dataset.features.T)
        np.testing.assert_array_equal(merged[order_m], dataset.features[order_o])

    def test_deterministic_and_seed_sensitive(self):
        dataset, _ = generate_synthetic(40, 3, seed=5)
        t1, _ = split_train_test(dataset, seed=3)
        t2, _ = split_train_test(dataset, seed=3)
        np.testing.assert_array_equal(t1.features, t2.features)
        t3, _ = split_train_test(dataset, seed=4)
        assert not np.array_equal(t1.features, t3.features)

    def test_rejects_bad_fraction_and_tiny_data(self):
        dataset, _ = generate_synthetic(10, 3, seed=0)
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                split_train_test(dataset, test_fraction=frac)
        one_row = Dataset(features=np.ones((1, 2)), labels=np.zeros(1))
        with pytest.raises(ValueError):
            split_train_test(one_row)


class TestErmReference:
    def test_quadratic_interior_optimum_is_recovered(self):
        problem = QuadraticProblem(
            target=np.array([0.3, -0.4]), feasible_set=Ball(np.zeros(2), 2.0)
        )
        point, value = erm_reference(problem, tol=1e-8)
        assert value <= 1e-8
        np.testing.assert_allclose(point, problem.target, atol=1e-3)

    def test_separable_pair_pushes_weights_to_the_boundary(self):
        ds = Dataset(
            features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            labels=np.array([1.0, 0.0]),
        )
        problem = LogisticProblem(ds, weight_radius=2.0)
        point, value = erm_reference(problem, tol=1e-6)
        floor = math.log1p(math.exp(-2.0))
        assert floor - 1e-12 <= value <= floor + 1e-4
        assert np.linalg.norm(point) <= 2.0 * (1.0 + 1e-9)

    def test_linear_problem_reference_hits_support_point(self):
        problem = LinearProblem(
            slope=np.array([1.0, 0.0]), feasible_set=Ball(np.zeros(2), 1.0)
        )
        point, value = erm_reference(problem, tol=1e-6)
        assert value <= -1.0 + 1e-4

    @staticmethod
    def _exact_gap(problem, point):
        return linear_optimality_gap(problem.feasible_set, point, problem.gradient(point))

    @staticmethod
    def _cut_solves(monkeypatch):
        runs = []
        original = problems.solve

        def recording(*args, **kwargs):
            report = original(*args, **kwargs)
            runs.append(report)
            return report

        monkeypatch.setattr(problems, "solve", recording)
        return runs

    # on seed 9 the cut run's lowest-value center has a gap of 1.06e-4, so
    # only the center that certified clears tol
    @pytest.mark.parametrize("seed", [0, 1, 2, 9])
    def test_newton_reference_agrees_with_the_cut_reference(self, seed, monkeypatch):
        dataset, _ = generate_synthetic(2000, 5, seed=seed)
        problem = LogisticProblem(dataset)
        tol = 1e-4
        runs = self._cut_solves(monkeypatch)
        newton_point, newton_value = erm_reference(problem, tol=tol, seed=seed)
        assert runs == []
        cut_point, cut_value = problems._cut_reference(problem, tol, seed)
        assert [r.termination for r in runs] == ["certified"]
        np.testing.assert_array_equal(cut_point, runs[0].records[-1].center)
        assert abs(newton_value - cut_value) <= tol
        assert newton_value == pytest.approx(problem.objective(newton_point), rel=1e-12)
        assert self._exact_gap(problem, newton_point) <= tol
        assert self._exact_gap(problem, cut_point) <= tol

    def test_a_certified_solve_returns_the_center_that_certified(self, monkeypatch):
        # seed 9's lowest-value center has a gap of 1.06e-4, above tol
        problem = LogisticProblem(generate_synthetic(2000, 5, seed=9)[0])
        tol = 1e-4
        runs = self._cut_solves(monkeypatch)
        point, _ = problems._cut_reference(problem, tol, 9)
        (report,) = runs
        assert report.termination == "certified"
        np.testing.assert_array_equal(report.best_point, report.records[-1].center)
        assert report.best_estimate == report.records[-1].f_estimate
        np.testing.assert_array_equal(point, report.best_point)
        assert self._exact_gap(problem, point) <= tol

    def test_newton_backtracks_on_heavy_tailed_data(self, monkeypatch):
        # Cauchy features make the full Newton step overshoot, so Armijo
        # backtracking shrinks at least one step before it is accepted
        rng = np.random.default_rng(1061)
        m = rng.integers(4, 40)
        X = rng.standard_t(1, (m, 2)) * rng.choice([0.5, 1, 2, 5])
        problem = LogisticProblem(Dataset(X, (rng.random(m) < 0.5).astype(float)), weight_radius=10.0)
        tol = 1e-6
        calls = []
        for name in ("objective_and_gradient", "hessian"):
            def counting(w, _name=name, _original=getattr(problem, name)):
                calls.append(_name)
                return _original(w)
            monkeypatch.setattr(problem, name, counting)
        point, value = problems._newton_reference(problem, tol)
        # one evaluation at w = 0 and one per accepted step; any more are
        # rejected trial steps (this draw: 4 steps, 6 evaluations)
        assert calls.count("objective_and_gradient") > calls.count("hessian") + 1
        monkeypatch.undo()
        assert self._exact_gap(problem, point) <= tol
        _, cut_value = problems._cut_reference(problem, tol, 0)
        assert abs(value - cut_value) <= tol

    def test_newton_step_leaving_the_ball_falls_back_to_the_cut_solver(self, monkeypatch):
        dataset, _ = generate_synthetic(500, 3, seed=4)
        problem = LogisticProblem(dataset, weight_radius=0.05)
        first_step = np.linalg.solve(problem.hessian(np.zeros(3)), -problem.gradient(np.zeros(3)))
        assert np.linalg.norm(first_step) > 0.05
        runs = self._cut_solves(monkeypatch)
        point, value = erm_reference(problem, tol=1e-6)
        assert len(runs) == 1
        assert np.linalg.norm(point) <= 0.05 * (1.0 + 1e-9)
        assert self._exact_gap(problem, point) <= 1e-6
        assert value == problem.objective(point)

    @pytest.mark.parametrize("column", ["zero", "duplicate"])
    def test_singular_design_falls_back_without_error(self, column, monkeypatch):
        dataset, _ = generate_synthetic(500, 3, seed=5)
        X = dataset.features
        extra = np.zeros((X.shape[0], 1)) if column == "zero" else X[:, :1]
        problem = LogisticProblem(Dataset(np.hstack([X, extra]), dataset.labels))
        runs = self._cut_solves(monkeypatch)
        point, value = erm_reference(problem, tol=1e-4)
        assert len(runs) == 1
        assert self._exact_gap(problem, point) <= 1e-4
        assert value == pytest.approx(problem.objective(point), rel=1e-12)

    def test_rejects_nonpositive_tol(self):
        problem = QuadraticProblem(
            target=np.zeros(2), feasible_set=Ball(np.zeros(2), 1.0)
        )
        with pytest.raises(ValueError):
            erm_reference(problem, tol=0.0)


class TestDatasetCsv:
    def test_round_trip_is_exact(self, tmp_path):
        dataset, _ = generate_synthetic(25, 4, seed=8)
        path = tmp_path / "data.csv"
        save_dataset_csv(dataset, path)
        loaded = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.features, dataset.features)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)

    def test_header_names_features_then_label(self, tmp_path):
        dataset = Dataset(features=np.zeros((1, 2)), labels=np.zeros(1))
        path = tmp_path / "data.csv"
        save_dataset_csv(dataset, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "f0,f1,y"

    def test_label_column_position_is_flexible(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,y,f1\n1.0,1,2.0\n", encoding="utf-8")
        loaded = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.features, [[1.0, 2.0]])
        np.testing.assert_array_equal(loaded.labels, [1.0])

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", ":1: empty file"),
            ("f0,f1\n1.0,2.0\n", "exactly one 'y' column"),
            ("y,f0,y\n1,1.0,0\n", "exactly one 'y' column"),
            ("f0,f1,y\n1.0,2.0\n", ":2: expected 3 fields, got 2"),
            ("f0,f1,y\n1.0,spam,0\n", ":2:"),
            ("f0,f1,y\n1.0,2.0,1\n1.0,nan,0\n", ":3: features must be finite"),
            ("f0,f1,y\n1.0,2.0,1\n1.0,inf,0\n", ":3: features must be finite"),
            ("f0,f1,y\n1.0,2.0,1\n-inf,2.0,0\n", ":3: features must be finite"),
            ("f0,f1,y\n1.0,2.0,7\n", "label must be 0 or 1"),
            ("f0,f1,y\n", "no data rows"),
        ],
    )
    def test_malformed_files_report_location(self, tmp_path, text, fragment):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="data"):
            try:
                load_dataset_csv(path)
            except DatasetFormatError as exc:
                assert fragment in str(exc)
                raise

    @pytest.mark.parametrize("header, row", [("y,f0,f1", "1,1.0,2.0"), ("f0,f1,y", "1.0,2.0,1")],
                             ids=["label-first", "label-last"])
    def test_a_byte_order_mark_is_read_past(self, tmp_path, header, row):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}\n{row}\n".encode())
        loaded = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.features, [[1.0, 2.0]])
        np.testing.assert_array_equal(loaded.labels, [1.0])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,y\n1.0,2.0,1\n\n3.0,4.0,0\n", encoding="utf-8")
        loaded = load_dataset_csv(path)
        assert loaded.size == 2

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(
                    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
                ),
                st.floats(
                    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
                ),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, rows):
        features = np.array([[a, b] for a, b, _ in rows])
        labels = np.array([float(lab) for _, _, lab in rows])
        dataset = Dataset(features=features, labels=labels)
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        save_dataset_csv(dataset, path)
        loaded = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.features, dataset.features)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
