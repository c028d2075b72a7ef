"""Problem instances: logistic regression on data, plus synthetic test objectives.

The logistic objective is the mean binary cross-entropy
mean_i [ log(1 + exp(z_i)) - y_i z_i ] with z_i = <w, x_i>, evaluated in the
softplus form that stays finite for large |z|. Its per-sample gradient is
(sigmoid(z_i) - y_i) x_i.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from . import _rng
from .geometry import Ball, FeasibleSet, Vector, _as_vector, linear_optimality_gap
from .oracles import GaussianOracle, StochasticGradOracle
from .solver import SolverConfig, estimate_value_range, solve

_LABEL_COLUMN = "y"
_SYNTH_WEIGHT_NORM = 2.0
_LABEL_REDRAWS = 8
# sigma fit: this quantile of the per-sample deviations, times the safety factor
_SIGMA_QUANTILE = 0.99
_SIGMA_SAFETY = 1.5
# damped Newton ERM reference: Newton steps before falling back to the cut
# solver, and the Armijo sufficient-decrease fraction, shrink factor and
# shrink cap of its backtracking line search
_NEWTON_MAX_STEPS = 50
_ARMIJO_FRACTION = 1e-4
_ARMIJO_SHRINK = 0.5
_ARMIJO_MAX_SHRINKS = 30
# ``_mean_losses`` takes its matrix product in row blocks of at most this
# many elements (32 MB), its peak memory, and runs the loss passes over row
# blocks of about _LOSS_BLOCK_ELEMENTS (512 KB), which stay in L2 between
# passes; ``generate_synthetic`` and ``fitted_sigma`` build in such row blocks
_PRODUCT_BLOCK_ELEMENTS = 2**22
_LOSS_BLOCK_ELEMENTS = 2**16

DEFAULT_WEIGHT_RADIUS = 10.0


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files, with the offending line number."""


@dataclass(frozen=True)
class Dataset:
    """Design matrix (m, n) and binary labels (m,) in {0, 1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D array")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be one value per row of features")
        # min and max propagate NaN and reach any infinity, without an (m, n) mask
        if not (np.isfinite(X.min()) and np.isfinite(X.max())):
            raise ValueError("features must be finite")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]


def _softplus(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(z)) as max(z, 0) + log1p(exp(-|z|)), finite for any z.

    Built in ``out`` (a new array by default) with one temporary; writing
    through ``out=`` keeps a 0-d input 0-d.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.abs(z, out=np.empty_like(z) if out is None else out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(out, np.maximum(z, 0.0), out=out)


def _losses_into(z: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-sample losses softplus(z) - y z into ``out``; ``z`` becomes y z."""
    _softplus(z, out=out)
    z *= y
    return np.subtract(out, z, out=out)


def _mean_loss_and_gradient(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean logistic loss and its gradient over the rows of X, labels y, at a
    point w (n,), or (k,) losses and (k, n) gradients at a (k, n) block. A
    one-row block takes the matrix-vector path of a point and has its bits.
    The residual's buffer then holds the losses, and ``z`` becomes y z."""
    z = w @ X.T
    residual = expit(z)
    residual -= y
    gradient = residual @ X
    gradient /= X.shape[0]
    return _losses_into(z, y, residual).mean(axis=-1), gradient


def _mean_losses(X: np.ndarray, y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(k,) mean logistic loss over the rows of X, labels y, at each row of W (k, n).

    The product ``W @ X.T`` is taken in near-equal row blocks of at most
    ``_PRODUCT_BLOCK_ELEMENTS`` elements or three rows, so no block of a
    multi-row W is one row, which numpy would send down its matrix-vector
    path with other rounding. Each row of losses is reduced on its own. The
    values are a fixed function of (k, m), so reruns are bit-identical. A
    row slice of the product need not have the whole product's bits: on
    OpenBLAS with one thread and n in {2, 10, 20, 55}, slices of two or more
    rows matched it with 4,000, 4,096 or 10,000 rows in X, while head slices
    of 2 to 512 rows of a 700-row product differed with 300 rows in X.
    """
    m = X.shape[0]
    parts = np.array_split(W, -(-W.shape[0] // max(3, _PRODUCT_BLOCK_ELEMENTS // m)))
    rows = max(1, _LOSS_BLOCK_ELEMENTS // m)
    # one buffer for every product block; array_split puts the longest first
    product = np.empty((parts[0].shape[0], m))
    losses = np.empty((min(rows, product.shape[0]), m))
    means = []
    for part in parts:
        Z = np.matmul(part, X.T, out=product[: part.shape[0]])
        for lo in range(0, Z.shape[0], rows):
            block = losses[: min(rows, Z.shape[0] - lo)]
            means.append(_losses_into(Z[lo : lo + rows], y, block).mean(axis=1))
    return np.concatenate(means)


class LogisticOracle(StochasticGradOracle):
    """One draw = the loss/gradient of a uniformly sampled dataset row.

    The batch means run the full-data objective's kernel on the gathered
    rows. ``draw_block`` and ``value_block_crn`` build the per-draw arrays
    of the gradient and value streams: the references for both halves.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray) -> None:
        data = Dataset(features, labels)
        self._X, self._y = data.features, data.labels
        if data.width < 2:
            raise ValueError("oracle dimension must be >= 2")

    def _rows(self, seed: int, stream: int, step: int, count: int):
        key = _rng.stream_key(seed, stream, step)
        idx = _rng.uniform_indices(key, count, self._X.shape[0])
        return self._X.take(idx, axis=0), self._y.take(idx)

    @property
    def dimension(self) -> int:
        return self._X.shape[1]

    def draw_block(self, x, seed, step, count):
        Xb, yb = self._rows(seed, _rng.GRAD_STREAM, step, count)
        z = Xb @ x
        values = _softplus(z) - yb * z
        grads = (expit(z) - yb)[:, None] * Xb
        return grads, values

    def value_block_crn(self, points, seed, step, count):
        Xb, yb = self._rows(seed, _rng.EVAL_STREAM, step, count)
        z = Xb @ points.T
        return _softplus(z) - yb[:, None] * z

    def batch_mean(self, x, seed, stream, step, count):
        value, gradient = _mean_loss_and_gradient(*self._rows(seed, stream, step, count), x)
        return gradient, value


class LogisticProblem:
    """Logistic regression over a ball-constrained weight space.

    The feasible set is the euclidean ball of radius ``weight_radius`` around
    the origin, so R = rho = weight_radius and D = 2 * weight_radius.
    """

    def __init__(self, dataset: Dataset, weight_radius: float = DEFAULT_WEIGHT_RADIUS) -> None:
        self.dataset = dataset
        if dataset.width < 2:
            raise ValueError("logistic problems need at least 2 feature columns")
        self.feasible_set: FeasibleSet = Ball(np.zeros(dataset.width), weight_radius)

    @property
    def dimension(self) -> int:
        return self.dataset.width

    def objective(self, weights) -> float:
        return float(self.objective_many(np.asarray(weights, dtype=np.float64)[None, :])[0])

    def objective_many(self, weight_rows: np.ndarray) -> np.ndarray:
        """Full-data mean loss at each row of (k, n) weights (``_mean_losses``)."""
        W = np.asarray(weight_rows, dtype=np.float64)
        return _mean_losses(self.dataset.features, self.dataset.labels, W)

    def gradient(self, weights) -> Vector:
        return self.objective_and_gradient(weights)[1]

    def objective_and_gradient(self, weights) -> tuple[float, Vector]:
        w = _as_vector(weights, self.dimension)
        value, gradient = _mean_loss_and_gradient(self.dataset.features, self.dataset.labels, w)
        return float(value), gradient

    def oracle(self) -> LogisticOracle:
        return LogisticOracle(self.dataset.features, self.dataset.labels)

    def hessian(self, weights) -> np.ndarray:
        """Full-data Hessian X^T diag(s (1 - s)) X / m with s = sigmoid(X w)."""
        w = _as_vector(weights, self.dimension)
        s = expit(self.dataset.features @ w)
        return (self.dataset.features.T * (s * (1.0 - s))) @ self.dataset.features / self.dataset.size

    @cached_property
    def fitted_sigma(self) -> float:
        """Subgaussian scale of per-sample gradient deviations at w = 0.

        Takes the 0.99 quantile of ||g_i - mean g|| over the data and inflates
        it by 1.5; per-sample deviations are bounded by 2 max ||x_i||, so the
        inflated quantile comfortably satisfies E exp(||.||^2/sigma^2) <= e on
        non-degenerate data.
        """
        X, y = self.dataset.features, self.dataset.labels
        m, n = X.shape
        rows = max(1, _LOSS_BLOCK_ELEMENTS // n)
        buffer = np.zeros((min(rows, m) + 1, n))

        def gradients(lo: int) -> np.ndarray:
            """g_i = (0.5 - y_i) x_i of the row block from ``lo``, in buffer[1:]."""
            block = slice(lo, lo + rows)
            return np.multiply((0.5 - y[block])[:, None], X[block], out=buffer[1 : 1 + min(rows, m - lo)])

        # row 0 carries the running sum, so each column adds its rows in
        # numpy's sequential axis-0 order: the bits of the whole matrix's mean
        for lo in range(0, m, rows):
            buffer[0] = buffer[: 1 + gradients(lo).shape[0]].sum(axis=0)
        mean = buffer[0] / m
        # a row's norm reduces along that contiguous row alone, whatever the block
        deviations = np.empty(m)
        for lo in range(0, m, rows):
            grads = gradients(lo)
            deviations[lo : lo + rows] = np.linalg.norm(np.subtract(grads, mean, out=grads), axis=1)
        scale = float(np.quantile(deviations, _SIGMA_QUANTILE)) * _SIGMA_SAFETY
        if scale <= 0.0:
            raise ValueError("degenerate dataset: all per-sample gradients coincide")
        return scale


@dataclass(frozen=True)
class QuadraticProblem:
    """f(x) = ||x - target||^2 over a feasible set; optimum known exactly."""

    target: Vector
    feasible_set: FeasibleSet

    def objective(self, x) -> float:
        return self.objective_and_gradient(x)[0]

    def gradient(self, x) -> Vector:
        return self.objective_and_gradient(x)[1]

    def objective_and_gradient(self, x) -> tuple[float, Vector]:
        d = _as_vector(x, self.feasible_set.dimension) - self.target
        return float(d @ d), 2.0 * d

    def objective_rows(self, rows: np.ndarray) -> np.ndarray:
        d = np.asarray(rows, dtype=np.float64) - self.target
        return np.einsum("ij,ij->i", d, d)

    def reference(self) -> tuple[Vector, float]:
        best = self.feasible_set.project(self.target)
        return best, self.objective(best)


@dataclass(frozen=True)
class LinearProblem:
    """f(x) = <slope, x> over a feasible set; minimized at a support point."""

    slope: Vector
    feasible_set: FeasibleSet

    def objective(self, x) -> float:
        return float(self.slope @ _as_vector(x, self.feasible_set.dimension))

    def gradient(self, x) -> Vector:
        return np.array(self.slope, dtype=np.float64)

    def objective_and_gradient(self, x) -> tuple[float, Vector]:
        return self.objective(x), self.gradient(x)

    def objective_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=np.float64) @ self.slope

    def reference(self) -> tuple[Vector, float]:
        best = self.feasible_set.support_point(-np.asarray(self.slope, dtype=np.float64))
        return best, self.objective(best)


def generate_synthetic(m: int, n: int, seed: int = 0, intercept: bool = True) -> tuple[Dataset, Vector]:
    """Draw a synthetic logistic dataset and its ground-truth weights.

    Features are standard Gaussian, with the last column constant 1 when
    ``intercept`` is set (``n`` counts that column). True weights sit on the
    sphere of radius 2; labels are Bernoulli(sigmoid(<w*, x>)). Asserts the
    labels are non-constant for m >= 100 (redraws a few times, then fails).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = _rng.generator(seed, _rng.DATA_STREAM)
    gaussian_cols = n - 1 if intercept else n
    # the Generator draws normals in sequence, so row blocks drawn in order
    # give the bits of one (m, gaussian_cols) draw without a second matrix
    X = np.empty((m, n))
    rows = max(1, _LOSS_BLOCK_ELEMENTS // n)
    for lo in range(0, m, rows):
        X[lo : lo + rows, :gaussian_cols] = rng.standard_normal((min(rows, m - lo), gaussian_cols))
    if intercept:
        X[:, -1] = 1.0
    direction = rng.standard_normal(n)
    true_weights = direction * (_SYNTH_WEIGHT_NORM / float(np.linalg.norm(direction)))
    probs = expit(X @ true_weights)
    labels = None
    for _ in range(_LABEL_REDRAWS):
        draw = (rng.random(m) < probs).astype(np.float64)
        labels = draw
        if 0.0 < draw.mean() < 1.0:
            break
    assert labels is not None
    if m >= 100 and not 0.0 < labels.mean() < 1.0:
        raise RuntimeError("synthetic labels came out constant; dataset rejected")
    return Dataset(features=X, labels=labels), true_weights


def split_train_test(dataset: Dataset, test_fraction: float = 0.2, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split; returns (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test fraction must lie strictly inside (0, 1)")
    if dataset.size < 2:
        raise ValueError("need at least 2 rows to split")
    rng = _rng.generator(seed, _rng.SPLIT_STREAM)
    perm = rng.permutation(dataset.size)
    n_test = min(dataset.size - 1, max(1, int(round(dataset.size * test_fraction))))
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return (
        Dataset(dataset.features[train_idx], dataset.labels[train_idx]),
        Dataset(dataset.features[test_idx], dataset.labels[test_idx]),
    )


def erm_reference(problem, tol: float = 1e-6, *, seed: int = 0) -> tuple[Vector, float]:
    """Reference optimum whose exact-gradient certificate clears ``tol``.

    ``problem`` needs objective_and_gradient, objective and feasible_set.
    A ``LogisticProblem`` first gets damped Newton steps from w = 0, and
    the first iterate whose ``linear_optimality_gap`` is at most ``tol`` is
    returned. When Newton cannot certify a point (a step leaves the ball,
    the Hessian is singular, or the step cap is reached), and for every
    other problem, the reference comes from a zero-noise cut-solver run.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(problem, LogisticProblem):
        reference = _newton_reference(problem, tol)
        if reference is not None:
            return reference
    return _cut_reference(problem, tol, seed)


def _newton_reference(problem: LogisticProblem, tol: float) -> tuple[Vector, float] | None:
    """Damped Newton (IRLS) with Armijo backtracking; None when it gives up."""
    ball = problem.feasible_set
    w = np.zeros(problem.dimension)
    value, grad = problem.objective_and_gradient(w)
    for _ in range(_NEWTON_MAX_STEPS):
        if linear_optimality_gap(ball, w, grad) <= tol:
            return w, value
        try:
            direction = np.linalg.solve(problem.hessian(w), -grad)
        except np.linalg.LinAlgError:
            return None
        # the ball is convex, so every damped step stays inside with the full one
        if not ball.contains(w + direction):
            return None
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(_ARMIJO_MAX_SHRINKS):
            trial = w + step * direction
            trial_value, trial_grad = problem.objective_and_gradient(trial)
            if trial_value <= value + _ARMIJO_FRACTION * step * slope:
                break
            step *= _ARMIJO_SHRINK
        else:
            return None
        w, value, grad = trial, trial_value, trial_grad
    return None


def _cut_reference(problem, tol: float, seed: int) -> tuple[Vector, float]:
    """Zero-noise cut-solver run at eps = ``tol``, budgeted so the worst-case
    gap bound clears it; the oracle is exact, so ``solve`` stops at, and
    returns, the first center whose exact-gradient certificate clears it."""
    oracle = GaussianOracle(problem.objective_and_gradient, problem.feasible_set.dimension, sigma=0.0)
    value_range = estimate_value_range(oracle, problem.feasible_set, seed=seed)
    config = SolverConfig(
        eps=tol,
        sigma=0.0,
        seed=seed,
        batch_size=1,
        value_range=max(value_range, tol),
    )
    best = solve(oracle, problem.feasible_set, config).best_point
    return best, float(problem.objective(best))


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write features then a final label column named 'y', full precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i}" for i in range(dataset.width)] + [_LABEL_COLUMN])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [str(int(label))])


def load_dataset_csv(path) -> Dataset:
    """Read a dataset CSV (header row; label column 'y' anywhere; optional UTF-8 BOM)."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}:1: empty file") from None
        header = [h.strip() for h in header]
        if header.count(_LABEL_COLUMN) != 1:
            raise DatasetFormatError(f"{path}:1: header must contain exactly one '{_LABEL_COLUMN}' column")
        label_pos = header.index(_LABEL_COLUMN)
        feature_pos = [i for i in range(len(header)) if i != label_pos]
        features, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetFormatError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values = [float(row[i]) for i in feature_pos]
                label = float(row[label_pos])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{line_no}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise DatasetFormatError(f"{path}:{line_no}: features must be finite")
            if label not in (0.0, 1.0):
                raise DatasetFormatError(f"{path}:{line_no}: label must be 0 or 1, got {row[label_pos]!r}")
            features.append(values)
            labels.append(label)
    if not features:
        raise DatasetFormatError(f"{path}: no data rows")
    try:
        return Dataset(np.asarray(features), np.asarray(labels))
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
