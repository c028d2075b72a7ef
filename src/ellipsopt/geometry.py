"""Ellipsoids, cut updates, and the feasible sets the solver can run on.

An ellipsoid is { x : (x - c)^T H^{-1} (x - c) <= 1 } with a symmetric
positive definite shape matrix H. One cut step intersects the ellipsoid with
the half-space { x : <w, x - c> <= 0 } and returns the minimum-volume
ellipsoid containing that half, shrinking volume by a fixed dimension-only
factor.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray

Vector: TypeAlias = NDArray[np.float64]

# below this cap a box enumerates its corners exactly; above it, axis
# supports stand in (2^n corner enumeration stops being useful)
_CORNER_ENUM_LIMIT = 12

_DEGENERACY_RTOL = 1e-14


class DegenerateEllipsoidError(RuntimeError):
    """Raised when a cut direction carries no extent in the current ellipsoid."""


def _as_vector(x, dim: int | None = None) -> Vector:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _as_points(x, dim: int) -> NDArray[np.float64]:
    """A finite point (n,) or block of points (k, n), as float64."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != dim:
        raise ValueError(f"expected a ({dim},) point or a (k, {dim}) block, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


class Ellipsoid:
    """Solid ellipsoid given by a center and an SPD shape matrix."""

    __slots__ = ("center", "shape")

    def __init__(self, center, shape, *, validate: bool = True) -> None:
        self.center = np.asarray(center, dtype=np.float64)
        self.shape = np.asarray(shape, dtype=np.float64)
        if validate:
            self._validate()

    def _validate(self) -> None:
        c, H = self.center, self.shape
        if c.ndim != 1:
            raise ValueError("center must be a 1-D vector")
        n = c.shape[0]
        if n < 2:
            raise ValueError("ellipsoids are supported in dimension >= 2 only")
        if H.shape != (n, n):
            raise ValueError(f"shape matrix must be ({n}, {n}), got {H.shape}")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(H))):
            raise ValueError("ellipsoid entries must be finite")
        if not np.allclose(H, H.T, rtol=1e-8, atol=1e-12 * max(1.0, float(np.abs(H).max()))):
            raise ValueError("shape matrix must be symmetric")
        # exactly symmetric from here on: every cut step keeps it so
        self.shape = H = 0.5 * (H + H.T)
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise ValueError("shape matrix must be positive definite") from exc

    def log_det_shape(self) -> float:
        sign, logdet = np.linalg.slogdet(self.shape)
        if sign <= 0:
            raise DegenerateEllipsoidError("shape matrix lost positive definiteness")
        return float(logdet)


def shape_det_ratio(dim: int) -> float:
    """det(H') / det(H) for one cut step: (n^2/(n^2-1))^n * (n-1)/(n+1)."""
    n = dim
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return (n * n / (n * n - 1.0)) ** n * (n - 1.0) / (n + 1.0)


def ellipsoid_step(ellipsoid: Ellipsoid, cut) -> Ellipsoid:
    """Minimum-volume ellipsoid containing { x in E : <cut, x - center> <= 0 }.

    Raises DegenerateEllipsoidError when the cut direction has (numerically)
    zero extent in E, i.e. w^T H w vanishes against the scale of H.
    """
    c = ellipsoid.center
    H = ellipsoid.shape
    n = c.shape[0]
    w = _as_vector(cut, n)
    wnorm2 = float(w @ w)
    if wnorm2 == 0.0:
        raise ValueError("cut vector must be nonzero")
    hw = H @ w
    s = float(w @ hw)
    if s <= _DEGENERACY_RTOL * wnorm2 * float(np.trace(H)) / n:
        raise DegenerateEllipsoidError(
            f"cut direction has no extent: w^T H w = {s:.3e} under tolerance"
        )
    new_center = c - hw / ((n + 1.0) * np.sqrt(s))
    # scale * (H - (2 / (n + 1)) * outer(hw, hw) / s), built in one buffer in
    # the same order of operations; the outer product is exactly symmetric, so
    # exact symmetry and definiteness carry over
    new_shape = np.multiply.outer(hw, hw)
    new_shape *= 2.0 / (n + 1.0)
    new_shape /= s
    np.subtract(H, new_shape, out=new_shape)
    new_shape *= n * n / (n * n - 1.0)
    return Ellipsoid(new_center, new_shape, validate=False)


class FeasibleSet(ABC):
    """Closed convex set with the geometry constants the solver needs."""

    @property
    @abstractmethod
    def dimension(self) -> int: ...

    @property
    @abstractmethod
    def bounding_ball(self) -> Ball:
        """A ball containing the set; the solver's starting ellipsoid."""

    @property
    @abstractmethod
    def inner_radius(self) -> float:
        """Radius of some euclidean ball contained in the set."""

    @property
    @abstractmethod
    def diameter(self) -> float: ...

    @abstractmethod
    def contains(self, x) -> bool:
        """Closed membership: boundary points are feasible."""

    @abstractmethod
    def separation_hyperplane(self, x) -> Vector:
        """Unit w with the set inside { y : <w, y - x> <= 0 }, for x outside."""

    @abstractmethod
    def project(self, x) -> Vector:
        """Euclidean projection onto the set of a point (n,), or of each row
        of a (k, n) block; raises ValueError on a non-finite entry."""

    @abstractmethod
    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) points drawn from the set."""

    @abstractmethod
    def support_point(self, direction) -> Vector:
        """A maximizer of <direction, y> over the set."""

    @abstractmethod
    def extreme_points(self) -> np.ndarray:
        """A small deterministic family of boundary points, for verifiers."""


class Box(FeasibleSet):
    """Axis-aligned box { x : lower <= x <= upper } with nonempty interior."""

    def __init__(self, lower, upper) -> None:
        self.lower = _as_vector(lower)
        self.upper = _as_vector(upper, self.lower.shape[0])
        if self.lower.shape[0] < 2:
            raise ValueError("feasible sets are supported in dimension >= 2 only")
        if not np.all(self.lower < self.upper):
            raise ValueError("box needs lower < upper in every coordinate")

    @classmethod
    def centered(cls, dim: int, half_width: float = 1.0) -> "Box":
        h = float(half_width) * np.ones(dim)
        return cls(-h, h)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def bounding_ball(self) -> Ball:
        center = 0.5 * (self.lower + self.upper)
        radius = float(np.linalg.norm(0.5 * (self.upper - self.lower)))
        return Ball(center, radius)

    @property
    def inner_radius(self) -> float:
        return float(np.min(0.5 * (self.upper - self.lower)))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        # boundary slack so projected points always count as members
        slack = 1e-9 * np.maximum(1.0, np.abs(self.upper - self.lower))
        return bool(np.all(v >= self.lower - slack) and np.all(v <= self.upper + slack))

    def separation_hyperplane(self, x) -> Vector:
        v = _as_vector(x, self.dimension)
        below = self.lower - v
        above = v - self.upper
        violation = np.maximum(below, above)
        worst = int(np.argmax(violation))  # ties resolve to the lowest index
        if violation[worst] <= 0:
            raise ValueError("separation_hyperplane requires a point outside the set")
        w = np.zeros(self.dimension)
        w[worst] = 1.0 if above[worst] >= below[worst] else -1.0
        return w

    def project(self, x) -> Vector:
        return np.clip(_as_points(x, self.dimension), self.lower, self.upper)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(count, self.dimension))

    def support_point(self, direction) -> Vector:
        d = _as_vector(direction, self.dimension)
        return np.where(d >= 0, self.upper, self.lower).astype(np.float64)

    def extreme_points(self) -> np.ndarray:
        n = self.dimension
        if n <= _CORNER_ENUM_LIMIT:
            corners = itertools.product(*zip(self.lower, self.upper))
            return np.array(list(corners), dtype=np.float64)
        eye = np.eye(n)
        return np.vstack([self.support_point(e) for e in eye] + [self.support_point(-e) for e in eye])


class Ball(FeasibleSet):
    """Euclidean ball { x : ||x - center|| <= radius }."""

    def __init__(self, center, radius: float) -> None:
        self.center = _as_vector(center)
        self.radius = float(radius)
        if self.center.shape[0] < 2:
            raise ValueError("feasible sets are supported in dimension >= 2 only")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    @property
    def bounding_ball(self) -> Ball:
        return Ball(self.center.copy(), self.radius)

    @property
    def inner_radius(self) -> float:
        return self.radius

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x) -> bool:
        v = _as_vector(x, self.dimension)
        # boundary slack so projected points always count as members
        return bool(np.linalg.norm(v - self.center) <= self.radius * (1.0 + 1e-9))

    def separation_hyperplane(self, x) -> Vector:
        v = _as_vector(x, self.dimension)
        offset = v - self.center
        dist = float(np.linalg.norm(offset))
        if dist <= self.radius:
            raise ValueError("separation_hyperplane requires a point outside the set")
        return offset / dist

    def project(self, x) -> Vector:
        v = _as_points(x, self.dimension)
        offset = v - self.center
        # the bits of np.linalg.norm, row by row
        dist = np.sqrt(np.vecdot(offset, offset))[..., None]
        # points inside come back unchanged; the others scale by radius / dist
        return np.where(dist <= self.radius, v,
                        self.center + offset * (self.radius / np.maximum(dist, self.radius)))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        n = self.dimension
        g = rng.standard_normal((count, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = self.radius * rng.random(count) ** (1.0 / n)
        return self.center + g * radii[:, None]

    def support_point(self, direction) -> Vector:
        d = _as_vector(direction, self.dimension)
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            return self.center.copy()
        return self.center + self.radius * d / norm

    def extreme_points(self) -> np.ndarray:
        eye = np.eye(self.dimension)
        return np.vstack([self.center + self.radius * eye, self.center - self.radius * eye])


def linear_optimality_gap(feasible_set: FeasibleSet, x, gradient) -> float:
    """Upper bound max_y <g, x - y> on the optimality gap of x from convexity.

    Sound only when ``gradient`` is an exact (sub)gradient at x.
    """
    g = _as_vector(gradient, feasible_set.dimension)
    v = _as_vector(x, feasible_set.dimension)
    worst = feasible_set.support_point(-g)
    return float(g @ (v - worst))
