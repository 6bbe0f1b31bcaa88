"""Convex body representations and elementary affine operations.

Three concrete body types are supported:

* ``Polytope`` -- a vertex list in dimension 2 or 3, sliced exactly.
* ``AnalyticProfile`` -- a body of revolution about the first coordinate
  axis with piecewise-linear concave radius.  Every extremal body lives
  here, as does the Schwarz symmetral of any planar polytope.
* ``NumericProfile`` -- a body of revolution whose section area is only
  available through a callable (e.g. the symmetral of a 3-D polytope,
  whose radius is the square root of a piecewise quadratic).

All bodies are immutable; operations return new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

#: tolerance on the Euclidean norm of a direction vector
UNIT_NORM_TOL = 1e-12
#: consecutive radius slopes may increase by at most this much
CONCAVITY_SLOPE_TOL = 1e-10


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in ``R^d``, via log-Gamma (accurate to ~1e-15)."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got {d}")
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))


def section_ball_volume(dim: int) -> float:
    """Volume of the unit (dim-1)-ball, the cross-section normalizer for profiles."""
    return unit_ball_volume(dim - 1)


@dataclass(frozen=True)
class Direction:
    """A unit vector selecting the slicing axis."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 2:
            raise ValueError("a direction needs at least 2 coordinates")
        norm = math.sqrt(sum(c * c for c in coords))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction must be a unit vector, |v| = {norm!r}")

    @staticmethod
    def from_vector(v: Sequence[float]) -> "Direction":
        """Normalize an arbitrary nonzero vector into a Direction."""
        arr = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Direction(tuple(arr / norm))

    @staticmethod
    def axis(dim: int, sign: int = 1) -> "Direction":
        """The +/- first-coordinate axis in ``R^dim`` (the profile axis)."""
        coords = [0.0] * dim
        coords[0] = 1.0 if sign >= 0 else -1.0
        return Direction(tuple(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def negated(self) -> "Direction":
        return Direction(tuple(-c for c in self.coords))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class Polytope:
    """Full-dimensional convex body given by a vertex list, dim in {2, 3}."""

    dim: int
    vertices: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"polytopes are supported in dimension 2 or 3, got {self.dim}")
        verts = tuple(tuple(float(x) for x in v) for v in self.vertices)
        for v in verts:
            if len(v) != self.dim:
                raise ValueError(f"vertex {v} does not have {self.dim} coordinates")
            if not all(math.isfinite(x) for x in v):
                raise ValueError(f"vertex {v} has a non-finite coordinate")
        object.__setattr__(self, "vertices", verts)

    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)


@dataclass(frozen=True)
class AnalyticProfile:
    """Body of revolution with piecewise-linear radius ``r(t)`` between knots.

    The axis is the first coordinate of ``R^dim``; the section at height t
    is a (dim-1)-ball of radius r(t), so its area is ``omega * r(t)**(dim-1)``.
    All integrals (volume, cut-off volume, first moment) are closed-form.
    """

    dim: int
    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"profile dimension must be >= 2, got {self.dim}")
        knots = tuple((float(t), float(r)) for t, r in self.knots)
        if len(knots) < 2:
            raise ValueError("a profile needs at least two knots")
        if not all(math.isfinite(t) and math.isfinite(r) for t, r in knots):
            raise ValueError("knot heights and radii must be finite")
        ts = [t for t, _ in knots]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("knot heights must be strictly increasing")
        object.__setattr__(self, "knots", knots)

    @property
    def support(self) -> tuple[float, float]:
        return (self.knots[0][0], self.knots[-1][0])

    def heights(self) -> np.ndarray:
        return np.asarray([t for t, _ in self.knots], dtype=float)

    def radii(self) -> np.ndarray:
        return np.asarray([r for _, r in self.knots], dtype=float)

    def radius_at(self, t):
        """Piecewise-linear radius, 0 outside the support.  Accepts arrays."""
        ts, rs = self.heights(), self.radii()
        r = np.interp(t, ts, rs, left=0.0, right=0.0)
        inside = (np.asarray(t) >= ts[0]) & (np.asarray(t) <= ts[-1])
        return np.where(inside, r, 0.0) if np.ndim(t) else (float(r) if inside else 0.0)

    def reflected(self) -> "AnalyticProfile":
        """The profile of the same body viewed along the negated axis."""
        return AnalyticProfile(self.dim, tuple((-t, r) for t, r in reversed(self.knots)))


@dataclass(frozen=True, eq=False)
class NumericProfile:
    """Body of revolution whose section area A(t) is a callable.

    ``area`` must return the (dim-1)-volume of the section at height t,
    zero outside ``support``; it should accept numpy arrays (a scalar-only
    callable is tolerated but slower).  ``breakpoints`` lists heights where
    A may lose smoothness; integration never straddles one.
    """

    dim: int
    support: tuple[float, float]
    area: Callable
    breakpoints: tuple[float, ...]

    def __post_init__(self):
        lo, hi = (float(self.support[0]), float(self.support[1]))
        if not hi > lo:
            raise ValueError(f"empty support interval {self.support}")
        object.__setattr__(self, "support", (lo, hi))
        bps = sorted({lo, hi, *(float(b) for b in self.breakpoints if lo < float(b) < hi)})
        object.__setattr__(self, "breakpoints", tuple(bps))

    def area_at(self, t):
        try:
            out = self.area(np.asarray(t, dtype=float))
        except (TypeError, ValueError):
            out = np.vectorize(self.area, otypes=[float])(t)
        return float(out) if np.ndim(t) == 0 else np.asarray(out, dtype=float)

    def reflected(self) -> "NumericProfile":
        lo, hi = self.support
        area = self.area_at
        return NumericProfile(
            self.dim,
            (-hi, -lo),
            lambda t: area(-np.asarray(t, dtype=float)),
            tuple(-b for b in reversed(self.breakpoints)),
        )


Body = Union[Polytope, AnalyticProfile, NumericProfile]
ProfileBody = (AnalyticProfile, NumericProfile)


@dataclass(frozen=True)
class CutSpec:
    """A slicing direction and the relative height alpha of the cut.

    The cut hyperplane sits at signed height ``alpha * h(-direction)`` once
    the body is centered at its centroid; alpha must lie in (-1, dim).
    """

    direction: Direction
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        n = self.direction.dim
        if not -1.0 < self.alpha < n:
            raise ValueError(f"alpha must lie in (-1, {n}), got {self.alpha}")


def dimension(body: Body) -> int:
    return body.dim


def _axial_shift(body, vector) -> float:
    """Interpret a translation argument for a profile body as a scalar t-shift."""
    if np.ndim(vector) == 0:
        return float(vector)
    vec = np.asarray(vector, dtype=float)
    if vec.shape == (body.dim,):
        if np.any(vec[1:] != 0.0):
            raise ValueError("profile bodies only support axial translation")
        return float(vec[0])
    if vec.shape == (1,):
        return float(vec[0])
    raise ValueError(f"translation vector has wrong shape {vec.shape} for dim {body.dim}")


def translate(body: Body, vector) -> Body:
    """Translate a body.  Profiles accept a scalar axial shift or an axial vector."""
    if isinstance(body, Polytope):
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (body.dim,):
            raise ValueError(f"translation vector must have {body.dim} coordinates")
        return Polytope(body.dim, tuple(tuple(np.asarray(v) + vec) for v in body.vertices))
    if isinstance(body, AnalyticProfile):
        s = _axial_shift(body, vector)
        return AnalyticProfile(body.dim, tuple((t + s, r) for t, r in body.knots))
    if isinstance(body, NumericProfile):
        s = _axial_shift(body, vector)
        lo, hi = body.support
        area = body.area_at
        return NumericProfile(
            body.dim,
            (lo + s, hi + s),
            lambda t: area(np.asarray(t, dtype=float) - s),
            tuple(b + s for b in body.breakpoints),
        )
    raise TypeError(f"not a body: {body!r}")


def dilate(body: Body, factor: float) -> Body:
    """Dilate a body about the origin; volume scales by factor**dim."""
    f = float(factor)
    if f <= 0.0:
        raise ValueError(f"dilation factor must be positive, got {factor}")
    if isinstance(body, Polytope):
        return Polytope(body.dim, tuple(tuple(f * x for x in v) for v in body.vertices))
    if isinstance(body, AnalyticProfile):
        return AnalyticProfile(body.dim, tuple((f * t, f * r) for t, r in body.knots))
    if isinstance(body, NumericProfile):
        lo, hi = body.support
        area = body.area_at
        scale = f ** (body.dim - 1)
        return NumericProfile(
            body.dim,
            (f * lo, f * hi),
            lambda t: scale * area(np.asarray(t, dtype=float) / f),
            tuple(f * b for b in body.breakpoints),
        )
    raise TypeError(f"not a body: {body!r}")


def _validate_polytope(body: Polytope) -> list[str]:
    problems = []
    verts = body.vertex_array()
    if len(verts) < body.dim + 1:
        problems.append(
            f"needs at least {body.dim + 1} vertices in dimension {body.dim}, has {len(verts)}"
        )
    if len(verts) >= 2:
        rank = np.linalg.matrix_rank(verts[1:] - verts[0])
        if rank < body.dim:
            problems.append(
                f"vertices span an affine subspace of dimension {rank} < {body.dim}"
            )
    return problems


def _validate_analytic_profile(body: AnalyticProfile) -> list[str]:
    problems = []
    ts, rs = body.heights(), body.radii()
    for i, r in enumerate(rs):
        if r < 0.0:
            problems.append(f"knot {i} has negative radius {r}")
    for i, r in enumerate(rs[1:-1], start=1):
        if r <= 0.0:
            problems.append(f"interior knot {i} has nonpositive radius {r}")
    slopes = np.diff(rs) / np.diff(ts)
    for i in range(len(slopes) - 1):
        if slopes[i + 1] > slopes[i] + CONCAVITY_SLOPE_TOL:
            problems.append(
                f"radius is not concave at knot {i + 1}: "
                f"slope rises from {float(slopes[i])!r} to {float(slopes[i + 1])!r}"
            )
    if np.all(rs == 0.0):
        problems.append("profile has zero volume (all radii vanish)")
    return problems


def _validate_numeric_profile(body: NumericProfile) -> list[str]:
    problems = []
    lo, hi = body.support
    grid = np.linspace(lo, hi, 65)
    a = body.area_at(grid)
    if np.any(a < 0.0):
        problems.append("section area is negative somewhere on the support")
    width = hi - lo
    for t in (lo - 0.01 * width, hi + 0.01 * width):
        if abs(body.area_at(t)) > 0.0:
            problems.append(f"section area does not vanish outside the support (t={t})")
    # midpoint concavity of A^{1/(dim-1)} on the grid
    root = np.maximum(a, 0.0) ** (1.0 / (body.dim - 1))
    gap = 0.5 * (root[:-2] + root[2:]) - root[1:-1]
    worst = float(gap.max()) if len(gap) else 0.0
    scale = max(float(root.max()), 1.0)
    if worst > 1e-9 * scale:
        problems.append(f"A^(1/(dim-1)) is not concave on the support (violation {worst:.3e})")
    return problems


def validate(body: Body) -> list[str]:
    """Diagnostics, one string per violated invariant; empty when valid."""
    if isinstance(body, Polytope):
        return _validate_polytope(body)
    if isinstance(body, AnalyticProfile):
        return _validate_analytic_profile(body)
    if isinstance(body, NumericProfile):
        return _validate_numeric_profile(body)
    raise TypeError(f"not a body: {body!r}")
