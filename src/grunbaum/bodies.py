"""Convex body representations and elementary affine operations.

Three concrete body types are supported:

* ``Polytope`` -- a vertex list in dimension 2 or 3, measured exactly.
* ``AnalyticProfile`` -- a body of revolution about the first coordinate
  axis with piecewise-linear concave radius.  Every extremal body lives
  here, as does the Schwarz symmetral of any planar polytope.
* ``SlabProfile`` -- a body of revolution whose section area is piecewise
  quadratic, stored per slab as Bernstein coefficients with closed-form
  integrals: the Schwarz symmetral of a 3-D polytope, and the table
  ``measure`` reads every polytope through along a direction.

Profiles exist for 2 <= dim <= ``MAX_PROFILE_DIM``; beyond it the ball
volume that scales their sections is no longer a normal float.

All bodies are immutable; operations return new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

#: tolerance on the Euclidean norm of a direction vector
UNIT_NORM_TOL = 1e-12
#: the largest scaled concavity violation ``validate`` accepts; also the
#: default tolerance of ``verify.check_concavity``
CONCAVITY_TOL = 1e-9
#: ``max_section`` returns the leftmost height whose section is within
#: this fraction of the largest
_LEFTMOST_REL = 1e-13
#: largest profile dimension: from dim 437 on, the unit (dim-1)-ball volume
#: that scales every section is below ``sys.float_info.min``
MAX_PROFILE_DIM = 436


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in ``R^d``, via log-Gamma (accurate to ~1e-15)."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got {d}")
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))


def section_ball_volume(dim: int) -> float:
    """Volume of the unit (dim-1)-ball, the cross-section normalizer for profiles."""
    return unit_ball_volume(dim - 1)


def _check_profile_dim(dim: int) -> None:
    # an integer comparison, so that a huge dim never reaches float math
    if not 2 <= dim <= MAX_PROFILE_DIM:
        raise ValueError(f"profile dimension must lie in [2, {MAX_PROFILE_DIM}], got {dim}")


def _lin_pow_integrals(r0, r1, h, n: int):
    """Integrals of ``r**(n-1)`` and ``u * r**(n-1)`` for u in [0, h], where
    ``r = r0 + (r1-r0)*u/h``.

    In the Bernstein basis every term ``r0**(n-1-k) * r1**k`` is >= 0 when
    r0, r1 >= 0, so the sums lose nothing to cancellation:
    ``h * sum_k r0**(n-1-k) r1**k / n`` and
    ``h**2 * sum_k (k+1) r0**(n-1-k) r1**k / (n(n+1))``.  The loop runs on
    floats and numpy arrays alike.  ``h * (h * i1)``: a thin slab's ``h * h``
    alone can underflow while the moment is a normal float.
    """
    i0 = i1 = 0.0
    r1_k = 1.0
    for k in range(n):
        i0 = i0 * r0 + r1_k
        i1 = i1 * r0 + (k + 1) * r1_k
        r1_k = r1_k * r1
    return h * i0 / n, h * (h * i1) / (n * (n + 1))


def _bernstein(b0, b1, b2, u):
    """``b0*(1-u)**2 + 2*b1*u*(1-u) + b2*u**2`` on floats and numpy arrays
    alike: with b0, b1, b2 >= 0 no term cancels."""
    v = 1.0 - u
    return v * (b0 * v + 2.0 * b1 * u) + b2 * (u * u)


def _peak(b0, b1, b2) -> float:
    """The u in (0, 1] where ``_bernstein(b0, b1, b2, u)`` is largest right
    of u = 0: its vertex when b1 exceeds both ends, else the right end."""
    if b1 > b0 and b1 > b2:
        return (b1 - b0) / ((b1 - b0) + (b1 - b2))
    return 1.0


@dataclass(frozen=True)
class Direction:
    """A unit vector selecting the slicing axis."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 2:
            raise ValueError("a direction needs at least 2 coordinates")
        if not all(math.isfinite(c) for c in coords):
            raise ValueError("direction coordinates must be finite")
        norm = math.sqrt(sum(c * c for c in coords))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction must be a unit vector, |v| = {norm!r}")

    @staticmethod
    def from_vector(v: Sequence[float]) -> "Direction":
        """Normalize an arbitrary finite nonzero vector into a Direction.
        Dividing by the largest absolute coordinate first keeps the squared
        norm in the float range."""
        arr = np.asarray(v, dtype=float)
        scale = float(np.max(np.abs(arr), initial=0.0))
        if not 0.0 < scale < math.inf:
            raise ValueError(f"cannot normalize a vector whose largest |coordinate| is {scale}")
        arr = arr / scale
        return Direction(tuple(arr / np.linalg.norm(arr)))

    @staticmethod
    def axis(dim: int) -> "Direction":
        """The first-coordinate axis in ``R^dim`` (the profile axis)."""
        return Direction((1.0,) + (0.0,) * (dim - 1))

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
    All integrals (volume, cut-off volume, first moment) are closed-form, and
    the queries are those of ``SlabProfile``.
    """

    dim: int
    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        _check_profile_dim(self.dim)
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

    def area_at(self, t):
        """Section area ``omega * r(t)**(dim-1)``, 0 outside the support.
        Accepts arrays."""
        return section_ball_volume(self.dim) * self.radius_at(t) ** (self.dim - 1)

    def volume(self) -> float:
        return self.cut_volume(-math.inf)

    def moment(self) -> float:
        """Integral of t * A(t), used for the axial centroid coordinate."""
        total = 0.0
        for (a, r0), (b, r1) in zip(self.knots, self.knots[1:]):
            i0, i1 = _lin_pow_integrals(r0, r1, b - a, self.dim)
            total += a * i0 + i1
        return section_ball_volume(self.dim) * total

    def cut_volume(self, t: float) -> float:
        """Volume of the part at heights >= t."""
        total = 0.0
        for (a, r0), (b, r1) in zip(self.knots, self.knots[1:]):
            if b <= t:
                continue
            if a < t:
                r0 += (r1 - r0) * (t - a) / (b - a)
                a = t
            total += _lin_pow_integrals(r0, r1, b - a, self.dim)[0]
        return section_ball_volume(self.dim) * total

    def max_section(self) -> tuple[float, float]:
        """Leftmost maximizer of A and the maximal area.  For a concave
        piecewise-linear radius the maximum is attained at a knot: the
        leftmost knot whose radius is within ``_LEFTMOST_REL`` (relative)
        of the largest."""
        ts, rs = self.heights(), self.radii()
        rmax = float(rs.max())
        idx = int(np.argmax(rs >= rmax - _LEFTMOST_REL * rmax))
        return float(ts[idx]), section_ball_volume(self.dim) * rmax ** (self.dim - 1)

    def reflected(self) -> "AnalyticProfile":
        """The profile of the same body viewed along the negated axis."""
        return AnalyticProfile(self.dim, tuple((-t, r) for t, r in reversed(self.knots)))


@dataclass(frozen=True)
class SlabProfile:
    """Body of revolution whose section area A(t) is piecewise quadratic.

    On slab i, between ``edges[i]`` and ``edges[i+1]``, the area is the
    Bernstein polynomial ``b0[i]*(1-u)**2 + 2*b1[i]*u*(1-u) + b2[i]*u**2`` in
    ``u = (t - edges[i]) / (edges[i+1] - edges[i])``: b0 and b2 are the areas
    at the slab's ends.  On a convex body every coefficient is >= 0, so the
    integrals below are sums of nonnegative terms; ``validate`` decides from
    the coefficients, exactly, that A >= 0, does not jump, and has
    A^(1/(n-1)) concave.  This is the exact Schwarz symmetral of a polytope
    (``measure`` builds the table from the hull's facets).  Construction
    drops slabs of zero width, which hold no volume, and keeps numpy copies
    of the table and the cumulative slab integrals (``_tails``, the volume
    above each edge), so queries convert nothing.
    """

    dim: int
    edges: tuple[float, ...]
    b0: tuple[float, ...]
    b1: tuple[float, ...]
    b2: tuple[float, ...]

    def __post_init__(self):
        _check_profile_dim(self.dim)
        cols = [np.asarray([float(x) for x in c]) for c in (self.edges, self.b0, self.b1, self.b2)]
        edges, b0, b1, b2 = cols
        if len(edges) < 2 or not len(b0) == len(b1) == len(b2) == len(edges) - 1:
            raise ValueError("a slab profile needs k+1 edges and k coefficients of each order")
        if not all(np.all(np.isfinite(c)) for c in cols):
            raise ValueError("slab edges and coefficients must be finite")
        width = np.diff(edges)
        if np.any(width < 0.0):
            raise ValueError("slab edges must be nondecreasing")
        keep = width > 0.0
        if not keep.any():
            raise ValueError("a slab profile needs a slab of positive width")
        edges = np.append(edges[:-1][keep], edges[-1])
        b0, b1, b2, width = b0[keep], b1[keep], b2[keep], width[keep]
        for name, col in zip(("edges", "b0", "b1", "b2"), (edges, b0, b1, b2)):
            object.__setattr__(self, name, tuple(col.tolist()))
        full = width * (b0 + b1 + b2) / 3.0
        first = width * (width * (b0 + 2.0 * b1 + 3.0 * b2)) / 12.0
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_b", (b0, b1, b2))
        object.__setattr__(self, "_tails", np.concatenate([np.cumsum(full[::-1])[::-1], [0.0]]))
        object.__setattr__(self, "_moment", float((edges[:-1] * full + first).sum()))

    @property
    def support(self) -> tuple[float, float]:
        return (self.edges[0], self.edges[-1])

    def area_at(self, t):
        """Section area at height t, 0 outside the support.  Accepts arrays."""
        t = np.asarray(t, dtype=float)
        b0, b1, b2 = self._b
        i = np.clip(np.searchsorted(self._edges, t, side="right") - 1, 0, len(b0) - 1)
        area = _bernstein(b0[i], b1[i], b2[i], (t - self._edges[i]) / self._width[i])
        inside = (t >= self._edges[0]) & (t <= self._edges[-1])
        out = np.where(inside, np.maximum(area, 0.0), 0.0)
        return float(out) if out.ndim == 0 else out

    def volume(self) -> float:
        return float(self._tails[0])

    def moment(self) -> float:
        """Integral of t * A(t), used for the axial centroid coordinate."""
        return self._moment

    def cut_volume(self, t: float) -> float:
        """Volume of the part at heights >= t: the tail integral inside the
        slab holding t plus the cumulative integral of the slabs above."""
        lo, hi = self.support
        if t <= lo:
            return self.volume()
        if t >= hi:
            return 0.0
        i = min(int(np.searchsorted(self._edges, t, side="right")) - 1, len(self.b0) - 1)
        b0, b1, b2, w = self.b0[i], self.b1[i], self.b2[i], float(self._width[i])
        u = (t - self.edges[i]) / w
        v = 1.0 - u
        # the antiderivative's cubic Bernstein coefficients are suffix sums
        tail = w * v * (v * (v * (b0 + b1 + b2) + 3.0 * u * (b1 + b2)) + 3.0 * u * u * b2) / 3.0
        return max(tail + float(self._tails[i + 1]), 0.0)

    def max_section(self) -> tuple[float, float]:
        """Leftmost maximizer of A and the maximal area: the best slab end or
        vertex of a slab, then bisection down to the leftmost height within
        ``_LEFTMOST_REL`` (relative) of it.  All in Python floats, on each
        slab's own polynomial."""
        edges, width = self.edges, self._width.tolist()
        slabs = list(zip(self.b0, self.b1, self.b2))
        peaks = [_peak(*b) for b in slabs]
        best = max([0.0] + [max(b[0], _bernstein(*b, u)) for b, u in zip(slabs, peaks)])
        thresh = best - _LEFTMOST_REL * best
        for i, ((b0, b1, b2), u) in enumerate(zip(slabs, peaks)):
            lo, w = edges[i], width[i]

            def area(t):
                return _bernstein(b0, b1, b2, (t - lo) / w)

            if b0 >= thresh:
                return lo, best
            top = edges[i + 1] if u == 1.0 else lo + u * w
            if area(top) >= thresh:
                a, b = lo, top
                for _ in range(80):
                    mid = 0.5 * (a + b)
                    if area(mid) >= thresh:
                        b = mid
                    else:
                        a = mid
                return b, best
        return edges[0], best  # constant area

    def reflected(self) -> "SlabProfile":
        """The profile of the same body viewed along the negated axis."""
        return SlabProfile(
            self.dim,
            tuple(-e for e in reversed(self.edges)),
            self.b2[::-1],
            self.b1[::-1],
            self.b0[::-1],
        )


Body = Union[Polytope, AnalyticProfile, SlabProfile]


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
        knots = {}
        for t, r in body.knots:  # knots ulps apart may round onto one height:
            knots[t + s] = max(r, knots.get(t + s, r))  # keep the wider section
        return AnalyticProfile(body.dim, tuple(knots.items()))
    if isinstance(body, SlabProfile):
        s = _axial_shift(body, vector)
        return SlabProfile(body.dim, tuple(e + s for e in body.edges), body.b0, body.b1, body.b2)
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
    if isinstance(body, SlabProfile):
        # A_f(t) = f**(n-1) * A(t/f), and u is the same within each slab
        scale = f ** (body.dim - 1)
        scaled = (tuple(scale * c for c in col) for col in (body.b0, body.b1, body.b2))
        return SlabProfile(body.dim, tuple(f * e for e in body.edges), *scaled)
    raise TypeError(f"not a body: {body!r}")


def _validate_polytope(body: Polytope) -> list[str]:
    problems, verts, n = [], body.vertex_array(), body.dim
    if len(verts) < n + 1:
        problems.append(f"needs at least {n + 1} vertices in dimension {n}, has {len(verts)}")
    rank = np.linalg.matrix_rank(verts[1:] - verts[0]) if len(verts) >= 2 else n
    if rank < n:
        problems.append(f"vertices span an affine subspace of dimension {rank} < {n}")
    return problems


# ---------------------------------------------------------------------------
# Brunn's principle, decided from a section table's own coefficients

#: de Casteljau's rule at u = 1/2: the Bernstein coefficients of a quartic's left half
_HALF = np.array([[math.comb(i, j) / 2.0**i for j in range(5)] for i in range(5)])


def _bernstein_min(q0, q1, q2):
    """Least value of ``_bernstein(q0, q1, q2, u)`` over u in [0, 1], per slab."""
    dip = (q1 < q0) & (q1 < q2)
    d = np.where(dip, (q0 - q1) + (q2 - q1), 1.0)
    return np.where(dip, q0 - (q0 - q1) ** 2 / d, np.minimum(q0, q2))


def _certified_min(rows: np.ndarray, floor: float) -> float:
    """A lower bound on the least value over [0, 1] of the quartics with
    Bernstein coefficients ``rows`` (each is at least its smallest one), or
    a value below ``floor`` one takes at an end of a piece: rows with a
    coefficient below ``floor`` are halved until every piece clears it."""
    least = math.inf
    for _ in range(40):  # then the bound stands as it is
        low = rows.min(axis=1) < floor
        least = min(least, float(rows[~low].min(initial=math.inf)))
        rows = rows[low]
        if not len(rows) or rows[:, [0, -1]].min() < floor:
            return float(rows[:, [0, -1]].min(initial=least))
        rows = np.concatenate([rows @ _HALF.T, (rows[:, ::-1] @ _HALF.T)[:, ::-1]])
    return float(rows.min())


def _profile_concavity(body: AnalyticProfile, which: str) -> dict:
    ts, rs = body.heights(), body.radii()
    rmax = float(rs.max())
    if not rmax > 0.0:
        return {}
    slopes = np.diff(rs) / np.diff(ts)
    if which == "A":
        rises = np.diff(slopes) * (ts[-1] - ts[0]) / rmax
        return {f"radius is not concave at knot {i + 1}": float(x) for i, x in enumerate(rises)}
    excess, n = [], body.dim
    for i in np.flatnonzero(slopes < 0.0).tolist():
        rb = rs[i + 1]
        if rb > 0.0:  # V(b) / (omega r_b^n) from the radii after b over r_b: nothing underflows
            r0, r1, h = rs[i + 1 : -1] / rb, rs[i + 2 :] / rb, np.diff(ts[i + 1 :]) / rb
            tail = float(np.sum(_lin_pow_integrals(r0, r1, h, n)[0]))
            excess.append(-float(slopes[i]) * n * tail - 1.0)
        elif rs[i + 1 :].any():
            excess.append(math.inf)
    return {"V^(1/dim) is not concave": max(excess, default=0.0)}


def _slab_concavity(body: SlabProfile, which: str, tol: float) -> dict:
    bmax = float(np.abs(body._b).max())
    if not bmax > 0.0:
        return {}
    b0, b1, b2 = (b / bmax for b in body._b)  # nothing below squares an area
    w = body._width
    drop = b2[:-1] - b0[1:]  # the fall of A across each inner edge
    a0, a1 = b1 - b0, b2 - b1  # A' / 2 in u at the slab's ends
    if which == "A":
        k, c = 2.0 - 2.0 / (body.dim - 1), a1 - a0
        q = _bernstein_min(k * a0 * a0 - c * b0, k * a0 * a1 - c * b1, k * a1 * a1 - c * b2)
        kink = (a0[1:] * w[:-1] - a1[:-1] * w[1:]) / (w[:-1] + w[1:])
        return {
            "section area is negative": -float(_bernstein_min(b0, b1, b2).min()),
            "section area jumps at an inner edge": float(np.abs(drop).max(initial=0.0)),
            "A^(1/(dim-1)) is not concave inside a slab": -float(q.min()),
            "A^(1/(dim-1)) is not concave at an inner edge": float(kink.max(initial=0.0)),
        }
    # G / (n V_total b_max), V's coefficients being the tail above plus suffix sums of A's
    n, vol = body.dim, float(body._tails[0])
    top, c = body._tails[1:] / vol, w * (bmax / vol)
    v0, v1, v2 = top + c * (b0 + b1 + b2) / 3.0, top + c * (b1 + b2) / 3.0, top + c * b2 / 3.0
    g = (n - 1) / n * c * np.array([b0 * b0, b0 * b1, (b0 * b2 + 2 * b1**2) / 3, b1 * b2, b2 * b2])
    g += np.array(
        [2.0 * v0 * a0, (3.0 * v1 * a0 + v0 * a1) / 2.0, v2 * a0 + v1 * a1,
         (top * a0 + 3.0 * v2 * a1) / 2.0, 2.0 * top * a1]
    )  # fmt: skip
    return {
        "V^(1/dim) is not concave inside a slab": -_certified_min(g.T, -tol),
        "V^(1/dim) is not concave at an inner edge": float((top[:-1] * drop).max(initial=0.0)),
    }


def concavity_violations(table, which: str = "A", tol: float = CONCAVITY_TOL) -> dict:
    """Brunn's principle on a section table, decided exactly: each
    invariant that A^(1/(n-1)) (which="A") or V^(1/n) (which="V", V(t) the
    volume above t) be concave rests on, with its worst violation (<= 0
    where it holds).  ``verify.check_concavity`` lists the forms and their
    scale-free units; none divides by a slab's width.  Only the quartic of
    a slab table's V form is searched, to within ``tol``."""
    if which not in ("A", "V"):
        raise ValueError(f"which must be 'A' or 'V', got {which!r}")
    if isinstance(table, AnalyticProfile):
        return _profile_concavity(table, which)
    if isinstance(table, SlabProfile):
        return _slab_concavity(table, which, tol)
    raise TypeError(f"not a profile or slab table: {table!r}")


def _validate_radii(body: AnalyticProfile) -> list[str]:
    rs = body.radii()
    problems = [f"knot {i} has negative radius {r}" for i, r in enumerate(rs) if r < 0.0]
    inner = enumerate(rs[1:-1], start=1)
    problems += [f"interior knot {i} has nonpositive radius {r}" for i, r in inner if r <= 0.0]
    if np.all(rs == 0.0):
        problems.append("profile has zero volume (all radii vanish)")
    return problems


def validate(body: Body) -> list[str]:
    """Diagnostics, one string per violated invariant; empty when valid.
    A profile or slab table must have A^(1/(n-1)) concave (and, for a
    slab table, A >= 0 without jumps): ``concavity_violations`` with "A",
    each invariant held to ``CONCAVITY_TOL``."""
    if isinstance(body, Polytope):
        return _validate_polytope(body)
    problems = _validate_radii(body) if isinstance(body, AnalyticProfile) else []
    violations = concavity_violations(body, "A").items()  # TypeError if not a body
    return problems + [
        f"{what} (scaled violation {v:.3e})" for what, v in violations if v > CONCAVITY_TOL
    ]
