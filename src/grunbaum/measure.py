"""Measurement functionals on convex bodies.

Everything here is exact up to floating point:

* profiles integrate ``(linear radius)**(n-1)`` in closed form via its
  Bernstein expansion, whose terms are all nonnegative, so nothing cancels
  for any slope or dimension;
* polytopes are sliced edge-by-edge, and the section area between two
  consecutive vertex heights is a polynomial of degree <= dim-1, which a
  three-point fit recovers exactly.  The fitted slab table is a
  ``SlabProfile``: the polytope's Schwarz symmetral along that direction,
  whose closed-form slab integrals answer every query about the polytope.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull

from .bodies import (
    AnalyticProfile,
    Body,
    Direction,
    Polytope,
    SlabProfile,
    section_ball_volume,
)

_DEDUPE_REL = 1e-12
_AXIS_TOL = 1e-9


class DegenerateBodyError(ValueError):
    """Raised when a body has no interior (zero volume, flat hull, ...)."""


@dataclass(frozen=True, eq=False)
class SectionCurve:
    """The parallel section function A(t) of a body along a direction."""

    dim: int
    support: tuple[float, float]
    evaluate: Callable
    breakpoints: tuple[float, ...]

    def __call__(self, t):
        return self.evaluate(t)


# ---------------------------------------------------------------------------
# closed-form integrals of a linear radius raised to a power


def _lin_pow_integrals(r0, r1, h, n: int):
    """Integrals of ``r**(n-1)`` and ``u * r**(n-1)`` for u in [0, h], where
    ``r = r0 + (r1-r0)*u/h``.

    In the Bernstein basis every term ``r0**(n-1-k) * r1**k`` is >= 0 when
    r0, r1 >= 0, so the sums lose nothing to cancellation:
    ``h * sum_k r0**(n-1-k) r1**k / n`` and
    ``h**2 * sum_k (k+1) r0**(n-1-k) r1**k / (n(n+1))``.  The loop runs on
    floats and numpy arrays alike.
    """
    i0 = i1 = 0.0
    r1_k = 1.0
    for k in range(n):
        i0 = i0 * r0 + r1_k
        i1 = i1 * r0 + (k + 1) * r1_k
        r1_k = r1_k * r1
    return h * i0 / n, h * h * i1 / (n * (n + 1))


# ---------------------------------------------------------------------------
# profile bodies


def _axis_sign(direction: Direction, dim: int) -> float:
    """Profiles only support slicing along +/- their axis of revolution."""
    if direction.dim != dim:
        raise ValueError(f"direction has dimension {direction.dim}, body has {dim}")
    coords = direction.as_array()
    if np.max(np.abs(coords[1:])) > _AXIS_TOL:
        raise ValueError(
            "profile bodies only support the +/- axis direction, got "
            f"{tuple(coords)}"
        )
    return 1.0 if coords[0] > 0 else -1.0


def _oriented_profile(body: Body, direction: Direction):
    """The section table of the body along the direction: a polytope's
    slabs, or a profile viewed along +/- its axis."""
    if isinstance(body, Polytope):
        return _poly_slabs(body, tuple(direction.as_array()))
    return body if _axis_sign(direction, body.dim) > 0 else body.reflected()


def _profile_volume(body: AnalyticProfile) -> float:
    return _profile_cut_volume(body, -math.inf)


def _profile_cut_volume(body: AnalyticProfile, t: float) -> float:
    """Volume of the part of the profile at heights >= t (axis orientation)."""
    knots = body.knots
    total = 0.0
    for (a, r0), (b, r1) in zip(knots, knots[1:]):
        if b <= t:
            continue
        if a < t:
            r0 += (r1 - r0) * (t - a) / (b - a)
            a = t
        total += _lin_pow_integrals(r0, r1, b - a, body.dim)[0]
    return section_ball_volume(body.dim) * total


def _profile_moment(body: AnalyticProfile) -> float:
    """Integral of t * A(t), used for the axial centroid coordinate."""
    knots = body.knots
    total = 0.0
    for (a, r0), (b, r1) in zip(knots, knots[1:]):
        i0, i1 = _lin_pow_integrals(r0, r1, b - a, body.dim)
        total += a * i0 + i1
    return section_ball_volume(body.dim) * total


def _profile_max_section(body: AnalyticProfile) -> tuple[float, float]:
    """Leftmost maximizer of A; for a concave piecewise-linear radius the
    maximum is attained at a knot."""
    ts, rs = body.heights(), body.radii()
    rmax = float(rs.max())
    thresh = rmax - 1e-13 * max(rmax, 1.0)
    idx = int(np.argmax(rs >= thresh))
    omega = section_ball_volume(body.dim)
    return float(ts[idx]), omega * float(rs[idx]) ** (body.dim - 1)


# ---------------------------------------------------------------------------
# polytopes: hull combinatorics and exact slicing


@lru_cache(maxsize=512)
def _hull_data(body: Polytope):
    pts = body.vertex_array()
    try:
        hull = ConvexHull(pts)
    except Exception as exc:  # scipy.spatial.QhullError on flat input
        raise DegenerateBodyError(f"degenerate polytope: {exc}") from exc
    if body.dim == 2:
        cycle = hull.vertices  # counterclockwise
        edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
    else:
        seen = set()
        edges = []
        for simplex in hull.simplices:
            for i in range(3):
                e = tuple(sorted((simplex[i], simplex[(i + 1) % 3])))
                if e not in seen:
                    seen.add(e)
                    edges.append(e)
    inner = pts[hull.vertices].mean(axis=0)
    vol = 0.0
    cent = np.zeros(body.dim)
    if body.dim == 2:
        cyc = pts[hull.vertices]
        for i in range(len(cyc)):
            a, b = cyc[i] - inner, cyc[(i + 1) % len(cyc)] - inner
            w = abs(a[0] * b[1] - a[1] * b[0]) / 2.0
            vol += w
            cent += w * (inner + cyc[i] + cyc[(i + 1) % len(cyc)]) / 3.0
    else:
        for simplex in hull.simplices:
            a, b, c = (pts[j] - inner for j in simplex)
            w = abs(np.linalg.det(np.stack([a, b, c]))) / 6.0
            vol += w
            cent += w * (inner + pts[simplex[0]] + pts[simplex[1]] + pts[simplex[2]]) / 4.0
    if vol <= 0.0:
        raise DegenerateBodyError("polytope has zero volume")
    return pts, tuple(edges), hull.equations, vol, cent / vol


def _plane_basis(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal vectors spanning the plane orthogonal to xi in R^3."""
    pivot = np.zeros(3)
    pivot[int(np.argmin(np.abs(xi)))] = 1.0
    u = np.cross(xi, pivot)
    u /= np.linalg.norm(u)
    v = np.cross(xi, u)
    return u, v


def _slice_points(pts, edges, heights, t, tol):
    """All intersection points of hull edges with the level set height == t."""
    out = []
    for i, j in edges:
        ha, hb = heights[i], heights[j]
        if abs(ha - t) <= tol and abs(hb - t) <= tol:
            out.append(pts[i])
            out.append(pts[j])
        elif (ha - t) * (hb - t) <= 0.0 and ha != hb:
            s = (t - ha) / (hb - ha)
            out.append(pts[i] + s * (pts[j] - pts[i]))
    return out


def _poly_section_area(body: Polytope, xi: np.ndarray, t: float) -> float:
    pts, edges, _, _, _ = _hull_data(body)
    heights = pts @ xi
    span = float(heights.max() - heights.min())
    cut = _slice_points(pts, edges, heights, t, 1e-14 * max(span, 1.0))
    if len(cut) < 2:
        return 0.0
    cut = np.asarray(cut)
    if body.dim == 2:
        # chord length: spread of the intersection points across the line
        perp = np.array([-xi[1], xi[0]])
        proj = cut @ perp
        return float(proj.max() - proj.min())
    u, v = _plane_basis(xi)
    xy = np.stack([cut @ u, cut @ v], axis=1)
    center = xy.mean(axis=0)
    order = np.argsort(np.arctan2(xy[:, 1] - center[1], xy[:, 0] - center[0]))
    xy = xy[order]
    x, y = xy[:, 0], xy[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    return abs(float(area))


@lru_cache(maxsize=512)
def _poly_slabs(body: Polytope, xi_coords: tuple[float, ...]) -> SlabProfile:
    """Exact piecewise polynomial model of A(t) for a polytope along xi.

    On each slab between consecutive vertex heights the section area is a
    polynomial of degree <= dim-1; three interior samples pin it down as
    ``s0 + s1*x + s2*x**2`` around the slab center.
    """
    xi = np.asarray(xi_coords)
    pts, _, _, _, _ = _hull_data(body)
    heights = np.sort(pts @ xi)
    span = float(heights[-1] - heights[0])
    if span <= 0.0:
        raise DegenerateBodyError("polytope is flat along the slicing direction")
    keep = [heights[0]]
    for h in heights[1:]:
        if h - keep[-1] > _DEDUPE_REL * span:
            keep.append(h)
    edges = np.asarray(keep)
    lo, hi = edges[:-1], edges[1:]
    tc = 0.5 * (lo + hi)
    delta = 0.25 * (hi - lo)
    a1 = np.array([_poly_section_area(body, xi, t) for t in tc - delta])
    a2 = np.array([_poly_section_area(body, xi, t) for t in tc])
    a3 = np.array([_poly_section_area(body, xi, t) for t in tc + delta])
    s1 = (a3 - a1) / (2.0 * delta)
    s2 = (a1 - 2.0 * a2 + a3) / (2.0 * delta * delta)
    return SlabProfile(body.dim, edges, a2, s1, s2)


# ---------------------------------------------------------------------------
# public API


def section_curve(body: Body, direction: Direction) -> SectionCurve:
    """The parallel section function of the body along the direction."""
    if isinstance(body, Polytope) and direction.dim != body.dim:
        raise ValueError("direction and body dimensions differ")
    prof = _oriented_profile(body, direction)
    if isinstance(prof, AnalyticProfile):
        omega = section_ball_volume(prof.dim)
        n = prof.dim

        def evaluate(t, _p=prof, _o=omega, _n=n):
            return _o * _p.radius_at(t) ** (_n - 1)

        return SectionCurve(prof.dim, prof.support, evaluate, tuple(prof.heights()))
    return SectionCurve(prof.dim, prof.support, prof.area_at, prof.edges)


def support(body: Body, direction: Direction) -> float:
    """Support function h(direction): the signed extent of the body."""
    if isinstance(body, Polytope):
        pts, _, _, _, _ = _hull_data(body)
        return float(np.max(pts @ direction.as_array()))
    sign = _axis_sign(direction, body.dim)
    lo, hi = body.support
    return float(hi) if sign > 0 else float(-lo)


def section_area(body: Body, direction: Direction, t: float) -> float:
    """(dim-1)-volume of the slice at signed height t along the direction."""
    prof = _oriented_profile(body, direction)
    if isinstance(prof, AnalyticProfile):
        return section_ball_volume(prof.dim) * float(prof.radius_at(float(t))) ** (
            prof.dim - 1
        )
    return float(prof.area_at(float(t)))


def cut_volume(body: Body, direction: Direction, t: float) -> float:
    """Volume of the part of the body at heights >= t along the direction."""
    prof = _oriented_profile(body, direction)
    if isinstance(prof, AnalyticProfile):
        return _profile_cut_volume(prof, float(t))
    return prof.cut_volume(float(t))


def volume(body: Body) -> float:
    """The volume; a body whose volume is not a normal positive float (below
    ``sys.float_info.min``, where ratios lose their digits) is degenerate."""
    if isinstance(body, Polytope):
        vol = _hull_data(body)[3]
    elif isinstance(body, AnalyticProfile):
        vol = _profile_volume(body)
    else:
        vol = body.volume()
    if not vol >= sys.float_info.min:
        raise DegenerateBodyError(f"body volume {vol} is not a normal positive float")
    return vol


def centroid(body: Body) -> tuple[float, ...]:
    """The mass center; for profile bodies it lies on the axis of revolution."""
    if isinstance(body, Polytope):
        return tuple(float(c) for c in _hull_data(body)[4])
    axis_coord = centroid_coordinate(body, Direction.axis(body.dim))
    return (axis_coord,) + (0.0,) * (body.dim - 1)


def centroid_coordinate(body: Body, direction: Direction) -> float:
    """The component of the centroid along the direction."""
    if isinstance(body, Polytope):
        return float(np.dot(_hull_data(body)[4], direction.as_array()))
    prof = _oriented_profile(body, direction)
    moment = _profile_moment(prof) if isinstance(prof, AnalyticProfile) else prof.moment()
    return moment / volume(prof)


def max_section(body: Body, direction: Direction) -> tuple[float, float]:
    """Leftmost maximizer t0 of A(t) and the maximal section area A(t0)."""
    prof = _oriented_profile(body, direction)
    if isinstance(prof, AnalyticProfile):
        return _profile_max_section(prof)
    return prof.max_section()


def schwarz_symmetral(body: Body, direction: Direction):
    """Round the body into a body of revolution with the same sections.

    Profiles are their own symmetrals.  A polytope's symmetral is its slab
    table: an AnalyticProfile in the plane, where chord lengths and hence
    radii are piecewise linear, and a SlabProfile in 3-D.
    """
    slabs = _oriented_profile(body, direction)
    if isinstance(body, Polytope) and body.dim == 2:
        omega = section_ball_volume(2)
        knots = [(t, slabs.area_at(t) / omega) for t in slabs.edges]
        return AnalyticProfile(2, tuple(knots))
    return slabs
