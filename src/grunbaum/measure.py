"""Measurement functionals on convex bodies.

Along a direction every body is read through one section table
(``section_table``), a body of revolution that answers ``area_at``,
``cut_volume``, ``volume``, ``moment`` and ``max_section``:

* a profile is its own table, viewed along +/- its axis; it integrates
  ``(linear radius)**(n-1)`` in closed form via the Bernstein expansion,
  whose terms are all nonnegative, so nothing cancels for any slope or
  dimension;
* a polytope is sliced edge-by-edge, and the section area between two
  consecutive vertex heights is a polynomial of degree <= dim-1, which a
  three-point fit recovers exactly.  The fitted slab table is a
  ``SlabProfile``: the polytope's Schwarz symmetral along that direction.

Everything here is exact up to floating point.  A polytope's volume,
centroid and support come from its hull; all else is one call on a table.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .bodies import AnalyticProfile, Body, Direction, Polytope, SlabProfile, section_ball_volume

_DEDUPE_REL = 1e-12
_AXIS_TOL = 1e-9


class DegenerateBodyError(ValueError):
    """Raised when a body has no interior (zero volume, flat hull, ...)."""


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
            f"{direction.coords}"
        )
    return 1.0 if coords[0] > 0 else -1.0


# ---------------------------------------------------------------------------
# polytopes: hull combinatorics and exact slicing


@lru_cache(maxsize=512)
def _hull_data(body: Polytope):
    from scipy.spatial import ConvexHull  # imported only where a hull is built

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


def section_table(body: Body, direction: Direction):
    """The body seen along the direction as a body of revolution: a
    polytope's slab table (a ``SlabProfile``), or a profile viewed along +/-
    its axis.  Every section and cut query is one call on it."""
    if isinstance(body, Polytope):
        if direction.dim != body.dim:
            raise ValueError("direction and body dimensions differ")
        return _poly_slabs(body, direction.coords)
    return body if _axis_sign(direction, body.dim) > 0 else body.reflected()


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
    return float(section_table(body, direction).area_at(float(t)))


def cut_volume(body: Body, direction: Direction, t: float) -> float:
    """Volume of the part of the body at heights >= t along the direction."""
    return section_table(body, direction).cut_volume(float(t))


def volume(body: Body) -> float:
    """The volume; a body whose volume is not a finite normal float (below
    ``sys.float_info.min``, where ratios lose their digits, or overflowed)
    is degenerate."""
    vol = _hull_data(body)[3] if isinstance(body, Polytope) else body.volume()
    if not sys.float_info.min <= vol < math.inf:
        raise DegenerateBodyError(f"body volume {vol} is not a finite normal positive float")
    return vol


def centroid(body: Body) -> tuple[float, ...]:
    """The mass center; for profile bodies it lies on the axis of revolution."""
    if isinstance(body, Polytope):
        return tuple(float(c) for c in _hull_data(body)[4])
    axis_coord = centroid_coordinate(body, Direction.axis(body.dim))
    return (axis_coord,) + (0.0,) * (body.dim - 1)


def centroid_coordinate(body: Body, direction: Direction) -> float:
    """The component of the centroid along the direction."""
    table = section_table(body, direction)
    return table.moment() / volume(table)


def max_section(body: Body, direction: Direction) -> tuple[float, float]:
    """Leftmost maximizer t0 of A(t) and the maximal section area A(t0)."""
    return section_table(body, direction).max_section()


def schwarz_symmetral(body: Body, direction: Direction):
    """Round the body into a body of revolution with the same sections.

    Profiles are their own symmetrals.  A polytope's symmetral is its slab
    table: an AnalyticProfile in the plane, where chord lengths and hence
    radii are piecewise linear, and a SlabProfile in 3-D.
    """
    slabs = section_table(body, direction)
    if isinstance(body, Polytope) and body.dim == 2:
        omega = section_ball_volume(2)
        knots = [(t, slabs.area_at(t) / omega) for t in slabs.edges]
        return AnalyticProfile(2, tuple(knots))
    return slabs
