"""Measurement functionals on convex bodies.

Along a direction every body is read through one section table
(``section_table``), a body of revolution that answers ``area_at``,
``cut_volume``, ``volume``, ``moment`` and ``max_section``:

* a profile is its own table, viewed along +/- its axis; it integrates
  ``(linear radius)**(n-1)`` in closed form via the Bernstein expansion,
  whose terms are all nonnegative, so nothing cancels for any slope or
  dimension;
* a polytope's section area between two consecutive vertex heights is a
  polynomial of degree <= dim-1, a sum over the hull's facets whose
  Bernstein coefficients come from where each facet meets the slab's two
  edges.  The slab table is a ``SlabProfile``: the polytope's Schwarz
  symmetral along that direction.

Everything here is exact up to floating point.  A polytope's volume,
centroid and support come from its hull; all else is one call on a table.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .bodies import AnalyticProfile, Body, Direction, Polytope, SlabProfile, section_ball_volume

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
# polytopes: the hull and its slab table


@lru_cache(maxsize=512)
def _hull_data(body: Polytope):
    """(points, hull simplices, hull equations, volume, centroid).  The
    volume and centroid come from the fan of simplices over the facets from
    an inner point."""
    from scipy.spatial import ConvexHull  # imported only where a hull is built

    pts = body.vertex_array()
    try:
        hull = ConvexHull(pts)
    except Exception as exc:  # scipy.spatial.QhullError on flat input
        raise DegenerateBodyError(f"degenerate polytope: {exc}") from exc
    inner = pts[hull.vertices].mean(axis=0)
    fan = pts[hull.simplices] - inner
    weights = np.abs(np.linalg.det(fan)) / math.factorial(body.dim)
    vol = float(weights.sum())
    if vol <= 0.0:
        raise DegenerateBodyError("polytope has zero volume")
    cent = inner + weights @ fan.sum(axis=1) / ((body.dim + 1) * vol)
    return pts, hull.simplices, hull.equations, vol, cent


def _crossing(pts, heights, a, b, t):
    """Where the edges from vertices a to vertices b, with heights[a] <
    heights[b], cross the heights t: one row per pair."""
    s = (t - heights[a]) / (heights[b] - heights[a])
    return pts[a] + s[:, None] * (pts[b] - pts[a])


# (facet, slab) pairs summed at once: the pair count grows faster than the
# vertex count, so large hulls are summed in blocks of facets
_PAIR_BLOCK = 1 << 16


def _slab_sums(pts, heights, edges, facets, rank, sign, xi):
    """The Bernstein sums (b0, b1, b2) of ``_poly_slabs`` over the given
    facets, whose vertices are sorted by height and have slab indices
    ``rank`` and orientations ``sign``: one row per (facet, slab) pair."""
    count = rank[:, -1] - rank[:, 0]
    f = np.repeat(np.arange(len(facets)), count)
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - rank[:, 0], count)
    t0, t1, sign = edges[j], edges[j + 1], sign[f]
    lo, hi = facets[f, 0], facets[f, -1]
    k = len(edges) - 1  # slabs
    a0, a1 = (_crossing(pts, heights, lo, hi, t) for t in (t0, t1))
    if len(xi) == 2:  # det(p, xi) of each chord end p
        b0, b2 = (np.bincount(j, sign * (a @ [xi[1], -xi[0]]), minlength=k) for a in (a0, a1))
        return np.array([b0, (b0 + b2) / 2.0, b2])
    # each segment runs from the lo-hi edge (a) to the other edge the slab spans (c)
    below = j < rank[f, 1]
    mid = facets[f, 1]
    u, v = np.where(below, lo, mid), np.where(below, mid, hi)
    c0, c1 = (_crossing(pts, heights, u, v, t) for t in (t0, t1))

    def det(a, c):
        return np.bincount(j, sign * (np.cross(a, c) @ xi), minlength=k)

    return np.array([det(a0, c0) / 2.0, (det(a0, c1) + det(a1, c0)) / 4.0, det(a1, c1) / 2.0])


@lru_cache(maxsize=512)
def _poly_slabs(body: Polytope, xi_coords: tuple[float, ...]) -> SlabProfile:
    """The section area A(t) of a polytope along xi, exactly, as a table of
    slabs between consecutive vertex heights.

    Each hull facet F that spans a slab meets the plane at height t in a
    segment [a(t), b(t)], oriented along xi x nu_F (nu_F the facet's outer
    normal), so that A(t) = sum_F det(a, b, xi) / 2.  Over a slab a and b
    move linearly, so the slab's Bernstein coefficients come from the
    segment ends at its lower edge (a0, b0) and upper edge (a1, b1):
    ``sum det(a0, b0, xi) / 2``, ``sum (det(a0, b1, xi) + det(a1, b0, xi)) / 4``
    and ``sum det(a1, b1, xi) / 2``.  In the plane the section is a chord,
    F meets it in one signed end p(t), and the sum of det(p, xi) is linear.
    The sums run over blocks of about ``_PAIR_BLOCK`` (facet, slab) pairs,
    so memory stays bounded on large hulls; no step divides by a slab width.
    """
    xi = np.asarray(xi_coords)
    pts, simplices, eqs, _, cent = _hull_data(body)
    heights = pts @ xi
    order = np.argsort(heights[simplices], axis=1, kind="stable")
    facets = np.take_along_axis(simplices, order, axis=1)  # vertices by height
    edges = np.unique(heights[facets])
    if len(edges) < 2:
        raise DegenerateBodyError("polytope is flat along the slicing direction")
    rank = np.searchsorted(edges, heights[facets])  # slab index of each vertex
    # +1 where the vertices in height order turn positively about nu_F,
    # which orients each segment along xi x nu_F
    turn = np.concatenate([eqs[:, None, :-1], pts[facets[:, 1:]] - pts[facets[:, :1]]], axis=1)
    sign = np.sign(np.linalg.det(turn))
    pts = pts - cent  # only the rounding depends on the origin
    ends = np.cumsum(rank[:, -1] - rank[:, 0])  # pairs up to each facet
    cuts = np.unique(np.searchsorted(ends, np.arange(_PAIR_BLOCK, ends[-1], _PAIR_BLOCK)))
    coef = sum(
        _slab_sums(pts, heights, edges, facets[i:m], rank[i:m], sign[i:m], xi)
        for i, m in zip([0, *cuts], [*cuts, len(facets)])
    )
    return SlabProfile(body.dim, edges, *coef)


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
