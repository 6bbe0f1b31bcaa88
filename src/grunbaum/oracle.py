"""Brute-force Monte Carlo estimators and random body generators.

The estimators are deliberately independent of the exact pipeline: plain
hit-or-miss sampling, with membership decided by half-space tests
(polytopes) or a radius comparison (profiles).  They exist to
cross-validate the closed-form machinery, so they share no integration
code with it.  A piecewise-linear profile's radius is the oracle's own
too: a concave piecewise-linear function is the minimum of its affine
pieces, each taken as ``slope*(t - t_k) + r_k``, the formula ``np.interp``
uses, so off the knots it equals ``AnalyticProfile.radius_at`` bit for bit
(on a knot the two may differ by an ulp).  Its precondition is a concave
radius, which ``bodies.validate`` checks up to a slope rise at a knot of
``CONCAVITY_TOL`` r_max per support length: the minimum sits below the
interpolation by at most that rise times the knot spacing.

One sampler serves every estimator.  It draws polytope points uniformly in
the tight axis-aligned bounding box.  For a profile it draws the tight
cylinder [t_lo, t_hi] x B^(n-1)(r_max), and only what the membership test
reads: the height t and the squared radial distance |y|**2.  Every
estimate is then one reading of one draw; a cut ratio in particular is
hits above the cut over hits inside, from the same points, with a Wilson
score interval (``wilson_interval``).  Counts are taken in place: a unit
counts its hits with its membership mask over all of its points, and only
``mc_centroid_coordinate``, which needs the heights themselves, keeps the
inside points.

Randomness comes from numpy's Philox counter-based generator keyed by
(seed, shard); every estimate records the generator name and seed.  A draw
reads one stream, ``rng_for(seed)``, laid out as follows:

* a polytope's points are row-major, ``dim`` doubles each;
* a profile's points come in blocks of ``_CHUNK``: all of a block's ``t``
  values, then all of its ``U`` values.

The draw is split into work units of ``_UNIT`` points, run on a thread
pool with one thread per usable CPU (never more than there are units).
Philox yields 4 doubles per counter step, so a unit starting ``offset``
doubles into the stream advances a fresh generator by ``offset // 4``
steps and discards ``offset % 4`` doubles (``_stream_at``).  Units are
combined in order, so identical seeds reproduce every point, and hence
every count, bit for bit on any number of cores and any platform.  Workers
run numpy on local arrays only: no BLAS call, whose own threads would
compete with theirs, and no package function beyond the pure membership
helpers; the hull, box, cylinder, radius pieces and axis sign are
resolved before the pool starts.  The facet loop runs on ``_SLICE`` points
at a time in buffers it reuses, so that it works in cache.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import measure
from .bodies import (
    AnalyticProfile,
    Body,
    Direction,
    Polytope,
    section_ball_volume,
)

GENERATOR_NAME = "philox4x64"
MIN_SAMPLES = 1000
_CHUNK = 1 << 19  # points per block of a profile's stream: all t values, then all U values
_UNIT = 1 << 16  # points per work unit; divides _CHUNK, so no unit spans two blocks
_SLICE = 1 << 15  # points per pass of the facet loop


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    samples: int
    seed: int
    generator: str = GENERATOR_NAME


def rng_for(seed: int, shard: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, shard); shards are independent."""
    key = np.array([seed % (1 << 64), shard % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_at(seed: int, offset: int) -> np.random.Generator:
    """``rng_for(seed)`` as it stands after ``offset`` doubles were drawn:
    Philox4x64 yields 4 doubles per counter step."""
    gen = rng_for(seed)
    gen.bit_generator.advance(offset // 4)
    gen.random(offset % 4)
    return gen


def _worker_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _check_samples(samples: int) -> int:
    if int(samples) != samples or samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    return int(samples)


def bounding_box(body: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Tight axis-aligned bounding box (lo, hi) of a polytope."""
    pts = body.vertex_array()
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    if np.any(hi <= lo):
        raise ValueError(f"degenerate bounding box: lo={lo}, hi={hi}")
    return lo, hi


def bounding_cylinder(body: Body) -> tuple[float, float, float]:
    """(t_lo, t_hi, r_max): the tight cylinder [t_lo, t_hi] x B^(n-1)(r_max)
    around a profile body."""
    t_lo, t_hi = body.support
    if isinstance(body, AnalyticProfile):
        r_max = float(body.radii().max())
    else:
        _, area_max = body.max_section()
        omega = section_ball_volume(body.dim)
        r_max = (area_max / omega) ** (1.0 / (body.dim - 1)) * (1.0 + 1e-9)
    if not r_max > 0.0:
        raise ValueError(f"degenerate bounding cylinder: r_max={r_max}")
    return t_lo, t_hi, r_max


def region_volume(body: Body) -> float:
    """Volume of the region the sampler draws the body's points from."""
    if isinstance(body, Polytope):
        lo, hi = bounding_box(body)
        return float(np.prod(hi - lo))
    t_lo, t_hi, r_max = bounding_cylinder(body)
    return (t_hi - t_lo) * section_ball_volume(body.dim) * r_max ** (body.dim - 1)


def _radius_pieces(body: AnalyticProfile) -> tuple:
    """(slope, t_k, r_k) of each affine piece ``slope*(t - t_k) + r_k`` of a
    profile's radius, as plain floats: the slope ``np.interp`` takes."""
    knots = body.knots
    return tuple(
        ((r1 - r0) / (t1 - t0), t0, r0) for (t0, r0), (t1, r1) in zip(knots, knots[1:])
    )


def _radius(t: np.ndarray, pieces: tuple) -> np.ndarray:
    """The concave piecewise-linear radius at heights t in the support: the
    minimum of its affine pieces."""
    (slope, tk, rk), *rest = pieces
    r = t - tk
    r *= slope
    r += rk
    piece = np.empty_like(r)
    for slope, tk, rk in rest:
        np.subtract(t, tk, out=piece)
        piece *= slope
        piece += rk
        np.minimum(r, piece, out=r)
    return r


def _profile_test(body: Body):
    """The membership test ``(t, radial2) -> mask`` of a profile body, for
    points at heights t and squared distances radial2 from its axis.  All it
    reads of the body is resolved here, before any work unit starts."""
    lo, hi = body.support
    if isinstance(body, AnalyticProfile):
        pieces = _radius_pieces(body)

        def radius2(t):
            r = _radius(t, pieces)
            return np.multiply(r, r, out=r)

    else:
        omega = section_ball_volume(body.dim)
        power = 2.0 / (body.dim - 1)

        def radius2(t):
            return (body.area_at(t) / omega) ** power

    def test(t, radial2):
        return (t >= lo) & (t <= hi) & (radial2 <= radius2(t))

    return test


def _in_profile(body: Body, t: np.ndarray, radial2: np.ndarray) -> np.ndarray:
    """Membership of the points at heights t and squared distances radial2
    from the axis of a profile body."""
    return _profile_test(body)(t, radial2)


def _dot(columns, v, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """The dot products of points, given by their coordinate columns, with
    v, written to ``out`` (``term`` is scratch space): one column at a time,
    without a BLAS call."""
    np.multiply(columns[0], v[0], out=out)
    for column, x in zip(columns[1:], v[1:]):
        out += np.multiply(column, x, out=term)
    return out


def _facets(body: Polytope) -> tuple:
    """(outer normal, offset limit) of every hull facet, as plain floats."""
    eqs = measure._hull_data(body)[2]
    return tuple(zip(eqs[:, :-1].tolist(), (1e-12 - eqs[:, -1]).tolist()))


def _in_facets(columns, facets: tuple) -> np.ndarray:
    """Membership of points, given by their coordinate columns, in the
    polytope with these facets; one facet at a time: no (m, facets) matrix.
    The loop runs on ``_SLICE`` points at a time, so that its buffers stay
    in cache."""
    m = len(columns[0])
    mask = np.ones(m, dtype=bool)
    size = min(m, _SLICE)
    dot, term, hit = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for lo in range(0, m, size):
        k = min(size, m - lo)
        part = [column[lo : lo + k] for column in columns]
        inside = mask[lo : lo + k]
        for normal, limit in facets:
            _dot(part, normal, dot[:k], term[:k])
            inside &= np.less_equal(dot[:k], limit, out=hit[:k])
    return mask


def contains(body: Body, points: np.ndarray) -> np.ndarray:
    """Vectorized membership test for an (m, dim) array of points."""
    points = np.asarray(points, dtype=float)
    if isinstance(body, Polytope):
        return _in_facets(points.T, _facets(body))
    radial2 = np.einsum("ij,ij->i", points[:, 1:], points[:, 1:])
    return _in_profile(body, points[:, 0], radial2)


def _map_units(body: Body, direction: Direction, samples: int, seed: int, reduce) -> list:
    """One draw of ``samples`` points: ``reduce(heights, inside)`` for each
    work unit, in unit order, where heights are the heights along the
    direction of the unit's points and ``inside`` marks those that land in
    the body.

    A profile's points are drawn as (t, |y|**2) with t uniform on
    [t_lo, t_hi] and |y|**2 = r_max**2 * U**(2/(n-1)), U uniform on [0, 1]:
    the law of a uniform point of the cylinder, read through the only two
    numbers its membership test needs.  Profiles are cut along +/- their axis.
    """
    samples = _check_samples(samples)
    if isinstance(body, Polytope):
        if direction.dim != body.dim:
            raise ValueError(f"direction has dimension {direction.dim}, body has {body.dim}")
        lo, hi = bounding_box(body)
        facets, xi, dim = _facets(body), direction.coords, body.dim

        def unit(start):
            raw = _stream_at(seed, start * dim).random((min(_UNIT, samples - start), dim))
            # contiguous coordinate columns: the facet loop reads each many times
            cols = [lo[j] + (hi[j] - lo[j]) * raw[:, j] for j in range(dim)]
            heights = _dot(cols, xi, np.empty_like(cols[0]), np.empty_like(cols[0]))
            return reduce(heights, _in_facets(cols, facets))

    else:
        sign = measure._axis_sign(direction, body.dim)
        t_lo, t_hi, r_max = bounding_cylinder(body)
        test = _profile_test(body)
        power = 2.0 / (body.dim - 1)

        def unit(start):
            m = min(_UNIT, samples - start)
            block = start - start % _CHUNK
            # the block's t values sit at 2*block + (start - block), its U values
            # after all of its t values
            t = t_lo + (t_hi - t_lo) * _stream_at(seed, block + start).random(m)
            u = _stream_at(seed, block + min(_CHUNK, samples - block) + start).random(m)
            radial2 = r_max * r_max * u**power
            return reduce(sign * t, test(t, radial2))

    starts = range(0, samples, _UNIT)
    with ThreadPoolExecutor(min(_worker_count(), len(starts))) as pool:
        return list(pool.map(unit, starts))


def _inside_heights(body: Body, direction: Direction, samples: int, seed: int) -> np.ndarray:
    """The heights along the direction of one draw's points that land in
    the body, in draw order."""
    return np.concatenate(
        _map_units(body, direction, samples, seed, lambda h, inside: h[inside])
    )


def _counts(body: Body, direction: Direction, t: float, samples: int, seed: int):
    """(hits at heights >= t, hits inside) of one draw, counted in place."""

    def count(h, inside):
        return int(np.count_nonzero(inside & (h >= t))), int(np.count_nonzero(inside))

    counts = _map_units(body, direction, samples, seed, count)
    return sum(a for a, _ in counts), sum(n for _, n in counts)


def _fraction_estimate(hits: int, samples: int, region: float, seed: int) -> McEstimate:
    p = hits / samples
    return McEstimate(
        value=region * p,
        std_error=region * math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
        seed=seed,
    )


def mc_volume(body: Body, samples: int, seed: int) -> McEstimate:
    """Hit-or-miss volume estimate over the sampling region."""
    _, inside = _counts(body, Direction.axis(body.dim), -math.inf, samples, seed)
    return _fraction_estimate(inside, samples, region_volume(body), seed)


def mc_cut_volume(
    body: Body, direction: Direction, t: float, samples: int, seed: int
) -> McEstimate:
    """Volume of the part of the body at heights >= t along the direction."""
    above, _ = _counts(body, direction, t, samples, seed)
    return _fraction_estimate(above, samples, region_volume(body), seed)


def mc_cut_counts(
    body: Body, direction: Direction, t: float, samples: int, seed: int
) -> tuple[int, int]:
    """(hits at heights >= t, hits inside) of one draw: the cut ratio
    P(<x, xi> >= t | x in body) is their quotient."""
    above, inside = _counts(body, direction, t, samples, seed)
    if inside == 0:
        raise ValueError("no samples landed in the body; is it degenerate?")
    return above, inside


def mc_centroid_coordinate(
    body: Body, direction: Direction, samples: int, seed: int
) -> McEstimate:
    """Mean height of accepted samples along the direction."""
    h = _inside_heights(body, direction, samples, seed)
    if len(h) < 2:
        raise ValueError("no samples landed in the body; is it degenerate?")
    return McEstimate(
        value=float(h.mean()),
        std_error=float(h.std(ddof=1) / np.sqrt(len(h))),
        samples=samples,
        seed=seed,
    )


def wilson_interval(hits: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval [L, U] at z standard errors for the proportion
    hits / trials.  Unlike p +/- z*sqrt(p(1-p)/trials) it keeps a width of
    about z**2 / trials at p = 0 and p = 1."""
    if trials <= 0:
        raise ValueError(f"need at least one trial, got {trials}")
    p = hits / trials
    z2n = z * z / trials
    centre = (p + 0.5 * z2n) / (1.0 + z2n)
    half = z * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials) / (1.0 + z2n)
    # exact ends where rounding would leave 0 or 1 just outside the interval
    return (centre - half if hits > 0 else 0.0), (centre + half if hits < trials else 1.0)


def _uniform_ball(gen: np.random.Generator, m: int, n: int) -> np.ndarray:
    g = gen.standard_normal((m, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * gen.random(m)[:, None] ** (1.0 / n)


def random_polytope(n: int, num_points: int, seed: int) -> Polytope:
    """Convex hull of points sampled uniformly in the unit ball."""
    from scipy.spatial import ConvexHull, QhullError  # imported only where a hull is built

    if n not in (2, 3):
        raise ValueError(f"random polytopes are generated in dimension 2 or 3, got {n}")
    if num_points < n + 1:
        raise ValueError(f"need at least {n + 1} points, got {num_points}")
    gen = rng_for(seed)
    for _ in range(100):
        pts = _uniform_ball(gen, num_points, n)
        if np.linalg.matrix_rank(pts[1:] - pts[0]) < n:
            continue
        try:
            hull = ConvexHull(pts)
        except QhullError:
            continue
        return Polytope(n, tuple(tuple(p) for p in pts[hull.vertices]))
    raise RuntimeError("failed to sample a full-dimensional polytope in 100 attempts")


def random_profile(n: int, num_knots: int, seed: int) -> AnalyticProfile:
    """Random concave piecewise-linear radius: strictly decreasing slopes,
    nonnegative endpoint radii, positive interior radii."""
    if n < 2:
        raise ValueError(f"profile dimension must be >= 2, got {n}")
    if num_knots < 2:
        raise ValueError(f"need at least 2 knots, got {num_knots}")
    gen = rng_for(seed)
    gaps = 0.1 + gen.random(num_knots - 1)
    height = 0.5 + 1.5 * gen.random()
    gaps *= height / gaps.sum()
    t0 = -1.0 + 2.0 * gen.random()
    ts = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    slopes = np.sort(gen.standard_normal(num_knots - 1))[::-1]
    radii = np.concatenate([[0.0], np.cumsum(slopes * gaps)])
    radii -= min(radii[0], radii[-1])
    if gen.random() < 0.5:
        radii += 0.05 + 0.45 * gen.random()  # truncate both ends away from zero
    radii *= 0.5 + 1.5 * gen.random()
    if radii.max() <= 0.0:
        radii = radii + 1.0  # all-flat degenerate draw (slope ~ 0 everywhere)
    return AnalyticProfile(n, tuple(zip(ts.tolist(), radii.tolist())))
