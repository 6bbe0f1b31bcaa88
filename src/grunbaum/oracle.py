"""Brute-force Monte Carlo estimators and random body generators.

The estimators are deliberately independent of the exact pipeline: plain
hit-or-miss sampling over the tight axis-aligned bounding box, with
membership decided by half-space tests (polytopes) or a radius comparison
(profiles).  They exist to cross-validate the closed-form machinery, so
they share no integration code with it.

Randomness comes from numpy's Philox counter-based generator keyed by
(seed, shard); identical seeds reproduce results bit for bit on any
platform, and every estimate records the generator name and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

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
_CHUNK = 1 << 19


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


def _check_samples(samples: int) -> int:
    if int(samples) != samples or samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    return int(samples)


def bounding_box(body: Body) -> tuple[np.ndarray, np.ndarray]:
    """Tight axis-aligned bounding box (lo, hi) of the body."""
    if isinstance(body, Polytope):
        pts = body.vertex_array()
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    else:
        if isinstance(body, AnalyticProfile):
            t_lo, t_hi = body.support
            r_max = float(body.radii().max())
        else:
            t_lo, t_hi = body.support
            _, area_max = measure.max_section(body, Direction.axis(body.dim))
            omega = section_ball_volume(body.dim)
            r_max = (area_max / omega) ** (1.0 / (body.dim - 1)) * (1.0 + 1e-9)
        lo = np.array([t_lo] + [-r_max] * (body.dim - 1))
        hi = np.array([t_hi] + [r_max] * (body.dim - 1))
    if np.any(hi <= lo):
        raise ValueError(f"degenerate bounding box: lo={lo}, hi={hi}")
    return lo, hi


def contains(body: Body, points: np.ndarray) -> np.ndarray:
    """Vectorized membership test for an (m, dim) array of points."""
    points = np.asarray(points, dtype=float)
    if isinstance(body, Polytope):
        eqs = measure._hull_data(body)[2]
        return np.all(points @ eqs[:, :-1].T + eqs[:, -1] <= 1e-12, axis=1)
    t = points[:, 0]
    radial2 = np.einsum("ij,ij->i", points[:, 1:], points[:, 1:])
    if isinstance(body, AnalyticProfile):
        r = body.radius_at(t)
    else:
        omega = section_ball_volume(body.dim)
        r = (body.area_at(t) / omega) ** (1.0 / (body.dim - 1))
    lo, hi = body.support
    return (t >= lo) & (t <= hi) & (radial2 <= r * r)


def _sample_hits(body, samples, seed, extra=None):
    """Count box samples landing in the body; optionally collect a statistic."""
    lo, hi = bounding_box(body)
    gen = rng_for(seed)
    hits = 0
    collected = []
    remaining = samples
    while remaining > 0:
        m = min(remaining, _CHUNK)
        pts = lo + (hi - lo) * gen.random((m, body.dim))
        mask = contains(body, pts)
        hits += int(mask.sum())
        if extra is not None:
            collected.append(extra(pts, mask))
        remaining -= m
    box_vol = float(np.prod(hi - lo))
    return hits, box_vol, collected


def mc_volume(body: Body, samples: int, seed: int) -> McEstimate:
    """Hit-or-miss volume estimate over the tight bounding box."""
    samples = _check_samples(samples)
    hits, box_vol, _ = _sample_hits(body, samples, seed)
    p = hits / samples
    return McEstimate(
        value=box_vol * p,
        std_error=box_vol * float(np.sqrt(p * (1.0 - p) / samples)),
        samples=samples,
        seed=seed,
    )


def mc_cut_volume(
    body: Body, direction: Direction, t: float, samples: int, seed: int
) -> McEstimate:
    """Volume of the part of the body at heights >= t along the direction."""
    samples = _check_samples(samples)
    xi = direction.as_array()
    lo, hi = bounding_box(body)
    gen = rng_for(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        m = min(remaining, _CHUNK)
        pts = lo + (hi - lo) * gen.random((m, body.dim))
        mask = contains(body, pts) & (pts @ xi >= t)
        hits += int(mask.sum())
        remaining -= m
    box_vol = float(np.prod(hi - lo))
    p = hits / samples
    return McEstimate(
        value=box_vol * p,
        std_error=box_vol * float(np.sqrt(p * (1.0 - p) / samples)),
        samples=samples,
        seed=seed,
    )


def mc_centroid_coordinate(
    body: Body, direction: Direction, samples: int, seed: int
) -> McEstimate:
    """Mean height of accepted samples along the direction."""
    samples = _check_samples(samples)
    xi = direction.as_array()

    def heights(pts, mask):
        return (pts @ xi)[mask]

    _, _, collected = _sample_hits(body, samples, seed, extra=heights)
    h = np.concatenate(collected) if collected else np.empty(0)
    if len(h) < 2:
        raise ValueError("no samples landed in the body; is it degenerate?")
    return McEstimate(
        value=float(h.mean()),
        std_error=float(h.std(ddof=1) / np.sqrt(len(h))),
        samples=samples,
        seed=seed,
    )


def _uniform_ball(gen: np.random.Generator, m: int, n: int) -> np.ndarray:
    g = gen.standard_normal((m, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * gen.random(m)[:, None] ** (1.0 / n)


def random_polytope(n: int, num_points: int, seed: int) -> Polytope:
    """Convex hull of points sampled uniformly in the unit ball."""
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
