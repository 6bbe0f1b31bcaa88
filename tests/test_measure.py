"""Measurement functionals: supports, sections, cut volumes, centroids,
symmetrization, and the two concavity lemmas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from grunbaum import measure, oracle
from grunbaum.bodies import AnalyticProfile, Direction, Polytope, SlabProfile
from grunbaum.extremal import double_cone, grunbaum_cone

AXIS2 = Direction.axis(2)
AXIS3 = Direction.axis(3)


def unit_square():
    return Polytope(2, ((0, 0), (1, 0), (1, 1), (0, 1)))


def unit_cube():
    return Polytope(3, tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)))


def cone_profile(n):
    return AnalyticProfile(n, ((0.0, 1.0), (1.0, 0.0)))


def test_support_square():
    sq = Polytope(2, ((-1, -1), (1, -1), (1, 1), (-1, 1)))
    assert measure.support(sq, Direction((1.0, 0.0))) == pytest.approx(1.0)


def test_support_grunbaum_cone():
    g = grunbaum_cone(2)
    assert measure.support(g, AXIS2) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert measure.support(g, AXIS2.negated()) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_support_triangle_diagonal():
    tri = Polytope(2, ((0, 0), (1, 0), (0, 1)))
    diag = Direction.from_vector((1.0, 1.0))
    assert measure.support(tri, diag) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-14)


def test_profile_rejects_off_axis_direction():
    with pytest.raises(ValueError):
        measure.support(cone_profile(2), Direction.from_vector((1.0, 1.0)))


def test_section_area_examples():
    assert measure.section_area(unit_square(), Direction((0.0, 1.0)), 0.5) == pytest.approx(1.0)
    assert measure.section_area(cone_profile(3), AXIS3, 0.5) == pytest.approx(math.pi / 4.0)
    assert measure.section_area(unit_cube(), Direction((0.0, 0.0, 1.0)), 1.5) == 0.0


def test_cut_volume_examples():
    assert measure.cut_volume(unit_square(), Direction((0.0, 1.0)), 0.25) == pytest.approx(0.75)
    assert measure.cut_volume(cone_profile(3), AXIS3, 0.0) == pytest.approx(math.pi / 3.0)
    g = grunbaum_cone(2)
    h = measure.support(g, AXIS2)
    assert measure.cut_volume(g, AXIS2, h + 0.1) == 0.0


def test_cut_volume_monotone_and_ends():
    body = oracle.random_profile(3, 6, 11)
    lo, hi = body.support
    ts = np.linspace(lo - 0.1, hi + 0.1, 40)
    vals = [measure.cut_volume(body, AXIS3, float(t)) for t in ts]
    assert vals[0] == pytest.approx(measure.volume(body), rel=1e-12)
    assert vals[-1] == 0.0
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_volume_examples():
    assert measure.volume(unit_cube()) == pytest.approx(1.0, rel=1e-12)
    assert measure.volume(Polytope(2, ((0, 0), (1, 0), (0, 1)))) == pytest.approx(0.5)
    # the normalized double cone has unit volume by construction
    assert measure.volume(double_cone(0.5, 2)) == pytest.approx(1.0, rel=1e-12)


def test_centroid_coordinate_cone_ratio():
    # a cone's centroid splits its height 1 : n from the base
    assert measure.centroid_coordinate(cone_profile(3), AXIS3) == pytest.approx(0.25, abs=1e-13)
    assert measure.centroid_coordinate(cone_profile(2), AXIS2) == pytest.approx(
        1.0 / 3.0, abs=1e-13
    )


def test_centroid_coordinate_symmetric_profile():
    sym = AnalyticProfile(2, ((-1.0, 0.5), (0.0, 1.0), (1.0, 0.5)))
    assert measure.centroid_coordinate(sym, AXIS2) == pytest.approx(0.0, abs=1e-14)


def test_centroid_examples():
    assert measure.centroid(Polytope(2, ((0, 0), (1, 0), (0, 1)))) == pytest.approx(
        (1.0 / 3.0, 1.0 / 3.0)
    )
    assert measure.centroid(unit_cube()) == pytest.approx((0.5, 0.5, 0.5))
    prof = cone_profile(3)
    assert measure.centroid(prof) == pytest.approx((0.25, 0.0, 0.0))


def test_centroid_inside_support():
    body = oracle.random_profile(4, 7, 5)
    c = measure.centroid_coordinate(body, Direction.axis(4))
    lo, hi = body.support
    assert lo < c < hi


def test_centroid_matches_slab_moment_for_polytopes():
    """Simplex-decomposition centroid equals the slab-integral first moment."""
    for seed in range(5):
        body = oracle.random_polytope(3, 10, seed)
        xi = oracle.rng_for(seed, shard=3).standard_normal(3)
        d = Direction.from_vector(xi)
        via_hull = float(np.dot(measure.centroid(body), d.as_array()))
        assert measure.centroid_coordinate(body, d) == pytest.approx(via_hull, abs=1e-12)


def test_centroid_of_a_thin_wide_cone():
    """Slab height squared underflows (1e-340) while the moment is normal."""
    cone = AnalyticProfile(20, ((0.0, 1e15), (1e-170, 0.0)))
    assert measure.centroid_coordinate(cone, Direction.axis(20)) == pytest.approx(
        1e-170 / 21, rel=1e-12
    )


def test_schwarz_symmetral_2d_polytope_chords():
    tri = Polytope(2, ((0, 0), (1, 0), (0, 1)))
    d = Direction((1.0, 0.0))
    sym = measure.schwarz_symmetral(tri, d)
    assert isinstance(sym, AnalyticProfile)
    for t in np.linspace(0.01, 0.99, 17):
        assert measure.section_area(sym, AXIS2, float(t)) == pytest.approx(
            measure.section_area(tri, d, float(t)), abs=1e-12
        )


def test_schwarz_symmetral_profile_fixed_point():
    prof = cone_profile(3)
    assert measure.schwarz_symmetral(prof, AXIS3) == prof


def test_schwarz_symmetral_cube_constant_area():
    sym = measure.schwarz_symmetral(unit_cube(), Direction((0.0, 0.0, 1.0)))
    assert isinstance(sym, SlabProfile)
    assert sym.support == (0.0, 1.0)
    for t in np.linspace(0.05, 0.95, 7):
        assert sym.area_at(float(t)) == pytest.approx(1.0, abs=1e-12)


def test_symmetral_preserves_support_volume_and_cuts():
    """Rounding keeps h(+/-xi), |K| and every cut-off volume (64 heights)."""
    for seed in (0, 1, 2):
        body = oracle.random_polytope(3, 12, seed)
        vec = oracle.rng_for(seed, shard=4).standard_normal(3)
        d = Direction.from_vector(vec)
        sym = measure.schwarz_symmetral(body, d)
        axis = Direction.axis(3)
        vol = measure.volume(body)
        assert measure.volume(sym) == pytest.approx(vol, rel=1e-10)
        assert measure.support(sym, axis) == pytest.approx(measure.support(body, d), abs=1e-12)
        assert measure.support(sym, axis.negated()) == pytest.approx(
            measure.support(body, d.negated()), abs=1e-12
        )
        lo = -measure.support(body, d.negated())
        hi = measure.support(body, d)
        for t in np.linspace(lo, hi, 64):
            assert measure.cut_volume(sym, axis, float(t)) == pytest.approx(
                measure.cut_volume(body, d, float(t)), abs=1e-10 * vol
            )


def test_max_section_examples():
    assert measure.max_section(cone_profile(3), AXIS3) == pytest.approx((0.0, math.pi))
    t0, area = measure.max_section(double_cone(0.6, 2), AXIS2)
    assert t0 == pytest.approx(0.6, abs=1e-10)
    assert area == pytest.approx(2.0, rel=1e-12)
    # constant plateau resolves to the leftmost point
    t0, area = measure.max_section(unit_cube(), Direction((0.0, 0.0, 1.0)))
    assert t0 == pytest.approx(0.0, abs=1e-10)
    assert area == pytest.approx(1.0, rel=1e-12)


def test_max_section_slab_profile_plateau():
    sym = measure.schwarz_symmetral(unit_cube(), Direction((0.0, 0.0, 1.0)))
    t0, area = measure.max_section(sym, AXIS3)
    assert t0 == pytest.approx(0.0, abs=1e-9)
    assert area == pytest.approx(1.0, rel=1e-9)


def _max_section_by_area_at(prof):
    """Reference: the same search in numpy scalars, with every area in the
    bisection read through ``area_at``."""
    (b0, b1, b2), edges, width = prof._b, prof._edges, prof._width

    def bernstein(i, u):
        v = 1.0 - u
        return v * (b0[i] * v + 2.0 * b1[i] * u) + b2[i] * (u * u)

    peaks = [1.0] * len(b0)
    for i in range(len(b0)):
        if b1[i] > b0[i] and b1[i] > b2[i]:
            peaks[i] = (b1[i] - b0[i]) / ((b1[i] - b0[i]) + (b1[i] - b2[i]))
    best = max([0.0] + [max(b0[i], bernstein(i, u)) for i, u in enumerate(peaks)])
    thresh = best - 1e-13 * best
    for i, u in enumerate(peaks):
        lo_t = edges[i]
        if prof.area_at(lo_t) >= thresh:
            return float(lo_t), float(best)
        xs = edges[i + 1] if u == 1.0 else lo_t + u * width[i]
        if prof.area_at(xs) >= thresh:
            a, b = lo_t, xs
            for _ in range(80):
                mid = 0.5 * (a + b)
                a, b = (a, mid) if prof.area_at(mid) >= thresh else (mid, b)
            return float(b), float(best)
    return float(edges[0]), float(best)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((2, 3)))
def test_max_section_matches_area_at_search(seed, n):
    """The float bisection on each slab's own quadratic returns the same
    (t0, A(t0)) bit for bit as a search through ``area_at``, and A(t0) is
    the maximum."""
    body = oracle.random_polytope(n, 12, seed)
    d = Direction.from_vector(oracle.rng_for(seed, shard=3).standard_normal(n))
    prof = measure._poly_slabs(body, tuple(d.as_array()))
    t0, area = prof.max_section()
    assert (t0, area) == _max_section_by_area_at(prof)
    grid = np.linspace(*prof.support, 513)
    assert area >= float(prof.area_at(grid).max()) - 1e-12 * max(area, 1.0)


def _slice_area(pts, xi, t):
    """Area (chord length in the plane) of {x in hull(pts) : <x, xi> = t}
    from scipy: the hull of the points at height t and of the crossings of
    every segment between two points (the edge crossings among them)."""
    h = pts @ xi
    i, j = np.triu_indices(len(pts), 1)
    cross = (h[i] - t) * (h[j] - t) < 0.0
    i, j = i[cross], j[cross]
    s = ((t - h[i]) / (h[j] - h[i]))[:, None]
    cut = np.concatenate([pts[h == t], pts[i] + s * (pts[j] - pts[i])])
    flat = cut @ np.linalg.svd(xi[None])[2][1:].T  # coordinates in the plane
    if len(pts[0]) == 2:
        return float(np.ptp(flat)) if len(flat) else 0.0
    try:
        return ConvexHull(flat).volume
    except Exception:  # fewer than three points, or all on a line
        return 0.0


def _max_section_by_slicing(body, d):
    """Reference for the largest section: slice areas at every vertex height
    and on a grid, then a golden-section search between the neighbours of
    the best sample (A is unimodal: A**(1/(n-1)) is concave)."""
    pts, xi = body.vertex_array(), d.as_array()
    h = pts @ xi
    ts = np.unique(np.concatenate([h, np.linspace(h.min(), h.max(), 129)]))
    areas = [_slice_area(pts, xi, t) for t in ts]
    k = int(np.argmax(areas))
    a, b = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        x, y = b - g * (b - a), a + g * (b - a)
        if _slice_area(pts, xi, x) >= _slice_area(pts, xi, y):
            b = y
        else:
            a = x
    return max(areas[k], _slice_area(pts, xi, 0.5 * (a + b)))


_NEAR_TIES = [
    (Polytope(2, ((0, 0), (1, 0), (0, 1))), lambda e: (e, 1.0)),
    (
        Polytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
        lambda e: (1.2 * e, 0.84 * e, 1.0),
    ),
    (unit_cube(), lambda e: (1.0, e, 0.7 * e)),
]


@pytest.mark.parametrize("seed", range(8))
def test_max_section_matches_slicing_reference(seed):
    """The table's maximal section against scipy's areas of the sliced body,
    on random polytopes and on bodies whose vertex heights nearly tie."""
    cases = [
        (body, Direction.from_vector(vec(eps)))
        for body, vec in _NEAR_TIES
        for eps in (10.0 ** -(17 - 2 * seed), 10.0 ** -(16 - 2 * seed))
        if eps <= 1e-6
    ]
    for n in (2, 3):
        body = oracle.random_polytope(n, 12, seed)
        vec = oracle.rng_for(seed, shard=8).standard_normal(n)
        cases.append((body, Direction.from_vector(vec)))
    for body, d in cases:
        want = _max_section_by_slicing(body, d)
        assert measure.max_section(body, d)[1] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", (2, 3))
def test_slab_table_blocks_add_up(n, monkeypatch):
    """Summing the (facet, slab) pairs in blocks of a few facets gives the
    table of one block, up to rounding."""
    body = oracle.random_polytope(n, 40, 7)
    d = Direction.from_vector(oracle.rng_for(7, shard=8).standard_normal(n))
    whole = measure._poly_slabs(body, d.coords)
    monkeypatch.setattr(measure, "_PAIR_BLOCK", 5)
    measure._poly_slabs.cache_clear()
    try:
        blocked = measure._poly_slabs(body, d.coords)
    finally:
        measure._poly_slabs.cache_clear()
    assert blocked.edges == whole.edges
    scale = max(whole.b1)
    for col in ("b0", "b1", "b2"):
        got, want = getattr(blocked, col), getattr(whole, col)
        assert np.allclose(got, want, rtol=0.0, atol=1e-14 * scale)


def _midpoint_concavity_ok(values, tol):
    worst = -math.inf
    for gap in range(1, (len(values) - 1) // 2 + 1):
        viol = 0.5 * (values[: -2 * gap] + values[2 * gap :]) - values[gap:-gap]
        worst = max(worst, float(viol.max()))
    return worst <= tol


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_lemma_root_area_concave_profiles(seed, n):
    """A^(1/(n-1)) is concave on the support (257-point grid)."""
    body = oracle.random_profile(n, 6, seed)
    table = measure.section_table(body, Direction.axis(n))
    grid = np.linspace(*table.support, 259)[1:-1]
    vals = table.area_at(grid) ** (1.0 / (n - 1))
    assert _midpoint_concavity_ok(vals, 1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((2, 3)))
def test_lemma_root_cut_volume_concave_polytopes(seed, n):
    """V^(1/n) is concave on the support (257-point grid)."""
    body = oracle.random_polytope(n, 10, seed)
    vec = oracle.rng_for(seed, shard=5).standard_normal(n)
    d = Direction.from_vector(vec)
    lo = -measure.support(body, d.negated())
    hi = measure.support(body, d)
    grid = np.linspace(lo, hi, 259)[1:-1]
    vals = np.asarray([measure.cut_volume(body, d, float(t)) for t in grid]) ** (1.0 / n)
    assert _midpoint_concavity_ok(vals, 1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_minkowski_radon_after_centering(seed, n):
    """1/n <= h(-xi)/h(xi) <= n for centered bodies."""
    body = oracle.random_profile(n, 5, seed)
    axis = Direction.axis(n)
    from grunbaum.verify import center

    c = center(body)
    ratio = measure.support(c, axis.negated()) / measure.support(c, axis)
    assert 1.0 / n - 1e-9 <= ratio <= n + 1e-9


def test_minkowski_radon_equality_for_cones():
    for n in (2, 3, 4):
        g = grunbaum_cone(n)
        ratio = measure.support(g, Direction.axis(n).negated()) / measure.support(
            g, Direction.axis(n)
        )
        assert ratio == pytest.approx(1.0 / n, abs=1e-9)


def test_centroid_against_monte_carlo():
    body = oracle.random_polytope(3, 10, 77)
    d = Direction.from_vector((0.3, -0.5, 0.8))
    est = oracle.mc_centroid_coordinate(body, d, 200_000, 123)
    exact = measure.centroid_coordinate(body, d)
    assert abs(est.value - exact) <= 4.0 * est.std_error


def test_degenerate_polytope_raises():
    flat = Polytope(2, ((0, 0), (1, 1), (2, 2)))
    with pytest.raises(measure.DegenerateBodyError):
        measure.volume(flat)


def test_subnormal_volume_raises():
    """A volume below the smallest normal float has lost its digits."""
    tiny = AnalyticProfile(300, ((0.0, 1e-3), (1.0, 1e-3)))
    with pytest.raises(measure.DegenerateBodyError):
        measure.volume(tiny)


def _hull_volume_above(pts, xi, t):
    """Volume of {x in hull(pts) : <x, xi> >= t} from scipy: the hull of the
    points above t and of the plane's crossings with every segment between
    two points (the edge crossings among them; the others lie inside)."""
    h = pts @ xi
    keep = [pts[h >= t]]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (h[i] - t) * (h[j] - t) < 0.0:
                keep.append((pts[i] + (t - h[i]) / (h[j] - h[i]) * (pts[j] - pts[i]))[None])
    return ConvexHull(np.concatenate(keep)).volume


@pytest.mark.parametrize("seed", range(6))
def test_polytope_cut_volume_matches_clipped_hull(seed):
    """The slab integrals against scipy's hull volume of the clipped body."""
    body = oracle.random_polytope(3, 12, seed)
    d = Direction.from_vector(oracle.rng_for(seed, shard=6).standard_normal(3))
    pts, xi = body.vertex_array(), d.as_array()
    h = pts @ xi
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        t = float(h.min() + q * (h.max() - h.min()))
        want = _hull_volume_above(pts, xi, t)
        assert measure.cut_volume(body, d, t) == pytest.approx(want, rel=1e-10)
