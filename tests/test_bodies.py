"""Body types, affine operations, and validation diagnostics."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grunbaum.bodies import (
    MAX_PROFILE_DIM,
    AnalyticProfile,
    CutSpec,
    Direction,
    Polytope,
    SlabProfile,
    dilate,
    section_ball_volume,
    translate,
    unit_ball_volume,
    validate,
)
from grunbaum import measure, oracle
from grunbaum.extremal import grunbaum_cone


def test_direction_must_be_unit():
    with pytest.raises(ValueError):
        Direction((1.0, 1.0))
    for bad in ((math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            Direction(bad)
        with pytest.raises(ValueError):
            Direction.from_vector(bad)
    d = Direction.from_vector((1.0, 1.0))
    assert math.isclose(np.linalg.norm(d.as_array()), 1.0, abs_tol=1e-12)


def test_direction_from_vector_at_extreme_scales():
    # the squared norm of these vectors overflows or underflows
    unit = Direction.from_vector((1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1e-200, 1e308, 5e-324):
            assert Direction.from_vector((scale, scale)) == unit
        d = Direction.from_vector((3e300, 0.0, -4e300))
    assert d.coords == pytest.approx((0.6, 0.0, -0.8), rel=1e-15)
    with pytest.raises(ValueError):
        Direction.from_vector((0.0, 0.0))


def test_direction_axis_and_negation():
    d = Direction.axis(3)
    assert d.coords == (1.0, 0.0, 0.0)
    assert d.negated().coords == (-1.0, -0.0, -0.0)


def test_cutspec_alpha_range():
    d = Direction.axis(2)
    CutSpec(d, 1.5)
    with pytest.raises(ValueError):
        CutSpec(d, -1.0)
    with pytest.raises(ValueError):
        CutSpec(d, 2.0)


def test_unit_ball_volume_small_dims():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)


def test_translate_polytope():
    tri = Polytope(2, ((0, 0), (1, 0), (0, 1)))
    moved = translate(tri, (1, 1))
    assert moved.vertices == ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0))


def test_translate_profile_axial():
    cone = AnalyticProfile(2, ((0.0, 1.0), (1.0, 0.0)))
    shifted = translate(cone, -2.0 / 3.0)
    assert shifted.knots[0][0] == pytest.approx(-2.0 / 3.0)
    assert shifted.knots[1][0] == pytest.approx(1.0 / 3.0)
    # axial vector form is accepted too
    assert translate(cone, (0.5, 0.0)).knots == translate(cone, 0.5).knots
    with pytest.raises(ValueError):
        translate(cone, (0.5, 0.1))


def test_translate_identity():
    cone = AnalyticProfile(3, ((0.0, 1.0), (1.0, 0.0)))
    assert translate(cone, 0.0) == cone
    tri = Polytope(2, ((0, 0), (1, 0), (0, 1)))
    assert translate(tri, (0, 0)) == tri


def test_dilate_scaling_law():
    square = Polytope(2, ((0, 0), (1, 0), (1, 1), (0, 1)))
    assert measure.volume(dilate(square, 2.0)) == pytest.approx(4.0, rel=1e-12)
    assert dilate(square, 1.0) == square
    with pytest.raises(ValueError):
        dilate(square, 0.0)


def test_dilate_cone_closed_form_volume():
    # omega * integral of (r/2)^2 over the halved support = pi/24
    cone = AnalyticProfile(3, ((0.0, 1.0), (1.0, 0.0)))
    half = dilate(cone, 0.5)
    assert measure.volume(half) == pytest.approx(math.pi / 24.0, rel=1e-13)


def test_validate_non_concave_profile():
    bad = AnalyticProfile(2, ((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
    problems = validate(bad)
    assert any("concave" in p for p in problems)
    # the slope rises by 1.2 r_max per support length, at every scale
    for f in (1e-12, 1e12):
        assert validate(dilate(bad, f)) == problems == [
            "radius is not concave at knot 1 (scaled violation 1.200e+00)"
        ]


def test_validate_collinear_polytope():
    flat = Polytope(2, ((0, 0), (1, 1), (2, 2)))
    assert any("affine subspace" in p for p in validate(flat))


def test_validate_extremal_cone_clean():
    assert validate(grunbaum_cone(3)) == []


def unit_slab(dim=3):
    """A(t) = 1 on [0, 1]: the unit cylinder's profile."""
    return SlabProfile(dim, (0.0, 1.0), (1.0,), (1.0,), (1.0,))


def test_validate_slab_profile():
    assert validate(unit_slab()) == []
    # A(t) = 0.1 + t**2 on [0, 1], in Bernstein form
    convex_area = SlabProfile(2, (0.0, 1.0), (0.1,), (0.1,), (1.1,))
    assert any("not concave" in p for p in validate(convex_area))
    negative = SlabProfile(3, (0.0, 1.0, 2.0), (1.0, -0.5), (1.0, -0.5), (1.0, -0.5))
    assert any("negative" in p for p in validate(negative))


def test_validate_slab_profile_negative_controls():
    """Each exact test of a slab table fails on its own, on slabs of any
    width."""
    cases = {
        "not concave inside a slab": SlabProfile(3, (0, 0.001, 1), (1, 1), (0.5, 1), (1, 0)),
        "negative": SlabProfile(3, (0, 0.001, 1), (1, 1), (-2, 1), (1, 0)),
        "not concave at an inner edge": SlabProfile(3, (0, 1, 2), (1, 1), (1, 2), (1, 3)),
        "jumps": SlabProfile(3, (0, 1, 2), (1, 0.5), (1, 0.5), (1, 0.5)),
    }
    for what, body in cases.items():
        problems = validate(body)
        assert len(problems) == 1 and what in problems[0], problems


def test_profile_dim_bound():
    """Profiles stop where the section normalizer leaves the normal floats."""
    assert section_ball_volume(MAX_PROFILE_DIM) >= sys.float_info.min
    assert section_ball_volume(MAX_PROFILE_DIM + 1) < sys.float_info.min
    AnalyticProfile(MAX_PROFILE_DIM, ((0.0, 1.0), (1.0, 0.0)))
    for dim in (1, MAX_PROFILE_DIM + 1, 1200, 10**400):
        with pytest.raises(ValueError):
            AnalyticProfile(dim, ((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(ValueError):
            unit_slab(dim)


def test_profile_knots_must_increase():
    with pytest.raises(ValueError):
        AnalyticProfile(2, ((0.0, 1.0), (0.0, 0.5)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), knots=st.integers(2, 8))
def test_profile_radius_concavity_property(seed, n, knots):
    """r(lam*t1 + (1-lam)*t2) >= lam*r(t1) + (1-lam)*r(t2) on the support."""
    body = oracle.random_profile(n, knots, seed)
    lo, hi = body.support
    gen = oracle.rng_for(seed, shard=9)
    t1 = gen.uniform(lo, hi, 16)
    t2 = gen.uniform(lo, hi, 16)
    for lam in (0.25, 0.5, 0.75):
        mix = lam * t1 + (1 - lam) * t2
        lhs = body.radius_at(mix)
        rhs = lam * body.radius_at(t1) + (1 - lam) * body.radius_at(t2)
        assert np.all(lhs >= rhs - 1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dx=st.floats(-5, 5, allow_nan=False),
    dy=st.floats(-5, 5, allow_nan=False),
)
def test_translate_round_trip(seed, dx, dy):
    body = oracle.random_polytope(2, 8, seed)
    back = translate(translate(body, (dx, dy)), (-dx, -dy))
    assert np.allclose(back.vertex_array(), body.vertex_array(), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), factor=st.floats(0.01, 100.0, allow_nan=False))
def test_dilate_round_trip(seed, factor):
    body = oracle.random_profile(3, 5, seed)
    back = dilate(dilate(body, factor), 1.0 / factor)
    assert np.allclose(back.heights(), body.heights(), rtol=1e-12, atol=1e-12)
    assert np.allclose(back.radii(), body.radii(), rtol=1e-12, atol=1e-12)


def test_slab_profile_translate_dilate():
    base = unit_slab()
    vol = measure.volume(base)
    shifted = translate(base, 2.0)
    assert shifted.support == (2.0, 3.0)
    assert measure.volume(shifted) == pytest.approx(vol, rel=1e-10)
    doubled = dilate(base, 2.0)
    assert measure.volume(doubled) == pytest.approx(vol * 8.0, rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-5, 5), factor=st.floats(0.1, 10.0))
def test_slab_profile_affine_identities(seed, shift, factor):
    """translate, dilate and reflected act on a 3-D symmetral's slab table
    exactly as they act on the body."""
    body = oracle.random_polytope(3, 10, seed)
    vec = oracle.rng_for(seed, shard=4).standard_normal(3)
    sym = measure.schwarz_symmetral(body, Direction.from_vector(vec))
    axis = Direction.axis(3)
    assert hash(sym) == hash(translate(sym, 0.0)) and sym == translate(sym, 0.0)
    assert sym.reflected().reflected() == sym
    assert dilate(dilate(sym, 2.0), 0.5) == sym
    moved = translate(sym, shift)
    assert (moved.b0, moved.b1, moved.b2) == (sym.b0, sym.b1, sym.b2)
    scaled = dilate(sym, factor)
    flipped = sym.reflected()
    vol = measure.volume(sym)
    assert measure.volume(scaled) == pytest.approx(vol * factor**3, rel=1e-12)
    lo, hi = sym.support
    for t in np.linspace(lo, hi, 9):
        area, cut = sym.area_at(t), sym.cut_volume(t)
        assert moved.area_at(t + shift) == pytest.approx(area, rel=1e-9, abs=1e-12)
        assert moved.cut_volume(t + shift) == pytest.approx(cut, rel=1e-9, abs=1e-12)
        assert scaled.area_at(factor * t) == pytest.approx(factor**2 * area, rel=1e-9, abs=1e-12)
        assert scaled.cut_volume(factor * t) == pytest.approx(
            factor**3 * cut, rel=1e-9, abs=1e-12
        )
        assert flipped.area_at(-t) == pytest.approx(area, rel=1e-12, abs=1e-15)
        assert measure.cut_volume(sym, axis.negated(), -t) == pytest.approx(
            vol - cut, rel=1e-12, abs=1e-12 * vol
        )


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(-17.0, -6.0).map(lambda k: 10.0**k),
    shift=st.floats(-1e8, 1e8),
    factor=st.floats(1e-3, 1e3),
)
@example(eps=1e-11, shift=1e8, factor=1.0)
def test_slab_table_affine_maps_never_raise(eps, shift, factor):
    """A shift can round slabs of a near-tie table (the tetrahedron's vertex
    heights 0, 0.84*eps, 1.2*eps, 1) to zero width; they are dropped, and
    the table keeps its volume."""
    tet = Polytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    table = measure.section_table(tet, Direction.from_vector((1.2 * eps, 0.84 * eps, 1.0)))
    vol = measure.volume(table)
    moved = translate(table, shift)
    lo, hi = table.support
    assert moved.support == (lo + shift, hi + shift)
    for body, want in (
        (moved, vol),
        (moved.reflected(), vol),
        (dilate(moved, factor), vol * factor**3),
        (translate(moved, -shift), vol),
    ):
        assert measure.volume(body) == pytest.approx(want, rel=1e-7)
        assert all(b > a for a, b in zip(body.edges, body.edges[1:]))
