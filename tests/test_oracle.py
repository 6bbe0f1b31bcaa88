"""Monte Carlo estimators and seeded random body generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grunbaum import measure, oracle
from grunbaum.bodies import AnalyticProfile, Direction, Polytope, validate
from grunbaum.extremal import grunbaum_cone


def unit_cube():
    return Polytope(3, tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)))


def test_mc_volume_box_equals_body():
    # the cube fills its bounding box: every sample hits, zero variance
    est = oracle.mc_volume(unit_cube(), 10_000, 1)
    assert est.value == 1.0
    assert est.std_error == 0.0
    assert est.generator == "philox4x64"


def test_mc_volume_cone():
    cone = AnalyticProfile(3, ((0.0, 1.0), (1.0, 0.0)))
    est = oracle.mc_volume(cone, 400_000, 42)
    assert abs(est.value - math.pi / 3.0) <= 4.0 * est.std_error


def test_mc_volume_triangle():
    tri = Polytope(2, ((0, 0), (1, 0), (0, 1)))
    est = oracle.mc_volume(tri, 200_000, 9)
    assert abs(est.value - 0.5) <= 4.0 * est.std_error


def test_mc_volume_rejects_few_samples():
    with pytest.raises(ValueError):
        oracle.mc_volume(unit_cube(), 10, 0)


def test_profile_sampling_region_is_the_tight_cylinder():
    # (t_hi - t_lo) * omega_(n-1) * r_max**(n-1), with r_max = 2 and height 3
    assert oracle.region_volume(AnalyticProfile(3, ((0.0, 0.0), (1.0, 2.0), (3.0, 0.0)))) == (
        pytest.approx(12.0 * math.pi, rel=1e-14)
    )
    assert oracle.region_volume(AnalyticProfile(5, ((-1.0, 2.0), (2.0, 1.0)))) == (
        pytest.approx(24.0 * math.pi**2, rel=1e-14)
    )
    # a cylinder fills its sampling region: every draw hits, zero variance
    est = oracle.mc_volume(AnalyticProfile(4, ((0.0, 0.5), (2.0, 0.5))), 10_000, 3)
    assert est.value == pytest.approx(2.0 * (4.0 * math.pi / 3.0) * 0.125, rel=1e-14)
    assert est.std_error == 0.0


def test_profile_estimates_need_the_axis():
    cone = AnalyticProfile(2, ((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        oracle.mc_cut_volume(cone, Direction.from_vector((1.0, 1.0)), 0.2, 10_000, 1)


def test_contains_facet_loop_matches_all_facets():
    body = oracle.random_polytope(3, 12, 31)
    pts = oracle.rng_for(4).uniform(-1.0, 1.0, (20_000, 3))
    eqs = measure._hull_data(body)[2]
    reference = np.all(pts @ eqs[:, :-1].T + eqs[:, -1] <= 1e-12, axis=1)
    assert np.array_equal(oracle.contains(body, pts), reference)


def test_wilson_interval_keeps_a_band_at_the_ends():
    lo, hi = oracle.wilson_interval(0, 10_000, 4.0)
    assert lo == 0.0 and hi == pytest.approx(16.0 / 10_016.0, rel=1e-12)
    lo, hi = oracle.wilson_interval(10_000, 10_000, 4.0)
    assert hi == 1.0 and lo == pytest.approx(10_000.0 / 10_016.0, rel=1e-12)
    lo, hi = oracle.wilson_interval(5_000, 10_000, 4.0)
    assert 0.5 - lo == pytest.approx(hi - 0.5, rel=1e-12)
    assert hi - lo == pytest.approx(2.0 * 4.0 * 0.5 / math.sqrt(10_016.0), rel=1e-12)


def test_mc_cut_volume_square():
    sq = Polytope(2, ((0, 0), (1, 0), (1, 1), (0, 1)))
    est = oracle.mc_cut_volume(sq, Direction((0.0, 1.0)), 0.25, 200_000, 5)
    assert abs(est.value - 0.75) <= 4.0 * est.std_error


def test_mc_cut_volume_grunbaum_cone():
    g = grunbaum_cone(2)
    target = (4.0 / 9.0) * measure.volume(g)
    est = oracle.mc_cut_volume(g, Direction.axis(2), 0.0, 400_000, 17)
    assert abs(est.value - target) <= 4.0 * est.std_error


def test_mc_cut_volume_above_support():
    g = grunbaum_cone(2)
    top = measure.support(g, Direction.axis(2))
    est = oracle.mc_cut_volume(g, Direction.axis(2), top + 0.5, 10_000, 3)
    assert est.value == 0.0


def test_mc_centroid_examples():
    sym = AnalyticProfile(2, ((-1.0, 0.5), (0.0, 1.0), (1.0, 0.5)))
    est = oracle.mc_centroid_coordinate(sym, Direction.axis(2), 200_000, 8)
    assert abs(est.value) <= 4.0 * est.std_error
    cone = AnalyticProfile(2, ((0.0, 1.0), (1.0, 0.0)))
    est = oracle.mc_centroid_coordinate(cone, Direction.axis(2), 200_000, 13)
    assert abs(est.value - 1.0 / 3.0) <= 4.0 * est.std_error
    est = oracle.mc_centroid_coordinate(unit_cube(), Direction((0.0, 0.0, 1.0)), 100_000, 2)
    assert abs(est.value - 0.5) <= 4.0 * est.std_error


def test_estimates_are_deterministic():
    cone = AnalyticProfile(3, ((0.0, 1.0), (1.0, 0.0)))
    a = oracle.mc_volume(cone, 50_000, 12345)
    b = oracle.mc_volume(cone, 50_000, 12345)
    assert a == b
    c = oracle.mc_volume(cone, 50_000, 12346)
    assert c.value != a.value


def test_random_polytope_determinism_and_shape():
    a = oracle.random_polytope(3, 12, 777)
    b = oracle.random_polytope(3, 12, 777)
    assert a == b
    tri = oracle.random_polytope(2, 3, 4)
    assert len(tri.vertices) == 3


def test_random_profile_determinism():
    a = oracle.random_profile(4, 6, 99)
    assert a == oracle.random_profile(4, 6, 99)
    assert a != oracle.random_profile(4, 6, 100)


def test_random_profile_two_knots_cone():
    found_cone = False
    for seed in range(40):
        prof = oracle.random_profile(2, 2, seed)
        rs = prof.radii()
        if rs[1] == 0.0 and rs[0] > 0.0:
            found_cone = True
    assert found_cone  # decreasing two-knot draws are genuine cones


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((2, 3)), m=st.integers(4, 16))
def test_random_polytope_always_valid(seed, n, m):
    assert validate(oracle.random_polytope(n, m, seed)) == []


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), k=st.integers(2, 9))
def test_random_profile_always_valid(seed, n, k):
    body = oracle.random_profile(n, k, seed)
    assert validate(body) == []
    assert measure.volume(body) > 0.0


def test_generators_reject_bad_arguments():
    with pytest.raises(ValueError):
        oracle.random_polytope(4, 10, 0)
    with pytest.raises(ValueError):
        oracle.random_polytope(2, 2, 0)
    with pytest.raises(ValueError):
        oracle.random_profile(3, 1, 0)


def test_exact_vs_mc_agreement_sample():
    """Spot version of the oracle-agreement gate: 60 mixed trials, 4 sigma."""
    failures = 0
    trials = 0
    for i in range(10):
        body = oracle.random_profile(2 + i % 4, 5, 1000 + i)
        d = Direction.axis(body.dim)
        mid = measure.centroid_coordinate(body, d)
        pairs = [
            (measure.volume(body), oracle.mc_volume(body, 100_000, 50 + i)),
            (
                measure.cut_volume(body, d, mid),
                oracle.mc_cut_volume(body, d, mid, 100_000, 150 + i),
            ),
            (
                measure.centroid_coordinate(body, d),
                oracle.mc_centroid_coordinate(body, d, 100_000, 250 + i),
            ),
        ]
        poly = oracle.random_polytope(2 + i % 2, 9, 2000 + i)
        dp = Direction.axis(poly.dim)
        pairs.append((measure.volume(poly), oracle.mc_volume(poly, 100_000, 350 + i)))
        pairs.append(
            (
                measure.centroid_coordinate(poly, dp),
                oracle.mc_centroid_coordinate(poly, dp, 100_000, 450 + i),
            )
        )
        for exact, est in pairs:
            trials += 1
            if abs(est.value - exact) > 4.0 * max(est.std_error, 1e-15):
                failures += 1
    assert failures <= max(1, trials // 100)


def test_bounding_box_degenerate_raises():
    segment = Polytope(2, ((0, 0), (0, 1), (0, 2)))  # flat: zero-width box
    with pytest.raises(ValueError):
        oracle.bounding_box(segment)
