"""Monte Carlo estimators and seeded random body generators."""

import math
import threading
import tracemalloc

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


def reference_heights(body, direction, samples, seed):
    """The sequential sampler: one generator read front to back in blocks of
    2**19 points, with BLAS dot products."""
    gen = oracle.rng_for(seed)
    out = []
    for k in range(0, samples, 1 << 19):
        m = min(1 << 19, samples - k)
        if isinstance(body, Polytope):
            lo, hi = oracle.bounding_box(body)
            pts = lo + (hi - lo) * gen.random((m, body.dim))
            eqs = measure._hull_data(body)[2]
            mask = np.ones(m, dtype=bool)
            for normal, offset in zip(eqs[:, :-1], eqs[:, -1]):
                mask &= pts @ normal <= 1e-12 - offset
            out.append(pts[mask] @ direction.as_array())
        else:
            sign = measure._axis_sign(direction, body.dim)
            t_lo, t_hi, r_max = oracle.bounding_cylinder(body)
            t = t_lo + (t_hi - t_lo) * gen.random(m)
            radial2 = r_max * r_max * gen.random(m) ** (2.0 / (body.dim - 1))
            out.append(sign * t[oracle._in_profile(body, t, radial2)])
    return np.concatenate(out)


def _sampler_case(kind):
    if kind.startswith("polytope"):
        n = int(kind[-1])
        body = oracle.random_polytope(n, 12, 40 + n)
        return body, Direction.from_vector(oracle.rng_for(n, shard=5).standard_normal(n))
    n = int(kind[-1])
    return oracle.random_profile(n, 6, 60 + n), Direction.axis(n).negated()


@pytest.mark.parametrize("samples", [1000, 1001, 65537, 524291, 1000003])
@pytest.mark.parametrize("kind", ["polytope2", "polytope3", "profile2", "profile3", "profile5"])
def test_threaded_sampler_reproduces_the_sequential_draw(monkeypatch, kind, samples):
    body, d = _sampler_case(kind)
    ref = reference_heights(body, d, samples, 7)
    got = oracle._inside_heights(body, d, samples, 7)
    assert len(got) == len(ref)
    if isinstance(body, Polytope):
        # column-wise dot products may differ from BLAS in the last bit
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-15
    else:
        assert np.array_equal(got, ref)
    t = float(ref.mean())  # a height no sample sits on
    assert oracle.mc_cut_counts(body, d, t, samples, 7) == (
        int(np.count_nonzero(ref >= t)),
        len(ref),
    )
    for workers in (1, 3):
        monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
        assert np.array_equal(oracle._inside_heights(body, d, samples, 7), got)


def test_sampler_calls_package_functions_from_the_calling_thread(monkeypatch):
    seen = {"contains": set(), "_hull_data": set()}

    def record(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            seen[name].add(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    record(oracle, "contains")
    record(measure, "_hull_data")
    threads = threading.active_count()
    oracle.mc_cut_counts(oracle.random_polytope(3, 12, 5), Direction.axis(3), 0.0, 1_000_000, 1)
    assert seen["_hull_data"] == {threading.main_thread()}
    assert seen["contains"] <= {threading.main_thread()}
    assert threading.active_count() == threads


def test_cut_counts_memory_does_not_grow_with_samples(monkeypatch):
    """numpy reports its buffers to tracemalloc.  Keeping every inside
    height would make the peak at 4M samples about 1.8x the peak at 1M."""
    monkeypatch.setattr(oracle, "_worker_count", lambda: 2)  # units in flight
    tri = Polytope(2, ((0, 0), (1, 0), (0, 1)))
    d = Direction.axis(2)

    def peak(samples):
        tracemalloc.start()
        try:
            oracle.mc_cut_counts(tri, d, 0.3, samples, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    oracle.mc_cut_counts(tri, d, 0.3, 1000, 1)  # hull build outside the measurement
    assert peak(4_000_000) < 1.25 * peak(1_000_000)


def reference_inside_heights(body, direction, samples, seed):
    """The heights of one draw's points inside the body, with membership as
    the exact pipeline reads it (``radius_at``, every facet's plane) and the
    inside points compacted before their heights are taken."""
    gen = oracle.rng_for(seed)
    out = []
    for k in range(0, samples, 1 << 19):
        m = min(1 << 19, samples - k)
        if isinstance(body, Polytope):
            lo, hi = oracle.bounding_box(body)
            raw = gen.random((m, body.dim))
            cols = [lo[j] + (hi[j] - lo[j]) * raw[:, j] for j in range(body.dim)]
            eqs = measure._hull_data(body)[2]
            inside = np.ones(m, dtype=bool)
            for row in eqs:
                dot = cols[0] * row[0]
                for j in range(1, body.dim):
                    dot += cols[j] * row[j]
                inside &= dot <= 1e-12 - row[-1]
            kept = [c[inside] for c in cols]
            h = kept[0] * direction.coords[0]
            for j in range(1, body.dim):
                h += kept[j] * direction.coords[j]
            out.append(h)
        else:
            sign = measure._axis_sign(direction, body.dim)
            t_lo, t_hi, r_max = oracle.bounding_cylinder(body)
            t = t_lo + (t_hi - t_lo) * gen.random(m)
            radial2 = r_max * r_max * gen.random(m) ** (2.0 / (body.dim - 1))
            lo, hi = body.support
            inside = (t >= lo) & (t <= hi) & (radial2 <= body.radius_at(t) ** 2)
            out.append(sign * t[inside])
    return np.concatenate(out)


@pytest.mark.parametrize("samples", [1000, 65537, 1000003])
@pytest.mark.parametrize(
    "kind", ["polytope2", "polytope3", "profile2", "profile3", "profile4", "profile5"]
)
def test_counts_in_place_equal_the_compacting_reference(kind, samples):
    body, d = _sampler_case(kind)
    h = reference_inside_heights(body, d, samples, 11)
    t = float(h.mean())  # a height no sample sits on
    above, inside = int(np.count_nonzero(h >= t)), len(h)
    assert oracle.mc_cut_counts(body, d, t, samples, 11) == (above, inside)
    region = oracle.region_volume(body)
    assert oracle.mc_cut_volume(body, d, t, samples, 11).value == region * (above / samples)
    assert oracle.mc_volume(body, samples, 11).value == region * (inside / samples)


def test_oracle_radius_equals_the_interpolated_radius():
    """Off the knots, the minimum of the affine pieces is ``np.interp``'s
    value bit for bit on a concave radius."""
    gen = oracle.rng_for(3, shard=1)
    for seed in range(200):
        body = oracle.random_profile(2 + seed % 5, 2 + seed % 9, seed)
        lo, hi = body.support
        t = lo + (hi - lo) * gen.random(100_000)
        t = t[~np.isin(t, body.heights())]
        got = oracle._radius(t, oracle._radius_pieces(body))
        assert np.array_equal(got, body.radius_at(t))
