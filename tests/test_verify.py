"""The verification engine: centering, ratios, checks, and the fuzz harness."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grunbaum import constants as C
from grunbaum import extremal as E
from grunbaum import bodies, measure, oracle, verify
from grunbaum.bodies import AnalyticProfile, CutSpec, Direction, Polytope, SlabProfile, dilate


AXIS2 = Direction.axis(2)


def test_center_cone_knots():
    cone = AnalyticProfile(2, ((0.0, 1.0), (1.0, 0.0)))
    centered = verify.center(cone)
    assert centered.knots[0][0] == pytest.approx(-1.0 / 3.0, abs=1e-13)
    assert centered.knots[1][0] == pytest.approx(2.0 / 3.0, abs=1e-13)


def test_center_idempotent():
    body = oracle.random_profile(3, 6, 3)
    once = verify.center(body)
    twice = verify.center(once)
    assert np.allclose(once.heights(), twice.heights(), atol=1e-12)


def test_center_triangle():
    tri = Polytope(2, ((0, 0), (1, 0), (0, 1)))
    centered = verify.center(tri)
    assert centered.vertices[0] == pytest.approx((-1.0 / 3.0, -1.0 / 3.0))
    assert measure.centroid(centered) == pytest.approx((0.0, 0.0), abs=1e-14)


def test_cut_ratio_examples():
    assert verify.cut_ratio(E.grunbaum_cone(2), CutSpec(AXIS2, 0.0)) == pytest.approx(
        4.0 / 9.0, abs=1e-12
    )
    assert verify.cut_ratio(E.grunbaum_cone(2), CutSpec(AXIS2, -0.999)) == pytest.approx(
        1.0, abs=1e-2
    )
    assert verify.cut_ratio(E.reflected_grunbaum_cone(2), CutSpec(AXIS2, 0.5)) == 0.0


def test_section_ratio_examples():
    assert verify.section_ratio(
        E.theorem5_equality_cone(0.25, 2), CutSpec(AXIS2, 0.25)
    ) == pytest.approx(7.0 / 12.0, abs=1e-12)
    # a cut through the maximizer gives ratio 1
    body = E.double_cone(0.4, 2)
    centered = verify.center(body)
    t0, _ = measure.max_section(centered, AXIS2)
    alpha = t0 / measure.support(centered, AXIS2.negated())
    assert verify.section_ratio(body, CutSpec(AXIS2, alpha)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("eps", np.logspace(-17, -6, 12))
def test_section_ratio_at_near_tied_vertex_heights(eps):
    """Vertex heights a few ulps to 1e-6 apart: the triangle and tetrahedron
    (cones) read their exact ratio, d(0, n) + O(eps), and the cube 1."""
    tri = Polytope(2, ((0, 0), (1, 0), (0, 1)))
    tet = Polytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    cube = Polytope(3, tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)))
    a, b = 1.2 * eps, 0.84 * eps
    cases = [
        (tri, (eps, 1.0), (2.0 - eps) / (3.0 * (1.0 - eps)), C.bounds(0.0, 2).d),
        # up to a relative O(eps**2): the maximum sits just below height a
        (tet, (a, b, 1.0), (9.0 / 16.0) * ((1.0 - (a + b) / 3.0) / (1.0 - a)) ** 2, 0.5625),
        (cube, (1.0, eps, 0.7 * eps), 1.0, 1.0),
    ]
    for body, vec, exact, bound in cases:
        ratio = verify.section_ratio(body, CutSpec(Direction.from_vector(vec), 0.0))
        assert ratio == pytest.approx(exact, abs=1e-9)
        assert abs(exact - bound) <= eps + 1e-15
        assert verify.check_theorem5(body, CutSpec(Direction.from_vector(vec), 0.0)).passed


def test_check_theorem4_sharpness():
    rep = verify.check_theorem4(E.lower_extremizer(0.2, 2), CutSpec(AXIS2, 0.2))
    assert rep.passed and rep.equality
    assert rep.measured == pytest.approx(rep.lower, abs=1e-8)
    rep = verify.check_theorem4(E.upper_extremizer(0.8, 2), CutSpec(AXIS2, 0.8))
    assert rep.passed and rep.equality
    assert rep.measured == pytest.approx(rep.upper, abs=1e-6)


def test_check_theorem5_equality_and_trivial_branch():
    rep = verify.check_theorem5(E.theorem5_equality_cone(0.3, 3), CutSpec(Direction.axis(3), 0.3))
    assert rep.passed and rep.measured == pytest.approx(rep.lower, abs=1e-8)
    # alpha beyond 1/n: the bound is zero and holds trivially
    body = oracle.random_profile(3, 5, 8)
    rep = verify.check_theorem5(body, CutSpec(Direction.axis(3), 2.0))
    assert rep.passed and rep.lower == 0.0


def test_check_grunbaum_cube():
    cube = Polytope(3, tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)))
    rep = verify.check_grunbaum(cube, Direction((0.0, 0.0, 1.0)))
    assert rep.passed
    assert rep.measured == pytest.approx(0.5, abs=1e-12)


def test_check_grunbaum_is_theorem4_at_alpha_zero():
    for body, d in (
        (E.grunbaum_cone(3), Direction.axis(3)),
        (oracle.random_polytope(2, 10, 5), Direction.from_vector((1.0, 0.4))),
    ):
        assert verify.check_grunbaum(body, d) == verify.check_theorem4(body, CutSpec(d, 0.0))


def test_max_section_and_section_ratio_are_scale_free():
    """The leftmost maximum is found to one relative threshold, and the
    maximal area itself is returned, at every scale.  A polytope's maximum
    may be smooth, where the leftmost height within 1e-13 of it moves by
    about 1e-10 of the support when rounding changes (dilating the
    vertices rounds them): its maximizer is compared to 1e-9."""
    cases = [
        (AnalyticProfile(3, ((0, 0), (0.4, 0.999995), (0.6, 1), (1, 0))), Direction.axis(3), 1e-12),
        (oracle.random_polytope(3, 12, 17), Direction.from_vector((0.2, -0.5, 1.0)), 1e-9),
    ]
    for body, d, maximizer_tol in cases:
        ratios, maximizers = [], []
        for f in (1e-8, 1.0, 1e8):
            scaled = dilate(body, f)
            ratios.append(verify.section_ratio(scaled, CutSpec(d, 0.05)))
            maximizers.append(measure.max_section(scaled, d)[0] / f)
        assert max(ratios) - min(ratios) <= 1e-12
        assert max(ratios) <= 1.0
        lo, hi = measure.section_table(body, d).support
        assert max(maximizers) - min(maximizers) <= maximizer_tol * (hi - lo)


def test_check_minkowski_radon_cone_equality():
    rep = verify.check_minkowski_radon(E.grunbaum_cone(3), Direction.axis(3))
    assert rep.passed
    assert rep.measured == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.equality


def test_check_concavity_negative_control():
    bad = AnalyticProfile(2, ((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
    rep = verify.check_concavity(bad, AXIS2, "A")
    assert not rep.passed
    assert rep.measured > 1e-3


def test_check_concavity_cone_is_equality_case():
    rep = verify.check_concavity(E.grunbaum_cone(3), Direction.axis(3), "A")
    assert rep.passed and abs(rep.measured) < 1e-12
    rep = verify.check_concavity(E.grunbaum_cone(3), Direction.axis(3), "V")
    assert rep.passed


@pytest.mark.parametrize("which", ["A", "V"])
def test_concavity_verdict_is_scale_free(which):
    """Both roots scale linearly under dilation, so the measured violation
    and the verdict do not depend on the body's size."""
    thin_wide_cone = AnalyticProfile(20, ((0.0, 1e15), (1e-170, 0.0)))
    cases = [
        (oracle.random_polytope(3, 12, 3), Direction.from_vector((0.3, -1.0, 0.5)), 1e8),
        (oracle.random_profile(4, 6, 8), Direction.axis(4), 1e8),
        # dilated by 1e8 its radius**19 would overflow: 10 is about the largest factor
        (thin_wide_cone, Direction.axis(20), 10.0),
    ]
    for body, d, big in cases:
        reps = [verify.check_concavity(dilate(body, f), d, which) for f in (1e-6, 1.0, big)]
        assert all(r.passed for r in reps)
        assert max(r.measured for r in reps) - min(r.measured for r in reps) < 1e-12
    corrupted = AnalyticProfile(2, ((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
    for f in (1e-6, 1.0, 1e8):
        assert not verify.check_concavity(dilate(corrupted, f), AXIS2, "A").passed


TRI = Polytope(2, ((0, 0), (1, 0), (0, 1)))
TET = Polytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
CUBE = Polytope(3, tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)))
PRISM = Polytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 2), (0, 1, 2)))
#: a cone whose radius has a knot where its slope does not change
REDUNDANT_KNOT_CONE = AnalyticProfile(3, ((0.0, 1.0), (0.5, 0.5), (1.0, 0.0)))


def _equality_corpus():
    """Bodies on which the concavity conditions hold with equality
    somewhere: cones at nearly tied vertex heights, a prism, the extremal
    profiles up to n = 400, and a cone with a redundant knot."""
    cases = [("prism", PRISM, Direction.from_vector((0.3, 0.2, 1.0)))]
    for eps in (1e-17, 1e-15, 1e-12, 1e-9, 1e-6):
        cases += [
            (f"tet-{eps}", TET, Direction.from_vector((1.2 * eps, 0.84 * eps, 1.0))),
            (f"tri-{eps}", TRI, Direction.from_vector((eps, 1.0))),
            (f"cube-{eps}", CUBE, Direction.from_vector((1.0, eps, 0.7 * eps))),
        ]
    for n in (2, 3, 5, 50, 150, 400):
        axis = Direction.axis(n)
        cases += [
            (f"cone-{n}", E.grunbaum_cone(n), axis),
            (f"reflected-cone-{n}", E.reflected_grunbaum_cone(n), axis),
            (f"double-cone-{n}", E.double_cone(0.3, n), axis),
            (f"upper-{n}", E.upper_extremizer(0.5, n), axis),
            (f"redundant-knot-{n}", AnalyticProfile(n, REDUNDANT_KNOT_CONE.knots), axis),
        ]
    return cases


def _dilations(body):
    """1e-6, 1 and 1e8, each replaced by a milder factor where the dilated
    body's volume would leave the normal floats."""

    def first(factors):
        for f in factors:
            try:
                measure.volume(dilate(body, f))
                return f
            except measure.DegenerateBodyError:
                pass

    return first((1e-6, 0.5, 0.9)), 1.0, first((1e8, 10.0, 1.1))


@pytest.mark.parametrize(
    "body, direction", [pytest.param(*case[1:], id=case[0]) for case in _equality_corpus()]
)
def test_concavity_equality_corpus(body, direction):
    """On bodies where the conditions are tight both concavity reports
    pass and read 0 up to rounding, and ``validate`` accepts the table, at
    every scale."""
    for f in _dilations(body):
        scaled = dilate(body, f)
        assert bodies.validate(measure.section_table(scaled, direction)) == []
        for which in ("A", "V"):
            rep = verify.check_concavity(scaled, direction, which)
            assert rep.passed and abs(rep.measured) <= 1e-12, (f, rep)


def _slab_controls():
    return {
        # sqrt(A) convex on a slab narrower than any sampling grid
        "narrow": SlabProfile(3, (0, 0.001, 1), (1, 1), (0.5, 1), (1, 0)),
        "dip": SlabProfile(3, (0, 0.001, 1), (1, 1), (-2, 1), (1, 0)),  # A < 0 inside a slab
        "kink": SlabProfile(3, (0, 1, 2), (1, 1), (1, 2), (1, 3)),  # flat, then rising
        "jump": SlabProfile(3, (0, 1, 2), (1, 0.5), (1, 0.5), (1, 0.5)),
    }


@pytest.mark.parametrize("name", ["narrow", "dip", "kink", "jump"])
def test_check_concavity_slab_negative_controls(name):
    rep = verify.check_concavity(_slab_controls()[name], Direction.axis(3), "A")
    assert not rep.passed and rep.measured > 0.1


def test_check_concavity_V_fails_on_raised_tails():
    """Every tail volume of a 3-D polytope's table raised by 1e-6 of the
    volume: V^(1/3) bends the wrong way at the apex."""
    body = oracle.random_polytope(3, 12, 3)
    table = measure.section_table(body, Direction.from_vector((0.3, -1.0, 0.5)))
    copy = SlabProfile(3, table.edges, table.b0, table.b1, table.b2)
    assert verify.check_concavity(copy, Direction.axis(3), "V").measured < 1e-15
    object.__setattr__(copy, "_tails", copy._tails + 1e-6 * copy.volume())
    rep = verify.check_concavity(copy, Direction.axis(3), "V")
    assert not rep.passed and rep.measured > 1e-7
    # a drop of the area at an inner edge breaks V as well
    assert not verify.check_concavity(_slab_controls()["jump"], Direction.axis(3), "V").passed


def test_check_concavity_V_fails_on_raised_profile_cut_volume(monkeypatch):
    """On a cone the profile V test holds with equality at every knot;
    the cut volume beyond the redundant knot raised by 1e-6 (relative)
    breaks it."""
    axis = Direction.axis(3)
    assert abs(verify.check_concavity(REDUNDANT_KNOT_CONE, axis, "V").measured) <= 1e-15
    integrals = bodies._lin_pow_integrals

    def raised(*args):
        i0, i1 = integrals(*args)
        return i0 * (1.0 + 1e-6), i1

    monkeypatch.setattr(bodies, "_lin_pow_integrals", raised)
    rep = verify.check_concavity(REDUNDANT_KNOT_CONE, axis, "V")
    assert not rep.passed and rep.measured == pytest.approx(1e-6, rel=1e-6)


def test_check_concavity_rejects_bad_which():
    with pytest.raises(ValueError):
        verify.check_concavity(E.grunbaum_cone(2), AXIS2, "X")


def test_report_json_round_trip():
    rep = verify.check_theorem4(E.grunbaum_cone(2), CutSpec(AXIS2, 0.1))
    assert verify.report_from_json(rep.to_json()) == rep
    obj = json.loads(rep.to_json())
    assert set(obj) == {
        "quantity",
        "measured",
        "lower",
        "upper",
        "tolerance",
        "backend",
        "pass",
        "equality",
        "context",
    }


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), factor=st.sampled_from((0.5, 2.0, 10.0)))
def test_ratios_invariant_under_dilation(seed, factor):
    body = oracle.random_profile(3, 6, seed)
    cut = CutSpec(Direction.axis(3), 0.4)
    assert verify.cut_ratio(dilate(body, factor), cut) == pytest.approx(
        verify.cut_ratio(body, cut), abs=1e-10
    )
    assert verify.section_ratio(dilate(body, factor), cut) == pytest.approx(
        verify.section_ratio(body, cut), abs=1e-10
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cut_ratio_invariant_under_symmetrization(seed):
    body = oracle.random_polytope(3, 10, seed)
    vec = oracle.rng_for(seed, shard=6).standard_normal(3)
    d = Direction.from_vector(vec)
    sym = measure.schwarz_symmetral(verify.center(body), d)
    for alpha in (-0.5, 0.2, 1.1):
        a = verify.cut_ratio(body, CutSpec(d, alpha))
        b = verify.cut_ratio(sym, CutSpec(Direction.axis(3), alpha))
        assert a == pytest.approx(b, abs=1e-9)


def test_cut_ratio_monotone_in_alpha():
    """Sanity property, not one of the stated bounds: raising the cut can
    only shrink the half-space, so the ratio is nonincreasing in alpha."""
    for seed in (0, 5):
        body = oracle.random_profile(2, 6, seed)
        alphas = np.linspace(-0.9, 1.9, 33)
        vals = [verify.cut_ratio(body, CutSpec(AXIS2, float(a))) for a in alphas]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


def test_mc_backend_check():
    body = oracle.random_polytope(3, 10, 123)
    cut = CutSpec(Direction.from_vector((1.0, 1.0, 0.5)), 0.3)
    rep = verify.check_theorem4(body, cut, backend=verify.MONTE_CARLO, mc_samples=50_000, seed=9)
    assert rep.backend == "monte_carlo"
    assert rep.passed
    lo, hi = rep.context["interval"]
    assert lo <= verify.cut_ratio(body, cut) <= hi  # 4 sigma twin agreement
    assert rep.tolerance == pytest.approx(0.5 * (hi - lo), rel=1e-12)
    assert 0 < rep.context["inside"] <= rep.context["samples"] == 50_000
    assert rep.context["generator"] == oracle.GENERATOR_NAME
    inside = rep.context["inside"]
    assert round(rep.measured * inside) / inside == rep.measured  # hits above / hits inside


def _mc_report(body, direction, alpha, seed, samples=100_000):
    cut = CutSpec(direction, alpha)
    return verify.check_theorem4(
        body, cut, backend=verify.MONTE_CARLO, mc_samples=samples, seed=seed
    )


def test_mc_every_hit_above_the_cut_keeps_a_band():
    """At alpha near -1 every inside hit lies above the cut (measured 1.0),
    while c2 < 1: a zero-width band would fail the check."""
    body = oracle.random_polytope(2, 10, 0)
    direction = Direction.from_vector(oracle.rng_for(0, shard=1).standard_normal(2))
    rep = _mc_report(body, direction, -0.999, 0)
    assert rep.measured == 1.0
    assert rep.upper < 1.0 - 1e-9
    lo, hi = rep.context["interval"]
    assert lo < rep.upper and hi == 1.0
    assert rep.tolerance > 1e-6
    assert rep.passed


def test_mc_empty_cut_reports_a_band():
    body = oracle.random_polytope(2, 10, 0)
    direction = Direction.from_vector(oracle.rng_for(0, shard=1).standard_normal(2))
    rep = _mc_report(body, direction, 1.999, 0)
    assert rep.measured == 0.0
    lo, hi = rep.context["interval"]
    assert lo == 0.0 and hi > 1e-12
    assert rep.tolerance > 1e-12
    assert rep.passed


def test_mc_interval_coverage():
    """The exact cut ratio lies in the 4-sigma Wilson interval in >= 99% of
    300 fixed-seed (body, alpha) trials at 1e5 samples."""
    gen = oracle.rng_for(20261018)
    outside = 0
    for trial in range(300):
        seed = 5000 + trial
        if trial % 3 == 2:
            body = oracle.random_polytope(2 + trial % 2, 10, seed)
            direction = Direction.from_vector(oracle.rng_for(seed, shard=1).standard_normal(body.dim))
        else:
            body = oracle.random_profile(2 + trial % 4, 5, seed)
            direction = Direction.axis(body.dim)
        alpha = verify._stratified_alphas(gen, body.dim, trial % 3 + 1)[-1]
        rep = _mc_report(body, direction, alpha, seed)
        lo, hi = rep.context["interval"]
        exact = verify.cut_ratio(body, CutSpec(direction, alpha))
        outside += not lo <= exact <= hi
    assert outside <= 3


def test_exact_checks_build_one_hull_and_one_slab_table():
    """The exact checks of one fresh 3-D polytope read the body's own hull
    and slab table; no centered copy of the body is built."""
    body = oracle.random_polytope(3, 12, 4242)
    d = Direction.from_vector((0.4, 1.0, -0.7))
    measure._hull_data.cache_clear()
    measure._poly_slabs.cache_clear()
    reports = []
    verify._fuzz_one_body(body, d, 4242, verify.FuzzConfig(mc_samples=0), reports)
    assert len(reports) == 11 and all(r.passed for r in reports)
    assert measure._hull_data.cache_info().misses == 1
    assert measure._poly_slabs.cache_info().misses == 1


def test_fuzz_suite_small_run_passes():
    cfg = verify.FuzzConfig(
        dims=(2, 3), profiles_per_dim=5, polytopes_per_dim=5, mc_samples=20_000, seed=11
    )
    rep = verify.fuzz_suite(cfg)
    assert rep.all_passed, rep.summary()
    assert rep.total > 0


def test_fuzz_suite_reproducible():
    cfg = verify.FuzzConfig(dims=(2,), profiles_per_dim=3, polytopes_per_dim=3, seed=21)
    assert verify.fuzz_suite(cfg).reports == verify.fuzz_suite(cfg).reports


def test_fuzz_suite_empty_config():
    rep = verify.fuzz_suite(verify.FuzzConfig(dims=(), profiles_per_dim=0, polytopes_per_dim=0))
    assert rep.total == 0
    assert rep.all_passed
    assert rep.reports == ()
