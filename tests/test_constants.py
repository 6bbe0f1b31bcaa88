"""Closed forms, the numeric supremum, and the identities tying them together."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grunbaum import constants as C
from grunbaum import verify
from grunbaum.bodies import CutSpec, Direction
from grunbaum.extremal import truncated_cone


def test_c1_values():
    assert C.c1(0.0, 3) == pytest.approx(27.0 / 64.0, abs=1e-15)
    assert C.c1(0.25, 2) == pytest.approx(5.0 / 18.0, abs=1e-15)
    assert C.c1(0.5, 2) == 0.0


def test_c1_rejects_out_of_range():
    with pytest.raises(ValueError):
        C.c1(-1.0, 2)
    with pytest.raises(ValueError):
        C.c1(2.0, 2)


def test_c1_continuity_at_branch_points():
    for n in range(2, 7):
        assert abs(C.c1(1e-6, n) - C.c1(-1e-6, n)) < 1e-4
        assert abs(C.c1(1.0 / n - 1e-9, n)) < 1e-6  # joins the zero branch


def test_d_const_values():
    assert C.d_const(0.0, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert C.d_const(0.25, 2) == pytest.approx(7.0 / 12.0, abs=1e-15)
    assert C.d_const(1.0, 2) == 0.0
    assert C.d_const(0.0, 3) == C.makai_martini_bound(3)


def test_classical_bounds():
    assert C.grunbaum_bound(2) == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert C.grunbaum_bound(3) == pytest.approx(27.0 / 64.0, abs=1e-15)
    assert C.makai_martini_bound(3) == pytest.approx(9.0 / 16.0, abs=1e-15)


def test_grunbaum_bound_is_theorem4_at_alpha_zero():
    """``verify.check_grunbaum`` is ``check_theorem4`` at alpha = 0: there
    c1 is the Grunbaum bound and c2 its complement."""
    for n in [*range(2, 200), 10**3, 10**6, 10**12]:
        bound = C.grunbaum_bound(n)
        assert C.c1(0.0, n) == bound
        assert abs(C.c2(0.0, n).value - (1.0 - bound)) <= math.ulp(1.0 - bound)


def test_beta0_values():
    assert C.beta0(0.25, 2) == pytest.approx(0.6, abs=1e-15)
    assert C.beta0(0.1, 3) == pytest.approx(4.0 / 11.0, abs=1e-15)
    assert C.beta0(1e-9, 2) == pytest.approx(0.0, abs=1e-8)


def test_g_sub_l_special_points():
    alpha, n = 0.3, 3
    assert C.g_sub_l(0.0, alpha, n) == pytest.approx((alpha + 1) * n / (n + 1), abs=1e-14)
    assert C.g_sub_l(-1.0, alpha, n) == pytest.approx((alpha + 1) / (n + 1), abs=1e-14)
    # both infinite tails approach the slab value (alpha+1)/2
    assert C.g_sub_l(1e8, alpha, n) == pytest.approx((alpha + 1) / 2, abs=1e-6)
    assert C.g_sub_l(-1e8, alpha, n) == pytest.approx((alpha + 1) / 2, abs=1e-6)
    assert C.g_sub_l(math.inf, alpha, n) == pytest.approx((alpha + 1) / 2, abs=1e-14)


def test_g_sub_l_matches_rational_form():
    """Same value as the rational expression in z wherever that is stable."""

    def rational(z, alpha, n):
        return (
            (alpha + 1)
            * (z ** (n + 1) + (n - z) * (z + 1) ** n)
            / ((n + 1) * ((z + 1) ** n - z**n))
        )

    for z in (0.0, 0.5, 1.0, 3.7, -1.0, -2.5, -10.0, 55.0):
        for n in (2, 3, 4):
            assert C.g_sub_l(z, 0.4, n) == pytest.approx(rational(z, 0.4, n), rel=1e-11)


def test_gap_z_rejected():
    with pytest.raises(ValueError):
        C.g_sub_l(-0.5, 0.3, 3)
    with pytest.raises(ValueError):
        C.phi(-0.5, 0.3, 3)


def test_phi_at_zero():
    for alpha, n in ((0.3, 3), (0.05, 2), (1.2, 4)):
        expected = 1.0 - min((alpha + 1) * n / (n + 1), 1.0) ** n
        assert C.phi(0.0, alpha, n) == pytest.approx(expected, abs=1e-13)


def test_phi_slab_limit():
    # phi -> (1-alpha)/2 as |z| -> inf, for alpha <= 1
    for alpha in (0.2, 0.8, 1.0):
        assert C.phi(1e9, alpha, 3) == pytest.approx((1 - alpha) / 2, abs=1e-6)
        assert C.phi(math.inf, alpha, 3) == pytest.approx((1 - alpha) / 2, abs=1e-12)
    # clamped to zero beyond alpha = 1
    assert C.phi(math.inf, 1.5, 3) == 0.0


def test_phi_matches_cut_ratio_of_truncated_cone():
    """phi(z) is exactly the cut fraction of the centered cone lambda = 1 + 1/z."""
    for z, alpha, n in ((1.0, 0.5, 2), (2.5, 0.2, 3), (-3.0, 0.7, 3), (0.5, 1.1, 4)):
        lam = 1.0 + 1.0 / z
        body = truncated_cone(lam, n)
        ratio = verify.cut_ratio(body, CutSpec(Direction.axis(n), alpha))
        assert C.phi(z, alpha, n) == pytest.approx(ratio, abs=1e-12)


def test_c2_closed_form_negative_alpha():
    res = C.c2(-0.5, 2)
    assert res.value == pytest.approx(8.0 / 9.0, abs=1e-15)
    assert res.method == C.CLOSED_FORM_NEG_ALPHA
    assert math.isinf(res.argmax_lambda)
    assert res.argmax_z == 0.0


def test_c2_planar_values():
    assert C.c2(1.0, 2).value == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert C.c2(0.5, 2).value == pytest.approx(7.0 / 27.0, abs=1e-12)
    assert C.c2(0.5, 2).method == C.CLOSED_FORM_N2


def test_c2_closed_n2_branches():
    assert C.c2_closed_n2(1.0) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert C.c2_closed_n2(1.0 - 1e-12) == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert C.c2_closed_n2(0.5) == pytest.approx(7.0 / 27.0, abs=1e-15)
    assert C.c2_closed_n2(1e-12) == pytest.approx(5.0 / 9.0, abs=1e-9)
    with pytest.raises(ValueError):
        C.c2_closed_n2(0.0)


def test_c2_numeric_matches_closed_n2():
    for alpha in np.linspace(0.05, 1.95, 21):
        numeric = C.c2_numeric_sup(float(alpha), 2).value
        assert numeric == pytest.approx(C.c2_closed_n2(float(alpha)), abs=1e-6)


def test_c2_continuity_at_zero():
    for n in range(2, 7):
        limit = 1.0 - (n / (n + 1)) ** n
        assert abs(C.c2(1e-6, n).value - limit) <= 1e-4


def test_c2_argmax_lambda_consistent_with_z():
    res = C.c2(0.7, 3)
    z, lam = res.argmax_z, res.argmax_lambda
    assert math.isfinite(z) and z != 0.0
    assert lam == pytest.approx(1.0 + 1.0 / z, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-0.95, 2.9, allow_nan=False),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_c2_dominates_phi(alpha, n, seed):
    """The supremum dominates phi at random admissible z."""
    if alpha >= n:
        alpha = n - 0.05
    value = C.c2(alpha, n).value
    gen = np.random.default_rng(seed)
    zs = np.concatenate([gen.uniform(0, 1000, 200), -1 - gen.uniform(0, 1000, 200)])
    phis = [C.phi(float(z), alpha, n) for z in zs]
    assert value >= max(phis) - 1e-9


def test_psi_minimum_identity():
    """psi(beta0) reproduces the closed form of c1 on (0, 1/n)."""
    gen = np.random.default_rng(42)
    for _ in range(50):
        n = int(gen.integers(2, 7))
        alpha = float(gen.uniform(1e-4, 1.0 / n - 1e-4))
        b0 = C.beta0(alpha, n)
        assert 0.0 < b0 < (alpha + 1.0) / (2.0 - (n - 1) * alpha)
        assert C.psi(b0, alpha, n) == pytest.approx(C.c1(alpha, n), abs=1e-12)


@pytest.mark.parametrize("n", [10, 1000, 1074, 1100, 10**5, 10**9, 10**17])
@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_psi_minimum_identity_at_large_n(n, a):
    """psi(beta0) = c1 where both powers in psi leave the float range."""
    alpha = a / n
    c1 = C.c1(alpha, n)
    assert abs(C.psi(C.beta0(alpha, n), alpha, n) - c1) <= 1e-13 * c1


def test_psi_at_zero_is_cone_value():
    for alpha, n in ((0.25, 2), (0.1, 3), (0.05, 4)):
        assert C.psi(0.0, alpha, n) == pytest.approx(((n - alpha) / (n + 1)) ** n, abs=1e-14)


def test_psi_v_shape_around_beta0():
    """psi decreases before beta0 and increases after it."""
    alpha, n = 0.2, 2
    b0 = C.beta0(alpha, n)
    left = np.linspace(0.0, b0, 30)
    right = np.linspace(b0, 0.999, 30)
    lv = [C.psi(float(b), alpha, n) for b in left]
    rv = [C.psi(float(b), alpha, n) for b in right]
    assert all(a >= b - 1e-12 for a, b in zip(lv, lv[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(rv, rv[1:]))


def test_c2_refines_only_real_maxima(monkeypatch):
    """One golden-section search per alpha > 0 row, bracketing the scan's
    argmax, also where the scan is flat to rounding over hundreds of points
    (large n near the slab)."""
    calls = []
    inner = C._golden_max

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return inner(*args, **kwargs)

    monkeypatch.setattr(C, "_golden_max", counted)
    rows = [(alpha, n) for n in (3, 50, 1100, 10**5, 10**9) for alpha in (0.05, 0.3, 1.0, n - 0.5)]
    for alpha, n in rows + [(0.3, 5000)]:
        calls.clear()
        res = C.c2_numeric_sup(alpha, n)
        assert len(calls) == 1, (alpha, n)
        if (alpha, n) == (0.3, 50):
            assert res.value == pytest.approx(0.350644, abs=1e-6)


@pytest.mark.parametrize(
    "n", (2, 50, 10**5, 10**17, 10**300), ids=("2", "50", "1e5", "1e17", "1e300")
)
def test_scan_matches_float_path(n):
    """The per-n table and the golden-section refinement evaluate the same
    cut fraction, also where d and n are rescaled (n beyond about 1e16)."""
    for alpha in (0.05, 0.7, 1.0, 1.9):
        scan = C._scan(alpha, n)
        floats = [C._phi_w(float(w), alpha, float(n)) for w in C._W_GRID]
        assert np.max(np.abs(scan - floats)) <= 1e-14


def test_dimension_beyond_the_float_range_rejected():
    assert C.c2(0.3, 10**300).value == pytest.approx(C.c2(0.3, 10**17).value, abs=1e-15)
    for fn in (C.c1, C.d_const, C.c2):
        for alpha in (0.3, -0.5):
            with pytest.raises(ValueError, match="largest float"):
                fn(alpha, 10**400)


def test_c1_below_c2():
    for n in (2, 3, 4, 5):
        for alpha in np.linspace(-0.9, n - 0.1, 25):
            assert C.c1(float(alpha), n) < C.c2(float(alpha), n).value


def test_bounds_triple():
    triple = C.bounds(0.3, 3)
    assert 0.0 <= triple.c1 < triple.c2.value
    assert 0.0 <= triple.d <= 1.0
