"""50-digit mpmath references for the profile integral kernel and the
constants at large n, where a float binomial expansion would cancel and
unscaled cone radii would underflow."""

import math

import mpmath
import numpy as np
import pytest

from grunbaum import constants as C
from grunbaum import verify
from grunbaum.bodies import MAX_PROFILE_DIM, CutSpec, Direction, _lin_pow_integrals
from grunbaum.extremal import grunbaum_cone, upper_extremizer

DIMS = (2, 10, 50, 200)


def _mp_integrals(r0, r1, h, n):
    """Integrals of r**(n-1) and u * r**(n-1) over [0, h], r linear from r0 to r1."""
    with mpmath.workdps(50):
        r0, r1, h = mpmath.mpf(r0), mpmath.mpf(r1), mpmath.mpf(h)

        def r(u):
            return r0 + (r1 - r0) * u / h

        return (
            mpmath.quad(lambda u: r(u) ** (n - 1), [0, h]),
            mpmath.quad(lambda u: u * r(u) ** (n - 1), [0, h]),
        )


def _mp_cone_cut_fraction(lam, alpha, n):
    """Cut fraction of the cone r(t) = 1 + (lam-1) t on [0, 1] (r(t) = t for
    lam = inf) above (alpha+1) times its centroid height."""
    with mpmath.workdps(50):
        if math.isinf(lam):
            def r(t):
                return t
        else:
            lam = mpmath.mpf(lam)

            def r(t):
                return 1 + (lam - 1) * t

        i0 = mpmath.quad(lambda t: r(t) ** (n - 1), [0, 1])
        i1 = mpmath.quad(lambda t: t * r(t) ** (n - 1), [0, 1])
        big_g = (alpha + 1) * i1 / i0
        if big_g >= 1:
            return mpmath.mpf(0)
        return mpmath.quad(lambda t: r(t) ** (n - 1), [big_g, 1]) / i0


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize(
    "r0, r1, h",
    [(1.0, 0.0, 1.0), (0.0, 1.0, 2.5), (0.7, 0.7, 0.3), (1.0, 0.3, 1.0), (0.2, 1.7, 0.5)],
)
def test_kernel_matches_mpmath(r0, r1, h, n):
    got = _lin_pow_integrals(r0, r1, h, n)
    want = _mp_integrals(r0, r1, h, n)
    for g, w in zip(got, want):
        assert g == pytest.approx(float(w), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", DIMS + (430,))
def test_grunbaum_cone_cut_ratio(n):
    ratio = verify.cut_ratio(grunbaum_cone(n), CutSpec(Direction.axis(n), 0.0))
    with mpmath.workdps(50):
        want = float((mpmath.mpf(n) / (n + 1)) ** n)
    assert abs(ratio - want) <= 1e-12


@pytest.mark.parametrize(
    "alpha, n",
    [
        (0.3, 2), (1.0, 2), (0.05, 10), (1.0, 10), (0.3, 50), (1.0, 50), (0.3, 200),
        (0.3, 1100), (1.0, 5000),
    ],
)
def test_c2_at_large_n(alpha, n):
    res = C.c2(alpha, n)
    assert res.value <= C.c2(0.0, n).value
    assert res.value == pytest.approx(
        float(_mp_cone_cut_fraction(res.argmax_lambda, alpha, n)), abs=1e-12
    )
    if n <= MAX_PROFILE_DIM:
        body = upper_extremizer(alpha, n)
        assert verify.cut_ratio(body, CutSpec(Direction.axis(n), alpha)) == pytest.approx(
            res.value, abs=1e-9
        )


# ---------------------------------------------------------------------------
# the closed-form cone family: exact powers at high precision

HUGE_DIMS = (10, 10**5, 10**9, 10**17)


def _mp_scan_cone(w, alpha, n):
    """Centroid height g and cut fraction of the cone at scan coordinate w,
    from the integrals of its radius power: larger end radius 1, the other
    e^(-L/n), L = |w|/(1-|w|); the larger end on top for w > 0.  The
    moment integral cancels in about log10(n) + 2*log10(1/L) digits."""
    with mpmath.workdps(100 + len(str(n))):
        a = abs(mpmath.mpf(w))
        if a == 0:
            g = mpmath.mpf(1) / 2
            return g, 1 - min(max((alpha + 1) * g, 0), 1)
        n = mpmath.mpf(n)
        if a == 1:
            d, rho_n = mpmath.mpf(1), mpmath.mpf(0)
        else:
            d, rho_n = -mpmath.expm1(-a / (1 - a) / n), mpmath.exp(-a / (1 - a))
        # the integrals of r^(n-1) and u*r^(n-1), u the distance from the larger end
        i0 = (1 - rho_n) / (n * d)
        i1 = ((1 - rho_n) / n - (1 - rho_n * (1 - d)) / (n + 1)) / d**2
        g = 1 - i1 / i0 if w > 0 else i1 / i0
        big_g = min(max((alpha + 1) * g, 0), 1)
        if w > 0:
            return g, (1 - (1 - d * (1 - big_g)) ** n) / (1 - rho_n)
        return g, ((1 - d * big_g) ** n - rho_n) / (1 - rho_n)


def _scan_ws(n):
    """Slab, cones, near-slab, random, and both sides of the series cut-offs."""
    ws = [0.0, 1.0, -1.0, 1e-12, -1e-12, *np.random.default_rng(n).uniform(-1.0, 1.0, 4)]
    for big_l in (n * math.log(8.0 / 7.0), 0.25):  # d = 1/8 and L = 1/4
        for side in (1.0 - 1e-9, 1.0 + 1e-9):
            w = big_l * side / (1.0 + big_l * side)
            ws += [w, -w]
    return [float(w) for w in ws]


@pytest.mark.parametrize(
    "n", (2, 3, 10, 200, 5000, 10**308), ids=("2", "3", "10", "200", "5000", "1e308")
)
def test_scan_cone_matches_exact_powers(n):
    """Also at n = 1e308, where ell = L/n is subnormal near the slab."""
    for w in _scan_ws(n):
        big_l = C._w_to_l(w)
        p = C._cone_terms(big_l, big_l / n, float(n), math)[2]
        for alpha in (0.05, 0.3, 1.0, 1.9):
            g, want = _mp_scan_cone(w, alpha, n)
            assert (1.0 - p if w > 0 else p) == pytest.approx(float(g), rel=1e-14, abs=0.0)
            assert abs(C._phi_w(w, alpha, float(n)) - float(want)) <= 1e-14, (w, alpha)


def _mp_truncated_cone_cut(lam, alpha, n):
    """(r1^n - r_G^n)/(r1^n - r0^n) for the cone r(t) = 1 + (lam-1)t on [0, 1]."""
    with mpmath.workdps(80):
        n = mpmath.mpf(n)
        if math.isinf(lam):  # r(t) = t
            return 1 - min((alpha + 1) * n / (n + 1), 1) ** n
        r1 = mpmath.mpf(lam)
        c = r1 - 1
        if c == 0:
            return max(1 - (alpha + 1) / mpmath.mpf(2), 0)
        i0 = (r1**n - 1) / (n * c)
        i1 = ((r1 ** (n + 1) - 1) / (n + 1) - (r1**n - 1) / n) / c**2
        r_g = 1 + c * min(max((alpha + 1) * i1 / i0, 0), 1)
        return (r1**n - r_g**n) / (r1**n - 1)


@pytest.mark.parametrize("n", (10**5, 10**6, 10**9))
@pytest.mark.parametrize("alpha", (0.05, 0.3, 1.0, 2.5))
def test_c2_finds_its_maximum_at_large_n(alpha, n):
    """The maximizing cone sits about 1/n from the slab in lambda; the scan in
    L = n*|log lambda| finds it at any n."""
    res = C.c2(alpha, n)
    for k in np.logspace(-3, 3, 61):
        for sign in (1.0, -1.0):
            z = 1.0 / math.expm1(sign * k / n)
            assert res.value >= C.phi(z, alpha, n) - 1e-15, (k, sign)
    want = _mp_truncated_cone_cut(res.argmax_lambda, alpha, n)
    assert abs(res.value - float(want)) <= 1e-12


@pytest.mark.parametrize("n", HUGE_DIMS)
def test_closed_forms_at_huge_n(n):
    """No closed form loses ulps in proportion to n."""

    def mp_pow(base, k):
        return float(base**k)

    with mpmath.workdps(50):
        m = mpmath.mpf(n)
        assert C.grunbaum_bound(n) == pytest.approx(mp_pow(m / (m + 1), m), rel=1e-13)
        assert C.makai_martini_bound(n) == pytest.approx(mp_pow(m / (m + 1), m - 1), rel=1e-13)
        for alpha in (-0.5, -2.0 / n, 0.0):
            a = mpmath.mpf(alpha)
            assert C.c1(alpha, n) == pytest.approx(mp_pow((m - a) / (m + 1), m), rel=1e-13)
            assert C.d_const(alpha, n) == pytest.approx(
                mp_pow(m * (a + 1) / (m + 1), m - 1), rel=1e-13
            )
            assert C.c2(alpha, n).value == pytest.approx(
                float(1 - (m * (a + 1) / (m + 1)) ** m), rel=1e-13
            )
        for alpha in (0.5 / n, 0.9 / n):
            a = mpmath.mpf(alpha)
            want = (m / (m + 1)) ** m * (a + 1) ** (m - 1) * (1 - a * m)
            assert C.c1(alpha, n) == pytest.approx(float(want), rel=1e-13)
            assert C.d_const(alpha, n) == pytest.approx(mp_pow((m - a) / (m + 1), m - 1), rel=1e-13)
