"""50-digit mpmath references for the profile integral kernel and the
constants at large n, where a float binomial expansion would cancel and
unscaled cone radii would underflow."""

import math

import mpmath
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
