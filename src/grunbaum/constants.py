"""Sharp constants for volume cuts and sections of centered convex bodies.

``c1``/``c2`` bound the volume fraction cut off by the hyperplane at
relative height alpha; ``d_const`` bounds the section at that hyperplane
against the maximal parallel section.  The only non-closed-form quantity
is the supremum branch of ``c2`` for alpha > 0, taken over the family of
truncated cones.

The truncated-cone family is indexed by z = b/m (the ratio of the radius
intercept to its slope) on (-inf, -1] U [0, inf).  Evaluating the cut
fraction directly in z cancels catastrophically for large |z|, so
internally every cone is reparametrized by s in [0, 1] via its homothety
coefficient lambda = 1 + 1/z, s = lambda/(1+lambda): the radius is then
r(t) = (1-s)(1-t) + s*t on [0, 1], a two-knot profile whose integrals come
from the same cancellation-free kernel as every profile body in
``bodies``, on the whole closed interval, slab (s=1/2) and cone
(s in {0, 1}) endpoints included.  Cut fractions do not depend on scale,
so both radii are divided by the larger one first: the kernel's largest
term is then 1 and nothing underflows at any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bodies import _lin_pow_integrals

#: method tags for C2Result
CLOSED_FORM_NEG_ALPHA = "closed_form_neg_alpha"
CLOSED_FORM_N2 = "closed_form_n2"
NUMERIC_SUP = "numeric_sup"

_SCAN_POINTS = 4097


def _check_n(n: int) -> int:
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    return int(n)


def _check_alpha(alpha: float, n: int) -> float:
    alpha = float(alpha)
    if not -1.0 < alpha < n:
        raise ValueError(f"alpha must lie in (-1, {n}), got {alpha}")
    return alpha


def grunbaum_bound(n: int) -> float:
    """Lower bound (n/(n+1))**n on the volume fraction cut at the centroid."""
    n = _check_n(n)
    return (n / (n + 1)) ** n


def makai_martini_bound(n: int) -> float:
    """Lower bound (n/(n+1))**(n-1) on centroid section over maximal section."""
    n = _check_n(n)
    return (n / (n + 1)) ** (n - 1)


def c1(alpha: float, n: int) -> float:
    """Sharp lower bound on the cut volume fraction at relative height alpha."""
    n = _check_n(n)
    alpha = _check_alpha(alpha, n)
    if alpha <= 0.0:
        return ((n - alpha) / (n + 1)) ** n
    if alpha < 1.0 / n:
        return (n / (n + 1)) ** n * (alpha + 1.0) ** (n - 1) * (1.0 - alpha * n)
    return 0.0


def d_const(alpha: float, n: int) -> float:
    """Sharp lower bound on section at height alpha over the maximal section."""
    n = _check_n(n)
    alpha = _check_alpha(alpha, n)
    if alpha <= 0.0:
        return (n * (alpha + 1.0) / (n + 1)) ** (n - 1)
    if alpha <= 1.0 / n:
        return ((n - alpha) / (n + 1)) ** (n - 1)
    return 0.0


def beta0(alpha: float, n: int) -> float:
    """The base height minimizing the double-cone cut fraction."""
    n = _check_n(n)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0 / n:
        raise ValueError(f"beta0 requires alpha in (0, 1/{n}), got {alpha}")
    return (n + 1) * alpha / (alpha + 1.0)


def psi(beta: float, alpha: float, n: int) -> float:
    """Cut fraction of the normalized double cone with base at height beta."""
    n = _check_n(n)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0 / n:
        raise ValueError(f"psi requires alpha in (0, 1/{n}), got {alpha}")
    beta = float(beta)
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    g_m = (alpha + 1.0) * (beta * (n - 1) + 1.0) / (n + 1)
    threshold = (alpha + 1.0) / (2.0 - (n - 1) * alpha)
    if beta <= threshold:
        return (1.0 - g_m) ** n / (1.0 - beta) ** (n - 1)
    return 1.0 - g_m**n / beta ** (n - 1)


# ---------------------------------------------------------------------------
# the truncated-cone cut fraction, stable over the compactified family


def _z_to_s(z: float) -> float:
    if math.isinf(z):
        return 0.5
    return (z + 1.0) / (2.0 * z + 1.0)


def _s_to_z(s: float) -> float:
    d = 2.0 * s - 1.0
    if abs(d) < 1e-15:
        return math.inf
    return (1.0 - s) / d


def _s_to_lambda(s: float) -> float:
    if s >= 1.0:
        return math.inf
    return s / (1.0 - s)


def _cone_radii(s):
    """End radii (1-s, s) of the cone indexed by s, divided by the larger.

    Floats stay floats: numpy scalars would triple the cost of the
    golden-section refinement.
    """
    top = np.maximum(s, 1.0 - s) if np.ndim(s) else max(s, 1.0 - s)
    return (1.0 - s) / top, s / top


def _phi(s, alpha: float, n: int):
    """Cut fraction of the cone r(t) = (1-s)(1-t) + s*t on [0, 1] above the
    height G = (alpha+1) times its centroid height.

    Clamping G to [0, 1] covers the cuts outside the body: the tail is 0 at
    G = 1 and the whole volume at G = 0.
    """
    r0, r1 = _cone_radii(s)
    i0, i1 = _lin_pow_integrals(r0, r1, 1.0, n)
    g = (alpha + 1.0) * i1 / i0
    big_g = np.clip(g, 0.0, 1.0) if np.ndim(g) else min(max(g, 0.0), 1.0)
    r_g = r0 * (1.0 - big_g) + r1 * big_g
    tail, _ = _lin_pow_integrals(r_g, r1, 1.0 - big_g, n)
    return tail / i0


def _check_z(z: float) -> float:
    z = float(z)
    if -1.0 < z < 0.0:
        raise ValueError(f"z must lie in (-inf, -1] or [0, inf), got {z}")
    return z


def g_sub_l(z: float, alpha: float, n: int) -> float:
    """Scaled centroid height (alpha+1)*g of the truncated cone indexed by z."""
    n = _check_n(n)
    z = _check_z(z)
    i0, i1 = _lin_pow_integrals(*_cone_radii(_z_to_s(z)), 1.0, n)
    return (alpha + 1.0) * i1 / i0


def phi(z: float, alpha: float, n: int) -> float:
    """Volume fraction of the truncated cone above its alpha-cut, clamped to [0, 1]."""
    n = _check_n(n)
    z = _check_z(z)
    return float(_phi(_z_to_s(z), float(alpha), n))


def c2_closed_n2(alpha: float) -> float:
    """Closed form of the planar supremum branch, valid for alpha in (0, 2)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"the closed form needs alpha in (0, 2), got {alpha}")
    if alpha < 1.0:
        return (5.0 - 3.0 * alpha) / (9.0 * (alpha + 1.0))
    return (2.0 - alpha) ** 2 / 9.0


@dataclass(frozen=True)
class C2Result:
    """The sharp upper cut-fraction bound and the cone attaining it.

    ``argmax_lambda`` is the homothety coefficient of the extremal truncated
    cone (0 = cone with apex on top, inf = cone with apex at the bottom), and
    ``argmax_z`` the same cone as z = 1/(lambda - 1).  Where the cut
    fraction is flat to rounding around its maximum, this is one of many
    cones whose cut fraction equals ``value`` to rounding.
    """

    value: float
    argmax_z: float
    argmax_lambda: float
    method: str


@dataclass(frozen=True)
class BoundsTriple:
    c1: float
    c2: C2Result
    d: float


def _golden_max(f, a, b, xtol=1e-12):
    """Golden-section search for the maximum of a unimodal f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while d - c > xtol * max(1.0, abs(c) + abs(d)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _numeric_sup(alpha: float, n: int) -> tuple[float, float]:
    """Scan the compactified cone family, refine the scan's best point.

    One golden-section search runs between the best grid point's two
    neighbours; the grid point stands where the search ends lower, as on
    stretches that are flat to rounding or clamped to zero.
    """
    grid = np.linspace(0.0, 1.0, _SCAN_POINTS)
    vals = _phi(grid, alpha, n)
    i = int(np.argmax(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, _SCAN_POINTS - 1)])
    s_star, v_star = _golden_max(lambda s: _phi(s, alpha, n), lo, hi)
    if v_star < vals[i]:
        return float(vals[i]), float(grid[i])
    return v_star, s_star


def c2_numeric_sup(alpha: float, n: int) -> C2Result:
    """The supremum branch evaluated numerically (any alpha, any n >= 2)."""
    n = _check_n(n)
    alpha = _check_alpha(alpha, n)
    value, s_star = _numeric_sup(alpha, n)
    return C2Result(
        value=value,
        argmax_z=_s_to_z(s_star),
        argmax_lambda=_s_to_lambda(s_star),
        method=NUMERIC_SUP,
    )


@lru_cache(maxsize=4096)
def c2(alpha: float, n: int) -> C2Result:
    """Sharp upper bound on the cut volume fraction at relative height alpha.

    For alpha <= 0 the bound is closed-form and attained by the cone with
    apex at the bottom (lambda = inf).  For alpha > 0 it is the supremum
    over truncated cones; in the plane the supremum has a closed form that
    the numeric search must reproduce to 1e-6.
    """
    n = _check_n(n)
    alpha = _check_alpha(alpha, n)
    if alpha <= 0.0:
        value = 1.0 - (n * (alpha + 1.0) / (n + 1)) ** n
        return C2Result(value, argmax_z=0.0, argmax_lambda=math.inf, method=CLOSED_FORM_NEG_ALPHA)
    numeric = c2_numeric_sup(alpha, n)
    if n == 2:
        closed = c2_closed_n2(alpha)
        if abs(closed - numeric.value) > 1e-6:
            raise ArithmeticError(
                f"numeric supremum {numeric.value!r} disagrees with the planar "
                f"closed form {closed!r} at alpha={alpha}"
            )
        return C2Result(closed, numeric.argmax_z, numeric.argmax_lambda, CLOSED_FORM_N2)
    return numeric


def bounds(alpha: float, n: int) -> BoundsTriple:
    """All three sharp constants at (alpha, n)."""
    return BoundsTriple(c1=c1(alpha, n), c2=c2(alpha, n), d=d_const(alpha, n))
