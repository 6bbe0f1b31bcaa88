"""Sharp constants for volume cuts and sections of centered convex bodies.

``c1``/``c2`` bound the volume fraction cut off by the hyperplane at
relative height alpha; ``d_const`` bounds the section at that hyperplane
against the maximal parallel section.  The only non-closed-form quantity
is the supremum branch of ``c2`` for alpha > 0, taken over the family of
truncated cones.

The closed forms all raise a base within O(1/n) of 1 to a power near n.
Rounding that base costs n ulps, so each power is taken as
exp(k*log1p(x)) with x formed without rounding the base.

The truncated-cone family is indexed by z = b/m (the ratio of the radius
intercept to its slope) on (-inf, -1] U [0, inf), or by the homothety
coefficient lambda = 1 + 1/z of the top radius over the bottom one.  Cut
fractions do not depend on scale, so a cone is its radius ratio
e^(-ell) <= 1, ell = |log lambda|, and which end is larger.  Its centroid
and cut fraction then depend on n mostly through L = n*ell: as n grows the
maximizing cone approaches the slab in lambda, but stays put in L.  So
the family is scanned in the signed coordinate w in [-1, 1] with
L = |w|/(1-|w|): w > 0 puts the larger radius on top (lambda = e^(L/n)),
w = 0 is the slab and w = -1, +1 are the cones with apex on top and at the
bottom.

With d = -expm1(-ell), 1 minus the radius ratio, everything is in closed
form:

- the centroid lies at distance p = R/(n+1) from the larger end, where
  R = q(d) + n*h(L), q(d) = 1/d - 1/ell and h(L) = 1/L - 1/expm1(L);
- a fraction e(y) = expm1(n*log1p(-d*y)) / expm1(-L) of the volume lies
  within distance y of the larger end;
- with the cut at G = (alpha+1)*g, g the centroid height, the cut fraction
  is e(1-G) when the larger end is on top and 1 - e(G) when it is at the
  bottom, G clamped to [0, 1] for the cuts outside the body.

``log1p``/``expm1`` keep every term to a few ulps at any n: neither
(1-d*y)^n nor 1 - e^(-L) is ever formed, so nothing cancels near the slab
and nothing underflows near the cones.  q and h are differences of two
terms near 1/d and 1/L; below d = 1/8 and L = 1/4 they cancel, and their
series (the Gregory coefficients, the Bernoulli numbers) take over.

So a cone costs O(1) at any n.  The terms that do not depend on alpha
(d, p and expm1(-L)) on the scan grid are cached per n; a scan then takes a
few array operations, and the golden-section refinement evaluates the same
formulas on floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: method tags for C2Result
CLOSED_FORM_NEG_ALPHA = "closed_form_neg_alpha"
CLOSED_FORM_N2 = "closed_form_n2"
NUMERIC_SUP = "numeric_sup"

_SCAN_POINTS = 4097

#: the largest dimension: every formula multiplies by n as a float
_MAX_N = int(sys.float_info.max)
_LOG_MAX = math.log(sys.float_info.max)


def _check_n(n: int) -> int:
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    if int(n) > _MAX_N:
        raise ValueError(f"dimension must not exceed the largest float, {sys.float_info.max!r}")
    return int(n)


def _check_alpha(alpha: float, n: int) -> float:
    alpha = float(alpha)
    if not -1.0 < alpha < n:
        raise ValueError(f"alpha must lie in (-1, {n}), got {alpha}")
    return alpha


def _pow1p(x: float, k: int) -> float:
    """(1 + x)**k to a few ulps while k*x stays moderate, whatever k:
    log1p(x) is exact to an ulp, where rounding 1 + x first costs k ulps."""
    return math.exp(k * math.log1p(x))


def grunbaum_bound(n: int) -> float:
    """Lower bound (n/(n+1))**n on the volume fraction cut at the centroid."""
    n = _check_n(n)
    return _pow1p(-1.0 / (n + 1), n)


def makai_martini_bound(n: int) -> float:
    """Lower bound (n/(n+1))**(n-1) on centroid section over maximal section."""
    n = _check_n(n)
    return _pow1p(-1.0 / (n + 1), n - 1)


def c1(alpha: float, n: int) -> float:
    """Sharp lower bound on the cut volume fraction at relative height alpha."""
    n = _check_n(n)
    alpha = _check_alpha(alpha, n)
    if alpha <= 0.0:  # ((n - alpha)/(n + 1))**n
        return _pow1p(-(1.0 + alpha) / (n + 1), n)
    if alpha < 1.0 / n:
        return grunbaum_bound(n) * _pow1p(alpha, n - 1) * (1.0 - alpha * n)
    return 0.0


def d_const(alpha: float, n: int) -> float:
    """Sharp lower bound on section at height alpha over the maximal section."""
    n = _check_n(n)
    alpha = _check_alpha(alpha, n)
    if alpha <= 0.0:  # (n*(alpha + 1)/(n + 1))**(n - 1)
        return _pow1p(alpha, n - 1) * makai_martini_bound(n)
    if alpha <= 1.0 / n:  # ((n - alpha)/(n + 1))**(n - 1)
        return _pow1p(-(1.0 + alpha) / (n + 1), n - 1)
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
    # g_m - beta, for g_m = (alpha + 1)*(beta*(n - 1) + 1)/(n + 1), formed
    # without g_m: the n-th powers below magnify an error in it n times
    gap = ((alpha + 1.0) - beta * (2.0 - (n - 1) * alpha)) / (n + 1)
    threshold = (alpha + 1.0) / (2.0 - (n - 1) * alpha)
    if beta <= threshold:  # (1 - g_m)**n / (1 - beta)**(n - 1)
        return (1.0 - beta) * _pow1p(-gap / (1.0 - beta), n)
    # 1 - g_m**n / beta**(n - 1)
    return -math.expm1(math.log(beta) + n * math.log1p(gap / beta))


# ---------------------------------------------------------------------------
# the truncated-cone family in the n-free coordinate L = n*|log lambda|

#: |G_1|, |G_2|, ... for the Gregory coefficients G_k:
#: q(d) = 1/d + 1/log(1 - d) = sum_k |G_(k+1)| d^k
_GREGORY = (
    1 / 2, 1 / 12, 1 / 24, 19 / 720, 3 / 160, 863 / 60480, 275 / 24192,
    33953 / 3628800, 8183 / 1036800, 3250433 / 479001600, 4671 / 788480,
    13695779093 / 2615348736000, 2224234463 / 475517952000,
    132282840127 / 31384184832000, 2639651053 / 689762304000,
    111956703448001 / 32011868528640000, 50188465 / 15613165568,
)  # fmt: skip
#: B_2k/(2k)! for the Bernoulli numbers B_2k, k >= 1:
#: h(L) = 1/L - 1/expm1(L) = 1/2 - sum_k B_2k/(2k)! L^(2k-1)
_BERNOULLI = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
    -691 / 1307674368000, 1 / 74724249600,
)  # fmt: skip
#: below these the series replace the cancelling differences; their
#: truncation error is below 2e-17 there
_Q_SERIES_BELOW = 0.125
_H_SERIES_BELOW = 0.25
#: below this, log1p(-d*y) = -ell*y, and below it in L the cone is the slab,
#: e(y) = y, to rounding
_LINEAR_ELL = 2.0**-64

#: the scan grid in w and its L; the first half puts the larger radius at
#: the bottom, the second half on top, and the middle point is the slab
_W_GRID = np.linspace(-1.0, 1.0, _SCAN_POINTS)
_SLAB = _SCAN_POINTS // 2
with np.errstate(divide="ignore"):
    _L_GRID = np.abs(_W_GRID) / (1.0 - np.abs(_W_GRID))


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _piecewise(small, series, direct, *args):
    """series(*args) where small, direct(*args) elsewhere, on floats or on
    arrays; each branch sees only its own points."""
    if not isinstance(small, np.ndarray):
        return series(*args) if small else direct(*args)
    out = np.empty(small.shape)
    out[small] = series(*(a[small] for a in args))
    out[~small] = direct(*(a[~small] for a in args))
    return out


def _cone_terms(big_l, ell, n: float, xp):
    """The alpha-free terms of the cone with radius ratio e^(-ell), L = n*ell:
    (-d, n, p, expm1(-L)), as floats through ``math`` or arrays through
    ``numpy``.

    Where ell is too small for d to keep its precision (n beyond about 1e16),
    d and n are traded for 2^-64 and L/2^-64, which leaves n*log1p(-d*y)
    unchanged to rounding.
    """
    d = -xp.expm1(-ell)
    em = xp.expm1(-big_l)
    q = _piecewise(
        d < _Q_SERIES_BELOW,
        lambda d, ell: _horner(_GREGORY, d),
        lambda d, ell: 1.0 / d - 1.0 / ell,
        d,
        ell,
    )
    h = _piecewise(
        big_l < _H_SERIES_BELOW,
        lambda x, em: 0.5 - x * _horner(_BERNOULLI, x * x),
        lambda x, em: 1.0 / x + xp.exp(-x) / em,
        big_l,
        em,
    )
    p = (q + n * h) / (n + 1.0)
    tiny = ell < _LINEAR_ELL
    if isinstance(tiny, np.ndarray):
        return np.where(tiny, -_LINEAR_ELL, -d), np.where(tiny, big_l / _LINEAR_ELL, n), p, em
    if tiny:
        return -_LINEAR_ELL, big_l / _LINEAR_ELL, p, em
    return -d, n, p, em


@lru_cache(maxsize=32)
def _scan_table(n: int):
    """``_cone_terms`` on the scan grid at dimension n, read-only.

    The slab's expm1(-L) = 0 is set to -1, so that the scan divides by no
    zero; ``_scan`` sets the slab's cut fraction itself.
    """
    table = _cone_terms(_L_GRID, _L_GRID / float(n), float(n), np)
    table[3][_SLAB] = -1.0
    for arr in table:
        arr.setflags(write=False)
    return table


def _scan(alpha: float, n: int):
    """The cut fraction of every cone on the scan grid."""
    neg_d, n_eff, p, em = _scan_table(n)
    y = (alpha + 1.0) * p  # distance of the cut from the larger end
    y[_SLAB + 1 :] -= alpha
    np.clip(y, 0.0, 1.0, out=y)
    phi = np.expm1(n_eff * np.log1p(neg_d * y)) / em
    phi[: _SLAB + 1] = 1.0 - phi[: _SLAB + 1]
    phi[_SLAB] = 1.0 - y[_SLAB]
    return phi


def _cut_fraction(big_l: float, ell: float, top: bool, alpha: float, n: float) -> float:
    """The cut fraction of one cone: ``_scan``'s formulas on floats."""
    neg_d, n_eff, p, em = _cone_terms(big_l, ell, n, math)
    y = (alpha + 1.0) * p - (alpha if top else 0.0)
    y = min(max(y, 0.0), 1.0)
    if big_l < _LINEAR_ELL:  # the slab, to rounding
        e = y
    else:
        e = math.expm1(n_eff * math.log1p(neg_d * y)) / em
    return e if top else 1.0 - e


def _w_to_l(w: float) -> float:
    a = abs(w)
    return math.inf if a == 1.0 else a / (1.0 - a)


def _phi_w(w: float, alpha: float, n: float) -> float:
    big_l = _w_to_l(w)
    return _cut_fraction(big_l, big_l / n, w > 0.0, alpha, n)


def _check_z(z: float) -> float:
    z = float(z)
    if -1.0 < z < 0.0:
        raise ValueError(f"z must lie in (-inf, -1] or [0, inf), got {z}")
    return z


def _z_to_log_lambda(z: float) -> float:
    """log lambda = log1p(1/z), signed: > 0 when the top radius is larger."""
    if z == 0.0:
        return math.inf
    if z == -1.0:
        return -math.inf
    return math.log1p(1.0 / z)


def g_sub_l(z: float, alpha: float, n: int) -> float:
    """Scaled centroid height (alpha+1)*g of the truncated cone indexed by z."""
    n = _check_n(n)
    log_lam = _z_to_log_lambda(_check_z(z))
    ell = abs(log_lam)
    p = _cone_terms(n * ell, ell, float(n), math)[2]
    return (alpha + 1.0) * (1.0 - p if log_lam > 0.0 else p)


def phi(z: float, alpha: float, n: int) -> float:
    """Volume fraction of the truncated cone above its alpha-cut, clamped to [0, 1]."""
    n = _check_n(n)
    log_lam = _z_to_log_lambda(_check_z(z))
    ell = abs(log_lam)
    return _cut_fraction(n * ell, ell, log_lam > 0.0, float(alpha), float(n))


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
    """Scan the cone family in w, refine the scan's best point.

    One golden-section search runs between the best grid point's two
    neighbours; the grid point stands where the search ends lower, as on
    stretches that are flat to rounding or clamped to zero.
    """
    vals = _scan(alpha, n)
    i = int(np.argmax(vals))
    lo, hi = float(_W_GRID[max(i - 1, 0)]), float(_W_GRID[min(i + 1, _SCAN_POINTS - 1)])
    nf = float(n)
    w_star, v_star = _golden_max(lambda w: _phi_w(w, alpha, nf), lo, hi)
    if v_star < vals[i]:
        return float(vals[i]), float(_W_GRID[i])
    return v_star, w_star


def c2_numeric_sup(alpha: float, n: int) -> C2Result:
    """The supremum branch evaluated numerically (any alpha, any n >= 2)."""
    n = _check_n(n)
    alpha = _check_alpha(alpha, n)
    value, w_star = _numeric_sup(alpha, n)
    log_lam = math.copysign(_w_to_l(w_star) / n, w_star)
    if log_lam > _LOG_MAX:
        lam, z = math.inf, 0.0
    else:
        lam, em = math.exp(log_lam), math.expm1(log_lam)
        z = 1.0 / em if em else math.inf
    return C2Result(value=value, argmax_z=z, argmax_lambda=lam, method=NUMERIC_SUP)


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
    if alpha <= 0.0:  # 1 - (n*(alpha + 1)/(n + 1))**n
        value = -math.expm1(n * (math.log1p(alpha) + math.log1p(-1.0 / (n + 1))))
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
