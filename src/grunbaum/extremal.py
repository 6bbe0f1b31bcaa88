"""Constructors for the bodies that attain the sharp bounds.

Every extremal body is a body of revolution with piecewise-linear radius,
so each constructor returns an AnalyticProfile.  The ball-based profile is
the canonical representative of its equality class: the bound ratios are
invariant under replacing the ball base by any convex base of equal
measure.  ``lower_extremizer``, ``upper_extremizer`` and
``theorem5_equality_cone`` return bodies centered at their centroid, ready
to be cut; the raw families (``truncated_cone``, ``double_cone``) are kept
on their natural height interval [0, 1].
"""

from __future__ import annotations

import math

from . import constants
from .bodies import AnalyticProfile, section_ball_volume
from .constants import _check_n
from .verify import center


def grunbaum_cone(n: int) -> AnalyticProfile:
    """The centered cone with base below and apex above: the lower equality
    body of the centroid cut, with h(+axis) = n * h(-axis)."""
    n = _check_n(n)
    return AnalyticProfile(n, ((-1.0 / (n + 1), 1.0), (n / (n + 1), 0.0)))


def reflected_grunbaum_cone(n: int) -> AnalyticProfile:
    """The reflection of the cone about the origin: apex below, base above."""
    n = _check_n(n)
    return AnalyticProfile(n, ((-n / (n + 1), 0.0), (1.0 / (n + 1), 1.0)))


def truncated_cone(lam: float, n: int) -> AnalyticProfile:
    """Convex hull of a unit-radius base disk at height 0 and its homothetic
    copy with ratio lam at height 1; lam = 0 degenerates to a cone."""
    n = _check_n(n)
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"homothety coefficient must be >= 0, got {lam}")
    return AnalyticProfile(n, ((0.0, 1.0), (1.0, lam)))


def double_cone(beta: float, n: int) -> AnalyticProfile:
    """Two cones sharing a base at height beta, normalized to volume 1.

    The common base has measure n (radius (n / omega)^(1/(n-1))), heights
    beta and 1 - beta, so the two cones have volumes beta and 1 - beta.
    beta = 0 collapses to a single cone.
    """
    n = _check_n(n)
    beta = float(beta)
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    r_star = (n / section_ball_volume(n)) ** (1.0 / (n - 1))
    if beta == 0.0:
        return AnalyticProfile(n, ((0.0, r_star), (1.0, 0.0)))
    return AnalyticProfile(n, ((0.0, 0.0), (beta, r_star), (1.0, 0.0)))


def lower_extremizer(alpha: float, n: int) -> AnalyticProfile:
    """The centered body whose cut fraction at height alpha equals c1(alpha, n)."""
    n = _check_n(n)
    alpha = float(alpha)
    if not -1.0 < alpha < 1.0 / n:
        raise ValueError(
            f"no positive-measure lower extremizer for alpha outside (-1, 1/{n}), got {alpha}"
        )
    if alpha <= 0.0:
        return grunbaum_cone(n)
    return center(double_cone(constants.beta0(alpha, n), n))


def upper_extremizer(alpha: float, n: int) -> AnalyticProfile:
    """The centered body whose cut fraction at height alpha equals c2(alpha, n)."""
    n = _check_n(n)
    alpha = float(alpha)
    if not -1.0 < alpha < n:
        raise ValueError(f"alpha must lie in (-1, {n}), got {alpha}")
    if alpha <= 0.0:
        return reflected_grunbaum_cone(n)
    lam = constants.c2(alpha, n).argmax_lambda
    if math.isinf(lam):
        body = AnalyticProfile(n, ((0.0, 0.0), (1.0, 1.0)))
    else:
        body = truncated_cone(lam, n)
    return center(body)


def theorem5_equality_cone(alpha: float, n: int) -> AnalyticProfile:
    """The centered cone whose section at height alpha meets the sharp
    section bound: base toward +axis for alpha <= 0, toward -axis for
    alpha in (0, 1/n]."""
    n = _check_n(n)
    alpha = float(alpha)
    if not -1.0 < alpha <= 1.0 / n:
        raise ValueError(
            f"the section bound degenerates to 0 for alpha > 1/{n}, got {alpha}"
        )
    if alpha <= 0.0:
        return reflected_grunbaum_cone(n)
    return grunbaum_cone(n)
