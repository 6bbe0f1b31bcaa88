"""Inequality verification: center a body, cut it, compare against the bounds.

The bounds are stated for centered bodies and depend on a body only
through its section function A(t) and cut volume V(t) along the direction.
So every exact check reads one table: the body's ``measure.section_table``
translated by minus its centroid coordinate; no centered copy of the body
is built.  The concavity checks (Brunn's principle: A^(1/(n-1)) and
V^(1/n) concave) read the table as built, and decide it exactly from its
coefficients, not on a grid.  The Monte Carlo backend samples the centered
body itself (``center``).  Checks return a ``VerifyReport``; a report passes
when ``lower - tolerance <= measured <= upper + tolerance`` with absent
sides skipped.  Exact backends use tolerance 1e-9.  The Monte Carlo
backend estimates a cut ratio from one draw (hits above the cut over hits
inside) and reports its ``MC_SIGMAS`` Wilson score interval [L, U]: it
passes when U >= lower and L <= upper, and its tolerance is the interval's
half-width.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import constants, measure, oracle
from .bodies import (
    AnalyticProfile,
    Body,
    CutSpec,
    Direction,
    Polytope,
    concavity_violations,
    translate,
)

EXACT = "exact"
MONTE_CARLO = "monte_carlo"

#: z of the Wilson score interval used by Monte Carlo backed checks
MC_SIGMAS = 4.0
_STRATUM_EPS = 1e-3
#: knots per fuzz profile; points per fuzz polytope
_PROFILE_KNOTS = 6
_POLYTOPE_POINTS = 12


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one bound check.

    ``lower``/``upper`` are the applicable bounds (None = one-sided);
    ``equality`` flags a measured value sitting on a bound, i.e. an
    extremal body.  ``context`` carries whatever identifies the check:
    body descriptor, direction, alpha, seed.
    """

    quantity: str
    measured: float
    lower: Optional[float]
    upper: Optional[float]
    tolerance: float
    backend: str
    passed: bool
    context: dict = field(default_factory=dict)
    equality: bool = False

    def margin(self) -> float:
        """Distance to the nearest bound; negative means the bound is broken."""
        sides = []
        if self.lower is not None:
            sides.append(self.measured - self.lower)
        if self.upper is not None:
            sides.append(self.upper - self.measured)
        return min(sides) if sides else math.inf

    def to_json(self) -> str:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["pass"] = obj.pop("passed")
        return json.dumps(obj, sort_keys=True)


def report_from_json(line: str) -> VerifyReport:
    obj = json.loads(line)
    obj["passed"] = obj.pop("pass")
    return VerifyReport(**obj)


def _make_report(quantity, measured, lower, upper, tolerance, backend, context, interval=None):
    if interval is None:
        ok_low = lower is None or measured >= lower - tolerance
        ok_high = upper is None or measured <= upper + tolerance
    else:  # each bound against its own side of the interval
        ok_low = lower is None or interval[1] >= lower
        ok_high = upper is None or interval[0] <= upper
    # equality detection only makes sense at exact-backend resolution
    at_bound = backend == EXACT and (
        (lower is not None and abs(measured - lower) <= 100.0 * tolerance)
        or (upper is not None and abs(measured - upper) <= 100.0 * tolerance)
    )
    lower, upper = (None if b is None else float(b) for b in (lower, upper))
    return VerifyReport(
        quantity, float(measured), lower, upper, float(tolerance), backend,
        bool(ok_low and ok_high), dict(context or {}), bool(at_bound),
    )  # fmt: skip


def describe(body: Body) -> dict:
    if isinstance(body, Polytope):
        return {"type": "polytope", "dim": body.dim, "vertices": len(body.vertices)}
    if isinstance(body, AnalyticProfile):
        return {"type": "profile", "dim": body.dim, "knots": len(body.knots)}
    return {"type": "slab_profile", "dim": body.dim, "slabs": len(body.b0)}


# ---------------------------------------------------------------------------
# centering and the two ratios


def center(body: Body) -> Body:
    """Translate the body so its centroid is at the origin."""
    if isinstance(body, Polytope):
        return translate(body, [-c for c in measure.centroid(body)])
    shift = measure.centroid_coordinate(body, Direction.axis(body.dim))
    return translate(body, -shift)


def _centered_table(body: Body, direction: Direction):
    """The body's section table along the direction, translated so that the
    centroid sits at height 0: all an exact check needs to know."""
    table = measure.section_table(body, direction)
    return translate(table, -measure.centroid_coordinate(body, direction))


def cut_ratio(body: Body, cut: CutSpec) -> float:
    """Volume fraction of the centered body above its alpha-cut."""
    table = _centered_table(body, cut.direction)
    return table.cut_volume(-cut.alpha * table.support[0]) / measure.volume(table)


def section_ratio(body: Body, cut: CutSpec) -> float:
    """Section at the alpha-cut of the centered body over its maximal section."""
    table = _centered_table(body, cut.direction)
    return float(table.area_at(-cut.alpha * table.support[0])) / table.max_section()[1]


# ---------------------------------------------------------------------------
# individual checks


def _mc_cut_report(body, cut, lower, upper, samples, seed, ctx):
    """The cut ratio of the centered body from one Monte Carlo draw."""
    centered = center(body)
    t = cut.alpha * measure.support(centered, cut.direction.negated())
    above, inside = oracle.mc_cut_counts(centered, cut.direction, t, samples, seed)
    lo, hi = oracle.wilson_interval(above, inside, MC_SIGMAS)
    ctx.update(seed=seed, samples=samples, inside=inside, interval=[lo, hi])
    ctx["generator"] = oracle.GENERATOR_NAME
    return _make_report(
        "cut_ratio", above / inside, lower, upper, 0.5 * (hi - lo), MONTE_CARLO, ctx, (lo, hi)
    )


def check_theorem4(
    body: Body,
    cut: CutSpec,
    tol: float = 1e-9,
    backend: str = EXACT,
    mc_samples: int = 100_000,
    seed: int = 0,
    context: Optional[dict] = None,
) -> VerifyReport:
    """c1(alpha, n) <= cut fraction <= c2(alpha, n)."""
    n = body.dim
    lower = constants.c1(cut.alpha, n)
    upper = constants.c2(cut.alpha, n).value
    ctx = {**describe(body), "alpha": cut.alpha, "direction": list(cut.direction.coords)}
    ctx.update(context or {})
    if backend == EXACT:
        return _make_report("cut_ratio", cut_ratio(body, cut), lower, upper, tol, EXACT, ctx)
    return _mc_cut_report(body, cut, lower, upper, mc_samples, seed, ctx)


def check_theorem5(
    body: Body, cut: CutSpec, tol: float = 1e-9, context: Optional[dict] = None
) -> VerifyReport:
    """Section at the alpha-cut >= d_const(alpha, n) times the maximal section."""
    lower = constants.d_const(cut.alpha, body.dim)
    ctx = {**describe(body), "alpha": cut.alpha, "direction": list(cut.direction.coords)}
    ctx.update(context or {})
    measured = section_ratio(body, cut)
    return _make_report("section_ratio", measured, lower, None, tol, EXACT, ctx)


def check_grunbaum(
    body: Body,
    direction: Direction,
    tol: float = 1e-9,
    backend: str = EXACT,
    mc_samples: int = 100_000,
    seed: int = 0,
    context: Optional[dict] = None,
) -> VerifyReport:
    """The centroid-cut special case: ``check_theorem4`` at alpha = 0, where
    c1 is ``grunbaum_bound(n)`` and c2 is 1 - ``grunbaum_bound(n)``."""
    cut = CutSpec(direction, 0.0)
    return check_theorem4(body, cut, tol, backend, mc_samples, seed, context)


def check_minkowski_radon(
    body: Body, direction: Direction, tol: float = 1e-9, context: Optional[dict] = None
) -> VerifyReport:
    """1/n <= h(-xi)/h(xi) <= n for the centered body."""
    n = body.dim
    lo, hi = _centered_table(body, direction).support
    ctx = {**describe(body), "direction": list(direction.coords)}
    ctx.update(context or {})
    return _make_report("support_ratio", -lo / hi, 1.0 / n, float(n), tol, EXACT, ctx)


def check_concavity(
    body: Body,
    direction: Direction,
    which: str = "A",
    tol: float = 1e-9,
    context: Optional[dict] = None,
) -> VerifyReport:
    """Brunn's principle along the direction, A^(1/(n-1)) (which="A") or
    V^(1/n) (which="V") concave, decided exactly from the coefficients of
    the body's section table as built: shifting a thin slab's edges would
    round them.  ``measured`` is the worst violation, 0 where none is, in
    units that make it scale-free:
    - profile, A: a rise of the radius's slope at a knot, in r_max per
      support length;
    - profile, V: n|s|V(b) / (omega r_b^n) - 1 on a piece with slope s < 0
      that ends at knot b (the form is omega r_b^n >= n|s|V(b));
    - slab table, A: A < 0 on a slab, or a jump at an inner edge, in b_max
      (the largest coefficient); 2(1-p)a'^2 - A a'' < 0 on a slab, with
      p = 1/(n-1) and a', a'' half of A', A'' in u (b1^2 < b0 b2 for
      n = 3), in b_max^2; (b1_(i+1) - b0_(i+1)) w_i > (b2_i - b1_i) w_(i+1)
      at an inner edge, in b_max (w_i + w_(i+1));
    - slab table, V: w((n-1)A^2 + nVA') < 0 on a slab, in n V_total b_max,
      certified to ``tol`` from its Bernstein coefficients; a drop of A at
      an inner edge, in V_total b_max."""
    table = measure.section_table(body, direction)
    measure.volume(table)  # DegenerateBodyError when no ratio is meaningful
    violations = concavity_violations(table, which, tol)
    measured = max([0.0, *violations.values()])
    ctx = {**describe(body), "direction": list(direction.coords), "which": which}
    ctx.update(context or {})
    return _make_report(f"concavity_{which}", measured, None, 0.0, tol, EXACT, ctx)


def check_symmetral_consistency(
    body: Body, cut: CutSpec, tol: float = 1e-9, context: Optional[dict] = None
) -> VerifyReport:
    """Rounding the body must preserve volume and every cut-off volume;
    measured is the worst relative deviation over 64 sampled heights.  Both
    sides move alike under translation, so the body is measured as given."""
    sym = measure.schwarz_symmetral(body, cut.direction)
    axis = Direction.axis(sym.dim)
    vol = measure.volume(body)
    worst = abs(vol - measure.volume(sym)) / vol
    lo = -measure.support(body, cut.direction.negated())
    hi = measure.support(body, cut.direction)
    for t in np.linspace(lo, hi, 64):
        a = measure.cut_volume(body, cut.direction, float(t))
        b = measure.cut_volume(sym, axis, float(t))
        worst = max(worst, abs(a - b) / vol)
    ctx = {**describe(body), "direction": list(cut.direction.coords)}
    ctx.update(context or {})
    return _make_report("symmetral_consistency", worst, None, 0.0, tol, EXACT, ctx)


# ---------------------------------------------------------------------------
# the fuzzing harness


@dataclass(frozen=True)
class FuzzConfig:
    """Corpus layout for the fuzz suite.

    Profiles are generated for every dimension in ``dims``; polytopes only
    for dimensions 2 and 3.  Each body is cut at ``alphas_per_body``
    heights sampled round-robin from the strata (-1, 0], (0, 1/n] and
    (1/n, n) so that every branch of the piecewise constants is hit.
    ``mc_samples`` > 0 additionally runs Monte Carlo backed cut checks on
    every polytope.
    """

    dims: tuple[int, ...] = (2, 3, 4, 5)
    profiles_per_dim: int = 25
    polytopes_per_dim: int = 25
    alphas_per_body: int = 3
    mc_samples: int = 0
    seed: int = 20240802
    tol: float = 1e-9


@dataclass(frozen=True)
class FuzzReport:
    total: int
    failures: tuple[VerifyReport, ...]
    reports: tuple[VerifyReport, ...]
    worst_margins: dict

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"{self.total - len(self.failures)}/{self.total} checks passed"]
        for quantity in sorted(self.worst_margins):
            lines.append(f"  worst margin {quantity}: {self.worst_margins[quantity]:.3e}")
        for rep in self.failures:
            lines.append(f"  FAILED {rep.to_json()}")
        return "\n".join(lines)


def _stratified_alphas(gen: np.random.Generator, n: int, count: int) -> list[float]:
    strata = [
        (-1.0 + _STRATUM_EPS, 0.0),
        (0.0 + _STRATUM_EPS / n, 1.0 / n),
        (1.0 / n, n - _STRATUM_EPS),
    ]
    out = []
    for k in range(count):
        lo, hi = strata[k % len(strata)]
        out.append(float(gen.uniform(lo, hi)))
    return out


def _fuzz_one_body(body, direction, body_seed, config, reports):
    gen = oracle.rng_for(body_seed, shard=2)
    alphas = _stratified_alphas(gen, body.dim, config.alphas_per_body)
    ctx = {"body_seed": body_seed}
    for alpha in alphas:
        cut = CutSpec(direction, alpha)
        reports.append(check_theorem4(body, cut, tol=config.tol, context=ctx))
        reports.append(check_theorem5(body, cut, tol=config.tol, context=ctx))
    reports.append(check_grunbaum(body, direction, tol=config.tol, context=ctx))
    reports.append(check_minkowski_radon(body, direction, tol=config.tol, context=ctx))
    reports.append(check_concavity(body, direction, "A", tol=config.tol, context=ctx))
    reports.append(check_concavity(body, direction, "V", tol=config.tol, context=ctx))
    first = CutSpec(direction, alphas[0])
    reports.append(check_symmetral_consistency(body, first, tol=config.tol, context=ctx))
    if config.mc_samples > 0 and isinstance(body, Polytope):
        mc = dict(tol=config.tol, backend=MONTE_CARLO, mc_samples=config.mc_samples, context=ctx)
        reports.append(check_theorem4(body, first, seed=body_seed, **mc))
        reports.append(check_grunbaum(body, direction, seed=body_seed + 7, **mc))


def fuzz_corpus(config: FuzzConfig = FuzzConfig()):
    """The deterministic corpus as (body, direction, body_seed) triples."""
    corpus = []
    counter = 0
    for n in config.dims:
        for _ in range(config.profiles_per_dim):
            body_seed = (config.seed * 1_000_003 + counter) % (1 << 63)
            counter += 1
            body = oracle.random_profile(n, _PROFILE_KNOTS, body_seed)
            corpus.append((body, Direction.axis(n), body_seed))
        if n not in (2, 3):
            continue
        for _ in range(config.polytopes_per_dim):
            body_seed = (config.seed * 1_000_003 + counter) % (1 << 63)
            counter += 1
            body = oracle.random_polytope(n, _POLYTOPE_POINTS, body_seed)
            vec = oracle.rng_for(body_seed, shard=1).standard_normal(n)
            corpus.append((body, Direction.from_vector(vec), body_seed))
    return tuple(corpus)


def fuzz_suite(config: FuzzConfig = FuzzConfig()) -> FuzzReport:
    """Run every check over a deterministic corpus of random bodies."""
    reports: list[VerifyReport] = []
    for body, direction, body_seed in fuzz_corpus(config):
        _fuzz_one_body(body, direction, body_seed, config, reports)
    reports.sort(key=lambda r: r.to_json())
    worst: dict = {}
    for rep in reports:
        m = rep.margin()
        if math.isfinite(m):
            worst[rep.quantity] = min(worst.get(rep.quantity, math.inf), m)
    failures = tuple(r for r in reports if not r.passed)
    return FuzzReport(
        total=len(reports),
        failures=failures,
        reports=tuple(reports),
        worst_margins=worst,
    )
