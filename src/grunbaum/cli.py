"""Command-line surface: constants, sweeps, verification, extremal bodies,
symmetrization.

Exit codes: 0 success (and every check passed), 1 a verification check
failed, 2 invalid input (ranges, unparseable body, bad kind), 3 unwritable
output path.

Body files are JSON::

    {"type": "polytope", "dim": 3, "vertices": [[x, y, z], ...]}
    {"type": "profile",  "dim": n, "knots": [[t, r], ...]}
    {"type": "slab_profile", "dim": n, "edges": [...], "b0": [...], "b1": [...], "b2": [...]}

A slab profile is the exact Schwarz symmetral of a 3-D polytope, so
``symmetrize`` writes every symmetral without loss: per slab, the
Bernstein coefficients of its quadratic section area (``SlabProfile``).

Reals are serialized with Python's shortest round-trip representation.
An infinite homothety coefficient (the cone with apex at the bottom) is
encoded as the string "inf" in JSON and as ``inf`` in sweep CSV files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import constants, extremal, measure, oracle, verify
from .bodies import (
    AnalyticProfile,
    Body,
    CutSpec,
    Direction,
    Polytope,
    SlabProfile,
    validate,
)

_EXTREMAL_KINDS = (
    "grunbaum-cone",
    "reflected-cone",
    "double-cone",
    "truncated-cone",
    "lower",
    "upper",
    "t5-cone",
)


# ---------------------------------------------------------------------------
# body (de)serialization

_SLAB_COLUMNS = ("edges", "b0", "b1", "b2")


def body_to_obj(body: Body) -> dict:
    if isinstance(body, Polytope):
        return {"type": "polytope", "dim": body.dim, "vertices": [list(v) for v in body.vertices]}
    if isinstance(body, SlabProfile):
        cols = {k: list(getattr(body, k)) for k in _SLAB_COLUMNS}
        return {"type": "slab_profile", "dim": body.dim, **cols}
    return {"type": "profile", "dim": body.dim, "knots": [[t, r] for t, r in body.knots]}


def _floats(values, key: str) -> tuple:
    """``values``, a list of numbers, as a tuple of floats."""
    if not (isinstance(values, list) and all(type(x) in (int, float) for x in values)):
        raise ValueError(f"{key!r} must be a list of numbers")
    try:
        return tuple(float(x) for x in values)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{key!r} holds a number too large for a float") from exc


def _rows(obj: dict, key: str, width: int) -> tuple:
    """``obj[key]`` as a tuple of ``width``-tuples of floats."""
    rows = obj.get(key)
    if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == width for r in rows)):
        raise ValueError(f"{key!r} must be a list of lists of {width} numbers")
    return tuple(_floats(row, key) for row in rows)


def body_from_obj(obj) -> Body:
    if not isinstance(obj, dict):
        raise ValueError(f"a body must be a JSON object, got {type(obj).__name__}")
    kind, dim = obj.get("type"), obj.get("dim")
    if kind not in ("polytope", "profile", "slab_profile"):
        raise ValueError(f"unknown body type {kind!r}")
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if kind == "polytope":
        return Polytope(dim, _rows(obj, "vertices", dim))
    if kind == "slab_profile":
        missing = [k for k in _SLAB_COLUMNS if k not in obj]
        if missing:
            keys = ", ".join(_SLAB_COLUMNS)
            raise ValueError(f"a slab_profile needs the keys {keys}; missing {', '.join(missing)}")
        return SlabProfile(dim, *(_floats(obj[k], k) for k in _SLAB_COLUMNS))
    return AnalyticProfile(dim, _rows(obj, "knots", 2))


def load_body(path: str) -> Body:
    with open(path, "r", encoding="utf-8") as fh:
        return body_from_obj(json.load(fh))


def _fmt_lambda(lam: float):
    return "inf" if math.isinf(lam) else lam


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _write_text(text: str, out_path) -> int:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(f"cannot write {out_path}: {exc}", 3)
    return 0


def _parse_direction(spec: str, dim: int) -> Direction:
    parts = [float(x) for x in spec.split(",")]
    if len(parts) != dim:
        raise ValueError(f"direction has {len(parts)} coordinates, body has {dim}")
    return Direction.from_vector(parts)


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    try:
        triple = constants.bounds(args.alpha, args.n)
    except ValueError as exc:
        return _fail(str(exc), 2)
    obj = {
        "n": args.n,
        "alpha": args.alpha,
        "c1": triple.c1,
        "c2": triple.c2.value,
        "c2_argmax_lambda": _fmt_lambda(triple.c2.argmax_lambda),
        "d": triple.d,
        "method": triple.c2.method,
    }
    print(json.dumps(obj))
    return 0


def cmd_sweep(args) -> int:
    if not (-1.0 < args.alpha_min < args.alpha_max < args.n) or args.steps < 1:
        return _fail(
            f"need -1 < alpha-min < alpha-max < n and steps >= 1, got "
            f"[{args.alpha_min}, {args.alpha_max}] with n={args.n}, steps={args.steps}",
            2,
        )
    lines = ["alpha,c1,c2,d,lambda0"]
    try:
        for alpha in np.linspace(args.alpha_min, args.alpha_max, args.steps):
            triple = constants.bounds(float(alpha), args.n)
            lines.append(
                f"{float(alpha)!r},{triple.c1!r},{triple.c2.value!r},{triple.d!r},"
                f"{_fmt_lambda(triple.c2.argmax_lambda)!s}"
            )
    except ValueError as exc:  # a dimension below 2
        return _fail(str(exc), 2)
    return _write_text("\n".join(lines) + "\n", args.out)


def _print_problems(body: Body) -> bool:
    """Print every invariant the body violates; True when there is one."""
    problems = validate(body)
    for p in problems:
        print(f"invalid body: {p}", file=sys.stderr)
    return bool(problems)


def cmd_verify(args) -> int:
    try:
        body = load_body(args.body)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot parse body file {args.body}: {exc}", 2)
    if _print_problems(body):
        return 2
    try:
        measure.volume(body)  # DegenerateBodyError (a ValueError) if no ratio is meaningful
        direction = (
            Direction.axis(body.dim)
            if args.direction is None
            else _parse_direction(args.direction, body.dim)
        )
        measure.section_table(body, direction)  # cached; rejects an off-axis profile direction
        cut = CutSpec(direction, args.alpha)
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
        if args.mc_samples != 0 and args.mc_samples < oracle.MIN_SAMPLES:
            raise ValueError(
                f"--mc-samples must be 0 (off) or at least {oracle.MIN_SAMPLES}, "
                f"got {args.mc_samples}"
            )
    except ValueError as exc:
        return _fail(str(exc), 2)
    ctx = {"path": args.body}
    reports = [
        verify.check_theorem4(body, cut, tol=args.tol, context=ctx),
        verify.check_theorem5(body, cut, tol=args.tol, context=ctx),
        verify.check_minkowski_radon(body, direction, tol=args.tol, context=ctx),
        verify.check_concavity(body, direction, "A", tol=args.tol, context=ctx),
        verify.check_concavity(body, direction, "V", tol=args.tol, context=ctx),
        verify.check_symmetral_consistency(body, cut, tol=args.tol, context=ctx),
    ]
    if args.alpha == 0.0:
        reports.append(verify.check_grunbaum(body, direction, tol=args.tol, context=ctx))
    if args.mc_samples:
        mc = dict(backend=verify.MONTE_CARLO, mc_samples=args.mc_samples, seed=args.seed)
        reports.append(verify.check_theorem4(body, cut, tol=args.tol, context=ctx, **mc))
    for rep in reports:
        print(rep.to_json())
    return 0 if all(r.passed for r in reports) else 1


def cmd_extremal(args) -> int:
    try:
        if args.kind == "grunbaum-cone":
            body = extremal.grunbaum_cone(args.n)
        elif args.kind == "reflected-cone":
            body = extremal.reflected_grunbaum_cone(args.n)
        elif args.kind == "double-cone":
            if args.beta is None:
                return _fail("double-cone requires --beta", 2)
            body = extremal.double_cone(args.beta, args.n)
        elif args.kind == "truncated-cone":
            if args.lam is None:
                return _fail("truncated-cone requires --lam", 2)
            body = extremal.truncated_cone(args.lam, args.n)
        elif args.kind == "lower":
            body = extremal.lower_extremizer(args.alpha, args.n)
        elif args.kind == "upper":
            body = extremal.upper_extremizer(args.alpha, args.n)
        elif args.kind == "t5-cone":
            if args.alpha > 1.0 / args.n:
                body = extremal.reflected_grunbaum_cone(args.n)
                print(
                    "note: the section bound is 0 for alpha > 1/n and many bodies "
                    "attain it; emitting the cone with empty section there",
                    file=sys.stderr,
                )
            else:
                body = extremal.theorem5_equality_cone(args.alpha, args.n)
        else:
            return _fail(f"unknown kind {args.kind!r}", 2)
    except ValueError as exc:
        return _fail(str(exc), 2)
    return _write_text(json.dumps(body_to_obj(body)) + "\n", args.out)


def cmd_symmetrize(args) -> int:
    try:
        body = load_body(args.body)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot parse body file {args.body}: {exc}", 2)
    if _print_problems(body):
        return 2
    try:
        direction = (
            Direction.axis(body.dim)
            if args.direction is None
            else _parse_direction(args.direction, body.dim)
        )
        sym = measure.schwarz_symmetral(body, direction)
    except ValueError as exc:
        return _fail(str(exc), 2)
    return _write_text(json.dumps(body_to_obj(sym)) + "\n", args.out)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grunbaum",
        description="Sharp cut and section bounds for centered convex bodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print c1, c2, d at (alpha, n) as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("sweep", help="tabulate the constants over an alpha range as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run all bound checks on a body file")
    p.add_argument("--body", required=True, help="path to a body JSON file")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--direction", default=None, help="comma-separated vector, normalized")
    p.add_argument("--mc-samples", type=int, default=0, help="add a Monte Carlo check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extremal", help="emit an extremal body as JSON")
    p.add_argument("--kind", required=True, choices=_EXTREMAL_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=None, help="base height for double-cone")
    p.add_argument("--lam", type=float, default=None, help="homothety ratio for truncated-cone")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("symmetrize", help="emit the Schwarz symmetral as a profile body")
    p.add_argument("--body", required=True)
    p.add_argument("--direction", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_symmetrize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
