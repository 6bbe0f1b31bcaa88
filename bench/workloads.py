"""The benchmark's workloads: input generation, one operation, its check.

Each workload makes its inputs in rounds from a numpy ``SeedSequence``
keyed by the workload seed, so the same seed gives the same inputs.  Items
within a round follow a fixed cycle of ``cycle_len`` body classes (or
(n, branch) cells), and a run stops only at the end of a cycle, so every
run has the same mix of inputs.  ``constants_sweep`` runs a fixed number
of cycles of the same rows for every seed.  ``op`` is the timed call into
the package; ``check`` decides, untimed, whether its output is right.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from grunbaum import cli, constants, extremal, oracle, verify
from grunbaum.bodies import CutSpec, Direction, Polytope

#: exact-check tolerance of the fuzz suite and the sharpness tolerance of
#: acceptance criterion 3
EXACT_TOL = 1e-9
SHARPNESS_TOL = 1e-6
_STRATUM_EPS = 1e-3


def _strata(n: int):
    """The three branches of the piecewise constants: (-1, 0], (0, 1/n], (1/n, n)."""
    return (
        (-1.0 + _STRATUM_EPS, 0.0),
        (_STRATUM_EPS / n, 1.0 / n),
        (1.0 / n, n - _STRATUM_EPS),
    )


def _van_der_corput(k: int) -> float:
    """k-th point of the base-2 van der Corput sequence: 0, 1/2, 1/4, 3/4, ..."""
    out, scale = 0.0, 0.5
    while k:
        out += scale * (k & 1)
        k >>= 1
        scale /= 2.0
    return out


def _kind(body) -> str:
    return "polytope" if isinstance(body, Polytope) else "profile"


def _interleave(by_class: dict, cycle) -> list:
    """Take items class by class in ``cycle`` order until a class runs out."""
    queues = {cls: list(reversed(items)) for cls, items in by_class.items()}
    out = []
    while all(len(queues.get(cls, ())) >= cycle.count(cls) for cls in cycle):
        out.extend(queues[cls].pop() for cls in cycle)
    return out


def _write_body(workdir: str, name: str, body) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cli.body_to_obj(body), fh)
    return path


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Workload:
    """What the workloads share: the input stream, a run that lasts
    ``--seconds``, and no known defect."""

    def __init__(self, stream: int = 0):
        self.stream = stream  # 0 for the tuning inputs, 1 for held-out ones

    def run_ops(self, seconds: float, min_ops: int):
        """The number of operations a run makes, or None to run for ``seconds``."""
        return None

    def known_defect(self, item) -> bool:
        return False


class FuzzExact(Workload):
    """Every exact check on one fuzz body per operation (the exact part of
    the fuzz suite's per-body sequence), over acceptance-shaped corpora."""

    name = "fuzz_exact"
    # the acceptance corpus: 125 profiles at each n in 2..5, 250 polytopes at n = 2, 3
    CORPUS = dict(dims=(2, 3, 4, 5), profiles_per_dim=125, polytopes_per_dim=250, alphas_per_body=3)
    CYCLE = (
        ("polytope", 2), ("profile", 2), ("polytope", 3), ("profile", 3),
        ("polytope", 2), ("profile", 4), ("polytope", 3), ("profile", 5),
    )  # fmt: skip
    REPORTS_PER_BODY = 2 * CORPUS["alphas_per_body"] + 5
    cycle_len = len(CYCLE)

    def _items(self, config):
        for body, direction, body_seed in verify.fuzz_corpus(config):
            # the same stratified draw the fuzz suite makes for this body
            gen = oracle.rng_for(body_seed, shard=2)
            strata = _strata(body.dim)
            alphas = [float(gen.uniform(*strata[k % 3])) for k in range(config.alphas_per_body)]
            yield body, direction, body_seed, alphas

    def generate(self, rng: np.random.Generator, workdir: str) -> list:
        config = verify.FuzzConfig(**self.CORPUS, seed=int(rng.integers(1 << 62)))
        by_class = defaultdict(list)
        for item in self._items(config):
            by_class[(_kind(item[0]), item[0].dim)].append(item)
        return _interleave(by_class, self.CYCLE)

    def warmup(self, rng: np.random.Generator, workdir: str) -> list:
        """One profile and one polytope in R^3."""
        config = verify.FuzzConfig(
            dims=(3,), profiles_per_dim=1, polytopes_per_dim=1, seed=int(rng.integers(1 << 62))
        )
        return list(self._items(config))

    def op(self, item):
        body, direction, body_seed, alphas = item
        ctx = {"body_seed": body_seed}
        reports = []
        for alpha in alphas:
            cut = CutSpec(direction, alpha)
            reports.append(verify.check_theorem4(body, cut, tol=EXACT_TOL, context=ctx))
            reports.append(verify.check_theorem5(body, cut, tol=EXACT_TOL, context=ctx))
        reports.append(verify.check_grunbaum(body, direction, tol=EXACT_TOL, context=ctx))
        reports.append(verify.check_minkowski_radon(body, direction, tol=EXACT_TOL, context=ctx))
        reports.append(verify.check_concavity(body, direction, "A", tol=EXACT_TOL, context=ctx))
        reports.append(verify.check_concavity(body, direction, "V", tol=EXACT_TOL, context=ctx))
        reports.append(
            verify.check_symmetral_consistency(
                body, CutSpec(direction, alphas[0]), tol=EXACT_TOL, context=ctx
            )
        )
        return reports

    def check(self, item, reports) -> bool:
        return len(reports) == self.REPORTS_PER_BODY and all(r.passed for r in reports)

    def lines(self, item, reports) -> list:
        return [r.to_json() for r in reports]


class VerifyMc(Workload):
    """One in-process ``grunbaum verify`` with a 1M-sample Monte Carlo check."""

    name = "verify_mc"
    MC_SAMPLES = 1_000_000
    CYCLE = (
        ("polytope", 2), ("profile", 2), ("polytope", 3), ("profile", 3),
        ("profile", 4), ("profile", 5), ("polytope", 3),
    )  # fmt: skip
    cycle_len = len(CYCLE)
    ROUND_CYCLES = 20
    # six exact checks plus the Monte Carlo one; alpha is never exactly 0,
    # so the Grunbaum check is not added
    REPORTS = 7

    def generate(self, rng: np.random.Generator, workdir: str, count=None) -> list:
        """A round of ``ROUND_CYCLES`` cycles, or its first ``count`` items."""
        os.makedirs(workdir, exist_ok=True)
        items = []
        for i in range(self.ROUND_CYCLES * len(self.CYCLE) if count is None else count):
            kind, n = self.CYCLE[i % len(self.CYCLE)]
            body_seed = int(rng.integers(1 << 62))
            if kind == "polytope":
                body = oracle.random_polytope(n, 12, body_seed)
            else:
                body = oracle.random_profile(n, 6, body_seed)
            alpha = float(rng.uniform(*_strata(n)[i % 3]))
            path = _write_body(workdir, f"body_{i:04d}.json", body)
            items.append((path, alpha, int(rng.integers(1 << 31))))
        return items

    def warmup(self, rng: np.random.Generator, workdir: str) -> list:
        """The first polytope and the first profile of a round."""
        return self.generate(rng, workdir, count=2)

    def op(self, item):
        path, alpha, seed = item
        argv = ["verify", "--body", path, "--alpha", repr(alpha),
                "--mc-samples", str(self.MC_SAMPLES), "--seed", str(seed)]  # fmt: skip
        return _run_cli(argv)

    def check(self, item, result) -> bool:
        code, out, _ = result
        reports = [json.loads(line) for line in out.splitlines()]
        return (
            code == 0
            and len(reports) == self.REPORTS
            and all(r["pass"] for r in reports)
            and sum(r["backend"] == verify.MONTE_CARLO for r in reports) == 1
        )

    def lines(self, item, result) -> list:
        """Report lines with the body path reduced to its file name, which
        does not depend on where the run keeps its files."""
        out = []
        for line in result[1].splitlines():
            obj = json.loads(line)
            obj["context"]["path"] = os.path.basename(obj["context"]["path"])
            out.append(json.dumps(obj, sort_keys=True))
        return out


def c2_closed_form_n2(alpha: float) -> float:
    """The planar upper bound, written out independently of the package."""
    if alpha <= 0.0:
        return 1.0 - (2.0 * (alpha + 1.0) / 3.0) ** 2
    if alpha < 1.0:
        return (5.0 - 3.0 * alpha) / (9.0 * (alpha + 1.0))
    return (2.0 - alpha) ** 2 / 9.0


class ConstantsSweep(Workload):
    """One (alpha, n) row of a constants sweep per operation: the three
    bounds, then the sharpness identity on the upper extremizer."""

    name = "constants_sweep"
    N_GRID = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 40, 50)
    #: extra copies per cycle of two cells whose cost hardly depends on
    #: alpha, so that p90 falls inside the (30, 1) class and p50 inside the
    #: (6, 1) class, not on a boundary between classes of different cost;
    #: the many (6, 1) rows make p50 a median of many like operations
    EXTRA_CELLS = {(30, 1): 3, (6, 1): 9}
    cycle_len = 3 * len(N_GRID) + sum(EXTRA_CELLS.values())
    ROUND_CYCLES = 8
    #: the binomial sums cancel from about this n on (ROADMAP item 2); rows
    #: there still count as failed, but do not mark the run incorrect
    KNOWN_DEFECT_N = 25
    #: a run is a whole number of cycles, not a time: every run then makes
    #: the same rows, and so the same known-defect failures.  ``--seconds``
    #: sets the number at this time per cycle, measured as 10-12.5 s on the
    #: 2-vCPU host the benchmark was built on
    NOMINAL_CYCLE_S = 10.0

    def __init__(self, stream: int = 0):
        super().__init__(stream)
        self._cycles = 0  # cycles made so far; a later round goes on from here

    def run_ops(self, seconds: float, min_ops: int) -> int:
        cycles = max(1, math.ceil(min_ops / self.cycle_len), round(seconds / self.NOMINAL_CYCLE_S))
        return cycles * self.cycle_len

    def generate(self, rng: np.random.Generator, workdir: str) -> list:
        cells = [(n, branch) for n in self.N_GRID for branch in range(3)]
        cells += [cell for cell, copies in self.EXTRA_CELLS.items() for _ in range(copies)]
        # alpha sits at van der Corput fractions of its branch, each cell
        # shifted by its own offset: any run of cycles covers every branch
        # evenly, as the cost of c2 depends on alpha.  The offsets come from
        # the input stream, not the seed, so that every seed makes the same
        # rows; the seed orders the rows within each cycle
        offsets = np.random.default_rng(self.stream).random(len(cells))
        items = []
        for cycle in range(self._cycles, self._cycles + self.ROUND_CYCLES):
            frac = _van_der_corput(cycle)
            rows = []
            for (n, branch), offset in zip(cells, offsets):
                lo, hi = _strata(n)[branch]
                rows.append((float(lo + (hi - lo) * ((frac + offset) % 1.0)), n))
            items.extend(rows[i] for i in rng.permutation(len(rows)))
        self._cycles += self.ROUND_CYCLES
        return items

    def warmup(self, rng: np.random.Generator, workdir: str) -> list:
        """Two cheap rows: the planar closed form and a negative alpha."""
        return [(float(rng.uniform(0.1, 1.9)), 2), (float(rng.uniform(-0.9, -0.1)), 3)]

    def op(self, item):
        alpha, n = item
        triple = constants.bounds(alpha, n)
        body = extremal.upper_extremizer(alpha, n)
        return triple, verify.cut_ratio(body, CutSpec(Direction.axis(n), alpha))

    def check(self, item, result) -> bool:
        alpha, n = item
        triple, ratio = result
        c2 = triple.c2.value
        ok = abs(ratio - c2) <= SHARPNESS_TOL and triple.c1 <= c2 <= 1.0
        if n == 2:
            ok = ok and abs(c2 - c2_closed_form_n2(alpha)) <= SHARPNESS_TOL
        return ok

    def lines(self, item, result) -> list:
        alpha, n = item
        triple, ratio = result
        row = {
            "alpha": alpha, "n": n, "c1": triple.c1, "c2": triple.c2.value,
            "argmax_lambda": repr(triple.c2.argmax_lambda), "d": triple.d, "cut_ratio": ratio,
        }  # fmt: skip
        return [json.dumps(row, sort_keys=True)]

    def known_defect(self, item) -> bool:
        return item[1] >= self.KNOWN_DEFECT_N


WORKLOADS = {w.name: w for w in (FuzzExact, VerifyMc, ConstantsSweep)}


def layer_probe(rng: np.random.Generator, workdir: str) -> None:
    """Call every traced layer once on small inputs.

    The traced run uses it only for layers its workload never reached, so
    that every per-layer metric is measured in every traced run.
    """
    os.makedirs(workdir, exist_ok=True)
    bodies = (
        (oracle.random_polytope(3, 12, int(rng.integers(1 << 62))), "0.0"),
        (oracle.random_profile(5, 6, int(rng.integers(1 << 62))), repr(float(rng.uniform(0.05, 0.2)))),
    )
    for i, (body, alpha) in enumerate(bodies):
        path = _write_body(workdir, f"probe_{i}.json", body)
        _run_cli(["verify", "--body", path, "--alpha", alpha, "--mc-samples", "100000", "--seed", "1"])
    alpha = float(rng.uniform(0.2, 2.0))
    constants.bounds(alpha, 10)
    verify.cut_ratio(extremal.upper_extremizer(alpha, 10), CutSpec(Direction.axis(10), alpha))
