#!/usr/bin/env python3
"""Benchmark harness for the grunbaum package.

Run from the root of a source checkout::

    python3 bench/run.py --workload verify_mc --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload verify_mc --seed 1 --seconds 50 --trace 1

The package is imported from ``src/`` of the checkout and treated as a
black box.  Each workload runs as a closed loop in this one process: the
next operation starts when the previous one returns.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` measures half the time untraced and
half traced and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is the result object; the line before it
carries provenance, the report hash and the failure count.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"

SETUP_REPEATS = 3
#: operations whose reports the hash covers, fixed so that runs of any
#: length (and programs of any speed) hash the same reports
HASH_OPS = 100
#: no operation starts later than this after the process started, so a run
#: ends within 180 s
HARD_STOP_S = 150.0
#: a second seed namespace for held-out inputs
HELD_OUT_STREAM = 1
#: round indices of the warm-up and probe inputs, outside the measured stream
WARMUP_ROUND = (1 << 32) - 1
PROBE_ROUND = (1 << 32) - 2

WORKLOAD_INDEX = {"fuzz_exact": 0, "verify_mc": 1, "constants_sweep": 2}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INDEX))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out",
        action="store_true",
        help="draw the inputs from a second seed stream that was not used while tuning",
    )
    parser.add_argument(
        "--min-ops", type=int, default=100, help="keep measuring until this many operations ran"
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root: Path):
    """HEAD of the checkout, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "grunbaum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[os.path.basename(path)] = fn()
                break
    return out


def provenance(args) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_sha256(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.held_out,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# the closed loop


class Stream:
    """The workload's items in order; later rounds are made when needed."""

    def __init__(self, workload, seeds, workdir: Path, first_round: list):
        self.workload = workload
        self.seeds = seeds
        self.workdir = workdir
        self.items = deque(first_round)
        self.round = 1

    def next(self):
        if not self.items:
            rng = self.seeds(self.round)
            self.items.extend(self.workload.generate(rng, str(self.workdir / f"round{self.round}")))
            self.round += 1
        return self.items.popleft()


class LoopResult:
    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.unexpected = 0  # failures outside the workload's known defects
        self.hash_lines = []
        self.hashed_ops = 0


def run_loop(
    workload, stream: Stream, seconds: float, min_ops: int, recorder=None, deadline=math.inf
) -> LoopResult:
    """Run operations back to back until ``seconds`` passed, at least
    ``min_ops`` ran and the last input cycle is complete, or for the number
    of operations the workload fixes; start none after ``deadline`` (a
    ``perf_counter`` time).  A raised or wrong result counts as a failed
    operation."""
    res = LoopResult()
    fixed_ops = workload.run_ops(seconds, min_ops)
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        ops = len(res.latencies)
        if fixed_ops is None:
            done = now - start >= seconds and ops >= min_ops and ops % workload.cycle_len == 0
        else:
            done = ops >= fixed_ops
        if done or now >= deadline:
            break
        item = stream.next()
        frame = recorder.open("bench.op") if recorder is not None else None
        t0 = time.perf_counter()
        try:
            payload, error = workload.op(item), None
        except Exception as exc:  # the loop must go on; the failure is counted
            payload, error = None, exc
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.close(frame, end=t1)
        res.latencies.append(t1 - t0)
        if error is None:
            try:
                ok = workload.check(item, payload)
            except (ValueError, KeyError, TypeError) as exc:
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            res.failed += 1
            if not workload.known_defect(item):
                res.unexpected += 1
            if res.failed <= 3:
                print(f"failed operation {item!r:.200}: {error!r}", file=sys.stderr)
        if res.hashed_ops < HASH_OPS:
            res.hashed_ops += 1
            if error is None:
                res.hash_lines.extend(workload.lines(item, payload))
            else:
                res.hash_lines.append(f"error: {type(error).__name__}")
    return res


def _reports_sha256(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics of the traced run


def _layer_metrics():
    """(name, unit, extractor) for every per-layer metric; an extractor
    returns None when the run made no call that measures it."""
    ms, us = 1e3, 1e6

    def mean(names, scale):
        return lambda s, c: s.mean(names, scale)

    def mean_net(names, scale):
        return lambda s, c: s.mean_net(names, scale)

    def per_1m(names, counter):
        return lambda s, c: s.per_unit(names, counter, 1e6)

    def hit_ratio(key):
        def extract(s, caches):
            hits, misses = caches[key]
            return hits / (hits + misses) if hits + misses else None

        return extract

    checks = [
        "theorem4", "theorem5", "grunbaum", "minkowski_radon", "concavity_A",
        "concavity_V", "symmetral_consistency", "theorem4_mc",
    ]  # fmt: skip
    return [
        ("bodies.translate_us", "us", mean(["bodies.translate"], us)),
        ("bodies.validate_us", "us", mean(["bodies.validate"], us)),
        ("verify.center_ms", "ms", mean(["verify.center"], ms)),
        ("measure.hull_build_ms", "ms", mean(["measure.hull_build"], ms)),
        ("measure.slab_build_ms", "ms", mean(["measure.slab_build"], ms)),
        ("measure.cut_volume_poly_us", "us", mean_net(["measure.cut_volume_poly"], us)),
        ("measure.cut_volume_profile_us", "us", mean_net(["measure.cut_volume_profile"], us)),
        ("measure.max_section_us", "us", mean(["measure.max_section"], us)),
        ("measure.centroid_us", "us", mean(["measure.centroid"], us)),
        ("measure.symmetral_ms", "ms", mean(["measure.symmetral"], ms)),
        ("measure.hull_cache_hit_ratio", "ratio", hit_ratio("hull")),
        ("measure.slab_cache_hit_ratio", "ratio", hit_ratio("slab")),
        ("constants.c2_small_n_ms", "ms", mean(["constants.c2_small_n"], ms)),
        ("constants.c2_large_n_ms", "ms", mean(["constants.c2_large_n"], ms)),
        ("constants.c2_cache_hit_ratio", "ratio", hit_ratio("c2")),
        ("extremal.upper_extremizer_ms", "ms", mean(["extremal.upper_extremizer"], ms)),
        ("oracle.mc_volume_s_per_1M", "s/1M", per_1m(["oracle.mc_volume"], "samples")),
        ("oracle.mc_cut_volume_s_per_1M", "s/1M", per_1m(["oracle.mc_cut_volume"], "samples")),
        ("oracle.contains_poly_s_per_1M", "s/1M", per_1m(["oracle.contains_poly"], "points")),
        ("oracle.contains_profile_s_per_1M", "s/1M", per_1m(["oracle.contains_profile"], "points")),
        (
            "oracle.acceptance_ratio",
            "ratio",
            lambda s, c: s.ratio(["oracle.contains_poly", "oracle.contains_profile"], "hits", "points"),
        ),
        *((f"verify.check_{c}_ms", "ms", mean([f"verify.check_{c}"], ms)) for c in checks),
        ("cli.verify_ms", "ms", mean(["cli.verify"], ms)),
        ("cli.load_body_ms", "ms", mean(["cli.load_body"], ms)),
    ]


#: calls per operation that a change to the exact layer should move; counts
#: of the workload itself, zero where it makes no such call
COUNTS_PER_OP = {
    "verify.center_calls_per_op": ["verify.center"],
    "bodies.translate_calls_per_op": ["bodies.translate"],
    "measure.cut_volume_calls_per_op": ["measure.cut_volume_poly", "measure.cut_volume_profile"],
    "measure.hull_builds_per_op": ["measure.hull_build"],
    "measure.slab_builds_per_op": ["measure.slab_build"],
    "constants.c2_computes_per_op": [
        "constants.c2_small_n", "constants.c2_mid_n", "constants.c2_large_n",
    ],  # fmt: skip
}


def traced_pass(work):
    """Run ``work(recorder)`` with the package instrumented; return the span
    stats, the cache (hits, misses) deltas and what ``work`` returned."""
    import tracing

    recorder = tracing.Recorder()
    with tracing.Instrumentation("grunbaum", recorder) as inst:
        before = inst.cache_info()
        out = work(recorder)
        after = inst.cache_info()
    caches = {
        k: (after[k].hits - before[k].hits, after[k].misses - before[k].misses) for k in before
    }
    return tracing.SpanStats(recorder), caches, out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "grunbaum" / "__init__.py").is_file():
        print(f"error: no grunbaum package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # the package's third-party dependencies load before the set-up clock:
    # their import time varies from run to run and does not depend on the package
    import numpy as np
    import scipy.spatial  # noqa: F401

    deps_import_s = time.perf_counter() - _T0
    deadline = _T0 + HARD_STOP_S
    stream_id = HELD_OUT_STREAM if args.held_out else 0

    def seeds(round_index):
        key = [args.seed % (1 << 63), stream_id, WORKLOAD_INDEX[args.workload], round_index]
        return np.random.default_rng(np.random.SeedSequence(key))

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up, repeated; the median enters setup_s.  Each repetition
        # imports the package anew, makes the inputs and warms up on inputs
        # outside the measured stream, so that lazy imports and first-call
        # costs land in set-up, not in the first operation.  The measured
        # loop uses the package of the last repetition.
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workloads = _fresh_import("workloads")
            workload = workloads.WORKLOADS[args.workload](stream_id)
            first_round = workload.generate(seeds(0), str(workdir / f"round0-{rep}"))
            for item in workload.warmup(seeds(WARMUP_ROUND), str(workdir / f"warmup-{rep}")):
                workload.op(item)
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)
        package = sys.modules["grunbaum"]
        if Path(package.__file__).resolve().parent != (src / "grunbaum").resolve():
            print(f"error: imported grunbaum from {package.__file__}, not {src}", file=sys.stderr)
            return 2

        stream = Stream(workload, seeds, workdir, first_round)
        info = {
            "provenance": provenance(args),
            "setup": {"deps_import_s": deps_import_s, "setup_s": setup_times},
        }
        if args.trace == 0:
            res = run_loop(workload, stream, args.seconds, args.min_ops, deadline=deadline)
            lat = res.latencies
            metrics = {
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
                "op_p90_ms": (1e3 * _p90(lat), "ms"),
                "ok_ops_frac": ((len(lat) - res.failed) / len(lat), "frac"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
            }
        else:
            half = args.seconds / 2.0
            plain = run_loop(workload, stream, half, args.min_ops // 2, deadline=deadline)
            stats, caches, res = traced_pass(
                lambda rec: run_loop(workload, stream, half, args.min_ops // 2, rec, deadline)
            )
            metrics, probed = _per_layer(stats, caches, len(res.latencies), seeds, workdir)
            untraced = statistics.mean(plain.latencies)
            traced = statistics.mean(res.latencies)
            metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
            info["untraced_ops"] = len(plain.latencies)
            info["probe_filled"] = probed
            info["self_ms_per_op"] = {
                module: 1e3 * seconds / len(res.latencies)
                for module, seconds in sorted(stats.self_by_module().items())
            }
            res.failed += plain.failed
            res.unexpected += plain.unexpected
            res.latencies = plain.latencies + res.latencies
            res.hash_lines, res.hashed_ops = plain.hash_lines, plain.hashed_ops
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    attempted = len(res.latencies)
    info.update(
        samples=attempted,
        failed=res.failed,
        failed_ops_frac=res.failed / attempted,
        known_defect_failures=res.failed - res.unexpected,
        reports_sha256=_reports_sha256(res.hash_lines),
        reports_hashed_ops=res.hashed_ops,
    )
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": res.unexpected == 0,
        "attempted": attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _fresh_import(name: str):
    """Import ``name`` with the package and the harness modules loaded anew,
    as in a new process; third-party modules stay loaded."""
    for loaded in list(sys.modules):
        if loaded in (name, "grunbaum") or loaded.startswith("grunbaum."):
            del sys.modules[loaded]
    return importlib.import_module(name)


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _per_layer(stats, caches, ops, seeds, workdir):
    """Per-layer metrics from the traced pass; layers the workload never
    reached are measured by one ``layer_probe`` call instead."""
    import workloads

    metrics, missing = {}, []
    for name, unit, extract in _layer_metrics():
        value = extract(stats, caches)
        if value is None:
            missing.append((name, unit, extract))
        else:
            metrics[name] = (value, unit)
    if missing:
        probe_rng = seeds(PROBE_ROUND)
        probe_stats, probe_caches, _ = traced_pass(
            lambda rec: workloads.layer_probe(probe_rng, str(workdir / "probe"))
        )
        for name, unit, extract in missing:
            value = extract(probe_stats, probe_caches)
            metrics[name] = (0.0 if value is None else value, unit)
    for name, names in COUNTS_PER_OP.items():
        metrics[name] = (sum(stats.count[n] for n in names) / ops, "count")
    return metrics, sorted(name for name, _, _ in missing)


if __name__ == "__main__":
    sys.exit(main())
