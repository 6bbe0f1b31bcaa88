"""Smoke test of the benchmark harness at a tiny size.

Run from the root of the checkout::

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402
from grunbaum.bodies import AnalyticProfile, Direction, Polytope  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    argv = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--min-ops", "1", "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOAD_INDEX))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    info, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert info["provenance"]["seed"] == 3
    assert len(info["reports_sha256"]) == 64


def test_gated_workloads_are_runnable():
    assert set(run.WORKLOAD_INDEX) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_INDEX)


def _seeded():
    return np.random.default_rng(0)


def _loop(workload, items):
    workload.cycle_len = 1  # stop after exactly these items
    stream = run.Stream(workload, None, run.ROOT, items)
    return run.run_loop(workload, stream, seconds=0.0, min_ops=len(items))


def test_known_bad_results_count_as_failed_operations():
    fuzz = workloads.FuzzExact()
    good = fuzz.warmup(_seeded(), "")[0]
    alphas = [-0.5, 0.3, 1.5]
    # criterion 5's corrupted profile: its checks run, concavity fails
    corrupted = AnalyticProfile(2, ((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
    assert len(fuzz.op((corrupted, Direction.axis(2), 0, alphas))) == fuzz.REPORTS_PER_BODY
    # a flat polytope makes the package raise
    flat = Polytope(2, ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
    items = [good, (corrupted, Direction.axis(2), 0, alphas), (flat, Direction.axis(2), 0, alphas)]
    res = _loop(fuzz, items)
    assert len(res.latencies) == 3
    assert res.failed == 2 and res.unexpected == 2
    assert res.hashed_ops == 3


def test_large_n_constants_row_is_a_known_defect_failure():
    res = _loop(workloads.ConstantsSweep(), [(0.3, 50), (0.3, 3)])
    assert res.failed == 1 and res.unexpected == 0


def test_constants_sweep_makes_the_same_rows_for_every_seed():
    sweep = workloads.ConstantsSweep
    first = sweep().generate(np.random.default_rng(1), "")
    second = sweep().generate(np.random.default_rng(2), "")
    assert first != second and sorted(first) == sorted(second)
    assert sorted(first) != sorted(sweep(stream=1).generate(np.random.default_rng(1), ""))
    assert sweep().run_ops(40.0, 100) == 4 * sweep.cycle_len


def test_inputs_are_seeded_and_follow_the_class_cycle():
    fuzz = workloads.FuzzExact()
    first = fuzz.generate(_seeded(), "")
    assert [i[2] for i in first] == [i[2] for i in fuzz.generate(_seeded(), "")]
    assert len(first) == 1000
    kinds = [("polytope" if isinstance(i[0], Polytope) else "profile", i[0].dim) for i in first]
    assert kinds == list(fuzz.CYCLE) * (len(first) // len(fuzz.CYCLE))
