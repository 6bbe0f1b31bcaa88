"""The benchmark's tracing hooks name functions that exist in the package.

``bench/tracing.py`` wraps package functions by module and attribute name;
a renamed function would otherwise surface only in the benchmark's own
smoke test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracing_hooks_resolve():
    tracing = _load_tracing()
    for mod, attr, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(f"grunbaum.{mod}"), attr, None)
        assert callable(target), f"grunbaum.{mod}.{attr}"
    for mod, attr in tracing.CACHES.values():
        target = getattr(importlib.import_module(f"grunbaum.{mod}"), attr, None)
        assert hasattr(target, "cache_info"), f"grunbaum.{mod}.{attr}"
