"""Span recording for the traced benchmark run.

A ``Recorder`` keeps spans (id, parent id, name, start, end, counters) in
memory.  ``Instrumentation`` wraps package functions that are reached
through a module attribute: while active it rebinds every name in the
package's modules that refers to the function (``measure.cut_volume``, and
``translate`` as imported into ``verify``), so calls from the harness and
calls between package modules both pass through the wrapper.  On exit it
puts the originals back, so untraced runs execute the package unmodified.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Recorder:
    """In-memory span store; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, counters or None)
        self._stack = []
        self._next_id = 0

    def open(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, name, parent, perf_counter()]
        self._stack.append(frame)
        return frame

    def close(self, frame, name=None, counters=None, end=None):
        end = perf_counter() if end is None else end
        self._stack.pop()
        self.spans.append((frame[0], frame[2], name or frame[1], frame[3], end, counters))


#: spans of cache-miss builds; ``SpanStats.mean_net`` leaves their time out
BUILD_SPANS = frozenset({"measure.hull_build", "measure.slab_build"})


class SpanStats:
    """Per-name aggregates of a recorder's spans."""

    def __init__(self, recorder: Recorder):
        child_time = defaultdict(float)
        build_time = defaultdict(float)  # seconds in the outermost builds beneath a span
        # a span is stored when it closes, so its children come before it
        for span_id, parent, name, start, end, _ in recorder.spans:
            if parent >= 0:
                child_time[parent] += end - start
                build_time[parent] += end - start if name in BUILD_SPANS else build_time[span_id]
        self.count = defaultdict(int)
        self.total = defaultdict(float)  # inclusive seconds
        self.net = defaultdict(float)  # inclusive seconds less nested builds
        self.self_time = defaultdict(float)  # seconds not covered by child spans
        self.counters = defaultdict(lambda: defaultdict(float))
        for span_id, _, name, start, end, counters in recorder.spans:
            self.count[name] += 1
            self.total[name] += end - start
            self.net[name] += end - start - build_time[span_id]
            self.self_time[name] += end - start - child_time[span_id]
            if counters:
                for key, value in counters:
                    self.counters[name][key] += value

    def mean(self, names, scale: float):
        """Mean inclusive duration per call over ``names``, times ``scale``."""
        calls = sum(self.count[n] for n in names)
        if calls == 0:
            return None
        return scale * sum(self.total[n] for n in names) / calls

    def mean_net(self, names, scale: float):
        """Like ``mean``, but without the time of cache-miss builds made
        during the call, which the build metrics already count."""
        calls = sum(self.count[n] for n in names)
        if calls == 0:
            return None
        return scale * sum(self.net[n] for n in names) / calls

    def per_unit(self, names, counter: str, scale: float):
        """Inclusive duration per unit of ``counter`` (e.g. per sample)."""
        units = sum(self.counters[n][counter] for n in names)
        if units == 0:
            return None
        return scale * sum(self.total[n] for n in names) / units

    def ratio(self, names, numerator: str, denominator: str):
        den = sum(self.counters[n][denominator] for n in names)
        if den == 0:
            return None
        return sum(self.counters[n][numerator] for n in names) / den

    def self_by_module(self) -> dict:
        """Self seconds summed by the module prefix of the span name."""
        out = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _plain(name):
    def wrap(fn, rec):
        def wrapper(*args, **kwargs):
            frame = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(frame)

        return wrapper

    return wrap


def _named_by(namer):
    """Span named from the call's arguments."""

    def wrap(fn, rec):
        def wrapper(*args, **kwargs):
            frame = rec.open("")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(frame, namer(args, kwargs))

        return wrapper

    return wrap


def _cached(miss_name, hit_name):
    """Span around an ``lru_cache`` function, named by whether it missed."""

    def wrap(fn, rec):
        info = fn.cache_info

        def wrapper(*args, **kwargs):
            misses = info().misses
            frame = rec.open("")
            try:
                return fn(*args, **kwargs)
            finally:
                missed = info().misses != misses
                name = miss_name(args, kwargs) if missed else hit_name
                rec.close(frame, name)

        return wrapper

    return wrap


def _counted(name, count_name, count_arg):
    """Span carrying a sample count taken from one argument."""

    def wrap(fn, rec):
        def wrapper(*args, **kwargs):
            frame = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(frame, counters=((count_name, _arg(args, kwargs, *count_arg)),))

        return wrapper

    return wrap


def _contains(fn, rec):
    """Membership span counting points tested and points accepted."""

    def wrapper(body, points):
        kind = "poly" if type(body).__name__ == "Polytope" else "profile"
        frame = rec.open(f"oracle.contains_{kind}")
        try:
            mask = fn(body, points)
        except BaseException:
            rec.close(frame)
            raise
        end = perf_counter()
        rec.close(frame, counters=(("points", len(mask)), ("hits", int(mask.sum()))), end=end)
        return mask

    return wrapper


def _c2_miss(args, kwargs):
    n = _arg(args, kwargs, 1, "n")
    if n <= 5:
        return "constants.c2_small_n"
    return "constants.c2_large_n" if n >= 10 else "constants.c2_mid_n"


def _mc_suffix(args, kwargs):
    """check_theorem4 and check_grunbaum take the backend as 4th argument."""
    return "_mc" if _arg(args, kwargs, 3, "backend", "exact") == "monte_carlo" else ""


# (module, attribute, wrapper factory); every binding of the function in the
# package is replaced, whichever module it was imported into.
TARGETS = (
    ("bodies", "translate", _plain("bodies.translate")),
    ("bodies", "validate", _plain("bodies.validate")),
    ("verify", "center", _plain("verify.center")),
    ("verify", "cut_ratio", _plain("verify.cut_ratio")),
    ("verify", "check_theorem4", _named_by(lambda a, k: "verify.check_theorem4" + _mc_suffix(a, k))),
    ("verify", "check_theorem5", _plain("verify.check_theorem5")),
    ("verify", "check_grunbaum", _named_by(lambda a, k: "verify.check_grunbaum" + _mc_suffix(a, k))),
    ("verify", "check_minkowski_radon", _plain("verify.check_minkowski_radon")),
    (
        "verify",
        "check_concavity",
        _named_by(lambda a, k: "verify.check_concavity_" + str(_arg(a, k, 2, "which", "A"))),
    ),
    ("verify", "check_symmetral_consistency", _plain("verify.check_symmetral_consistency")),
    ("measure", "_hull_data", _cached(lambda a, k: "measure.hull_build", "measure.hull_hit")),
    ("measure", "_poly_slabs", _cached(lambda a, k: "measure.slab_build", "measure.slab_hit")),
    (
        "measure",
        "cut_volume",
        _named_by(
            lambda a, k: "measure.cut_volume_poly"
            if type(a[0]).__name__ == "Polytope"
            else "measure.cut_volume_profile"
        ),
    ),
    ("measure", "max_section", _plain("measure.max_section")),
    ("measure", "centroid", _plain("measure.centroid")),
    ("measure", "centroid_coordinate", _plain("measure.centroid")),
    ("measure", "schwarz_symmetral", _plain("measure.symmetral")),
    ("constants", "c2", _cached(_c2_miss, "constants.c2_hit")),
    ("constants", "bounds", _plain("constants.bounds")),
    ("extremal", "upper_extremizer", _plain("extremal.upper_extremizer")),
    ("oracle", "mc_volume", _counted("oracle.mc_volume", "samples", (1, "samples"))),
    ("oracle", "mc_cut_volume", _counted("oracle.mc_cut_volume", "samples", (3, "samples"))),
    ("oracle", "contains", _contains),
    ("cli", "load_body", _plain("cli.load_body")),
    ("cli", "main", _named_by(lambda a, k: "cli." + str((_arg(a, k, 0, "argv") or ["?"])[0]))),
)

#: lru_cache functions whose hit ratio the traced run reports
CACHES = {"hull": ("measure", "_hull_data"), "slab": ("measure", "_poly_slabs"), "c2": ("constants", "c2")}


class Instrumentation:
    """Wraps ``TARGETS`` in the package's modules while active."""

    def __init__(self, package: str, recorder: Recorder):
        self.package = package
        self.recorder = recorder
        self._saved = []
        self._caches = {
            key: getattr(sys.modules[f"{package}.{mod}"], attr) for key, (mod, attr) in CACHES.items()
        }

    def _modules(self):
        prefix = self.package + "."
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m and (name == self.package or name.startswith(prefix))
        ]

    def cache_info(self) -> dict:
        return {key: fn.cache_info() for key, fn in self._caches.items()}

    def __enter__(self):
        modules = self._modules()
        for mod_name, attr, factory in TARGETS:
            target = getattr(sys.modules[f"{self.package}.{mod_name}"], attr)
            wrapper = factory(target, self.recorder)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()
        return False
