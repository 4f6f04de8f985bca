"""Outside-in layer tracing for the bbm92kit benchmark.

The tracer wraps the public functions of the program's modules from the
benchmark's side; the program itself is not modified.  A wrapped function
may be bound under its name in several module namespaces (``sim`` and
``attack`` both import ``outcome_projectors``, the package re-exports
nearly everything), so every namespace of the package that binds the
original object is patched, and ``restore`` puts every original back.

Each call records a span (function, start, end, parent span) in flat
in-memory arrays, and aggregates calls, inclusive time and self time, where
self time is the span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable

PACKAGE = "bbm92kit"
LAYER_MODULES = ("cli", "rates", "povm", "attack", "fock", "sim")

# Spans beyond this many are aggregated but not kept, bounding memory at
# about 25 bytes per span.
SPAN_CAP = 2_000_000


def _is_public_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def public_functions() -> dict[str, Callable]:
    """Qualified name ('rates.tau_low') to function, for every layer module."""
    found = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for name, obj in vars(module).items():
            if not name.startswith("_") and _is_public_function(obj, module.__name__):
                found[f"{short}.{name}"] = obj
    return found


class LayerStats:
    """Aggregates for one wrapped function."""

    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


def _count_events(stats: LayerStats, args, kwargs, result) -> None:
    count = kwargs["count"] if "count" in kwargs else args[2]
    stats.add("events", count)


def _count_points(stats: LayerStats, args, kwargs, result) -> None:
    stats.add("points", len(result))


def _count_sifted(stats: LayerStats, args, kwargs, result) -> None:
    stats.add("events", result.n_events)
    stats.add("sifted", result.n)


# Work counts read from a call's arguments or result, keyed by qualified name.
HOOKS = {
    "sim.event_uniforms": _count_events,
    "povm.trace_boundary": _count_points,
    "sim.run_protocol": _count_sifted,
}


class Tracer:
    """Wraps every public function of the layer modules of the package."""

    def __init__(self) -> None:
        self.originals = public_functions()
        self.names = list(self.originals)
        self.stats = {name: LayerStats() for name in self.names}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self._stack: list[list] = []
        self.wrappers = {
            name: self._wrap(i, name, fn) for i, (name, fn) in enumerate(self.originals.items())
        }
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, name: str, fn: Callable) -> Callable:
        stack = self._stack
        stats = self.stats[name]
        hook = HOOKS.get(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_start)
            if sid < SPAN_CAP:
                span_name.append(index)
                span_parent.append(stack[-1][0] if stack else -1)
                span_end.append(0.0)
            else:
                sid = -1
                self.spans_dropped += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf()
            if sid >= 0:
                span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if sid >= 0:
                    span_end[sid] = end
                stats.calls += 1
                stats.self_s += duration - frame[1]
                stats.total_s += duration
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        return wrapper

    def patch(self) -> None:
        """Bind the wrappers in every package namespace that binds an original."""
        if self._patched:
            raise RuntimeError("tracer is already patched")
        by_id = {id(fn): self.wrappers[name] for name, fn in self.originals.items()}
        prefix = PACKAGE + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every original binding that ``patch`` replaced."""
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def drain(self, into: dict[str, LayerStats], scale: float = 1.0) -> None:
        """Add the aggregates to ``into``, times multiplied by ``scale``, and zero them."""
        for name, stats in self.stats.items():
            total = into.setdefault(name, LayerStats())
            total.calls += stats.calls
            total.self_s += scale * stats.self_s
            total.total_s += scale * stats.total_s
            for key, value in stats.extra.items():
                total.add(key, value)
            stats.__init__()

    def write_spans(self, path) -> int:
        """Write the kept spans as a compressed .npz; returns the span count."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_start)
