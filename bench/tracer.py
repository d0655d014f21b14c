"""Span tracing of factorbench from outside the package.

``Tracer.install`` replaces every public function of each traced module, and
every public method of the classes that module defines, with a wrapper that
records one span per call: its name, its parent span, and its start and end
on ``time.monotonic``, the clock the workloads time with. The replacement is
also made wherever another factorbench module imported the same object by
name (``reproduce``'s ``build_sieve``, ``zfamily``'s ``dirichlet_inverse``),
so calls between layers are seen. ``uninstall`` puts the originals back.
Spans stay in memory until ``summary`` or ``dump`` reads them.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from types import ModuleType

PACKAGE = "factorbench"
# Layer name -> module; config and verify are not timed.
LAYERS = ("sieve", "factorizations", "dirichlet", "counting", "zeta", "zfamily", "reproduce", "cli")


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _limit_of(args, kwargs, key):
    return _first_arg(args, kwargs, key).limit


# Span name -> (counter name, work done by one call from its args and result).
WORK_COUNTERS = {
    "sieve.build_sieve": ("sieve.integers", lambda a, kw, r: _first_arg(a, kw, "limit")),
    "factorizations.build_factorisation_tables": (
        "factorizations.cells", lambda a, kw, r: (r.k_max + 1) * (r.limit + 1)),
    "dirichlet.dirichlet_inverse": ("dirichlet.terms", lambda a, kw, r: _limit_of(a, kw, "F")),
    "dirichlet.convolve": ("dirichlet.terms", lambda a, kw, r: _limit_of(a, kw, "F")),
    "dirichlet.inverse_via_alternating": ("dirichlet.terms", lambda a, kw, r: _limit_of(a, kw, "F")),
    "counting.coffeeshop_sum": (
        "counting.coffeeshop_sum.integers", lambda a, kw, r: math.floor(_first_arg(a, kw, "x"))),
    "zeta.sarnak_correlation": (
        "zeta.sarnak_correlation.integers", lambda a, kw, r: math.floor(_first_arg(a, kw, "x"))),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end, outermost]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.monotonic
        counter = WORK_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            active[name] = depth + 1
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                active[name] = depth
            if counter is not None:
                key, work = counter
                self.counters[key] = self.counters.get(key, 0) + work(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if isinstance(mod, ModuleType)
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # rebind every name in the package that refers to a wrapped function
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(f"{layer}.{attr}", obj.__func__))
            elif callable(obj):
                wrapped = self._wrap(f"{layer}.{attr}", obj)
            else:
                continue  # properties and constants
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per-name ``.s`` (inclusive seconds, nested calls of the same name
        counted once) and ``.calls``; per-layer ``.self_s`` (span time not
        covered by nested spans); and the work counters."""
        out: dict[str, float] = dict(self.counters)
        self_time = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                self_time[s[1]] -= s[3] - s[2]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for s, own in zip(self.spans, self_time):
            name = s[0]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            if s[4]:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (s[3] - s[2])
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += own
        return out

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON, times in seconds from ``origin``."""
        rows = [[s[0], s[1], s[2] - origin, s[3] - origin] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"], "spans": rows}, fh)
