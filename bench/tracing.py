"""Spans around the public functions of every zrs module.

install() replaces each public function and public method of the modules in
LAYERS by a wrapper that records a span (name, start, end, parent). It
replaces every reference to the function, so the names that one module
imports from another (cli.classify, classifier.build, metric.find_poles,
every module's base_tol) are traced too. Per name it keeps exact call
counts, total time and self time (total minus the time of child spans);
spans themselves are kept only while `spans` is a list.
"""

import functools
import importlib
import inspect
import time
from enum import Enum

LAYERS = ("pauli", "tolerances", "interaction", "smatrix", "classifier", "metric", "resolvent", "cli")


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_ns, self_ns]
        self.spans = None  # list of (name, start_ns, end_ns, span_id, parent_id)
        self._stack = []
        self._next_id = 0
        self._restore = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0, self._next_id]  # child time, span id
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if self.spans is not None:
                    self.spans.append((name, start, end, frame[1], parent))

        return traced

    def install(self):
        modules = {name: importlib.import_module(f"zrs.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("zrs")] + list(modules.values())
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    traced = self._wrap(f"{layer}.{attr}", value)
                    for ns in namespaces:
                        for key, other in list(vars(ns).items()):
                            if other is value:
                                self._restore.append((ns, key, other))
                                setattr(ns, key, traced)
                elif inspect.isclass(value) and not issubclass(value, Enum):
                    self._wrap_methods(layer, value)

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def snapshot(self):
        return {name: tuple(s) for name, s in self.stats.items()}


def delta(after, before):
    """Per-name (calls, total_ns, self_ns) between two snapshots."""
    out = {}
    for name, (calls, total, own) in after.items():
        c0, t0, s0 = before.get(name, (0, 0, 0))
        if calls != c0:
            out[name] = (calls - c0, total - t0, own - s0)
    return out
