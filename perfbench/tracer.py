"""Span tracer for the qtimeloop modules, installed from outside the package.

Every public function of each qtimeloop module, and the FeedbackNetwork
constructor, is replaced by a wrapper that times the call. The wrapper is
rebound under every name that referred to the original in any loaded
qtimeloop module, so calls from one module into another go through it too.

Spans are folded into totals as they close, because a single scan op opens
about 10^5 of them: a span's self time is its duration minus the time its
child spans cover, and it is added to the per-function total kept in memory.
Counts are taken at the same boundaries. Nothing is recorded while
``enabled`` is false, so the benchmark's own checks can call the package
without showing up in the layer totals.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "config", "network", "linalg", "oracle", "scenarios", "records", "svgplot")


def _count_points(counts, args, kwargs, result, exc):
    if result is not None:
        counts["scenarios.points"] += len(result.points)


def _count_traversals(counts, args, kwargs, result, exc):
    report = result[1] if result is not None else getattr(exc, "report", None)
    counts["oracle.calls"] += 1
    if report is not None:
        counts["oracle.traversals"] += report.iterations_used
        counts["oracle.converged"] += int(report.converged)


def _count_config_bytes(counts, args, kwargs, result, exc):
    path = args[0] if args else kwargs["path"]
    counts["config.input_bytes"] += os.path.getsize(path)


def _count_svg_bytes(counts, args, kwargs, result, exc):
    if result is not None:
        counts["svgplot.output_bytes"] += len(result.encode("utf-8"))


# counters read off a call's arguments or result, keyed by "module.function"
_COUNTERS = {
    "scenarios.phase_scan": _count_points,
    "oracle.solve_by_iteration": _count_traversals,
    "config.load_config": _count_config_bytes,
    "svgplot.polyline_plot": _count_svg_bytes,
}


class Tracer:
    """Per-function self time (ns), call counts and named counters."""

    def __init__(self):
        self.enabled = False
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        counter = _COUNTERS.get(key)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                duration = clock() - start
                self.self_ns[key] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                self.calls[key] += 1
                if counter is not None:
                    counter(self.counts, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module and rebind them."""
        modules = [importlib.import_module(f"qtimeloop.{name}") for name in LAYERS]
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "qtimeloop"]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", obj)
                for namespace in namespaces:
                    for alias, value in list(vars(namespace).items()):
                        if value is obj:
                            self._restore.append((namespace, alias, obj))
                            setattr(namespace, alias, wrapper)
        network_cls = modules[LAYERS.index("network")].FeedbackNetwork
        init = network_cls.__init__
        self._restore.append((network_cls, "__init__", init))
        network_cls.__init__ = self._wrap("network.FeedbackNetwork", init)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
