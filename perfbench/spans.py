"""Outside-in tracing of the package's coarse public entry points.

The tracer wraps functions from the outside: nothing in the package is
edited.  Because ``from .x import f`` binds a copy of ``f`` in the importing
module, every module of the package that holds the original function object
gets the wrapper.  ``hellymetric.hull`` and ``hellymetric.hyperbolicity``
are functions on the package (they shadow their modules), so modules are
looked up in ``sys.modules``.

Spans live in memory: (name, request, start, end, parent).  A span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# (module, function, span name); helpers such as DistanceMatrix.d are not
# wrapped, only the entry points that mark a layer boundary.
ENTRY_POINTS = (
    ("hellymetric.cli", "main", "cli"),
    ("hellymetric.graphs", "load_graph", "graphs.load"),
    ("hellymetric.report", "build_analysis", "report"),
    ("hellymetric.report", "verify_claims", "report"),
    ("hellymetric.report", "report_to_dict", "report"),
    ("hellymetric.distances", "apsp", "distances.apsp"),
    ("hellymetric.helly", "is_helly", "helly.is_helly"),
    ("hellymetric.helly", "is_pseudo_modular", "helly.pseudo_modular"),
    ("hellymetric.hyperbolicity", "hyperbolicity", "hyperbolicity.scan"),
    ("hellymetric.hyperbolicity", "interval_thinness", "hyperbolicity.thinness"),
    ("hellymetric.detect", "detect_H1", "detect.probe"),
    ("hellymetric.detect", "detect_H2", "detect.probe"),
    ("hellymetric.detect", "detect_H1_or_H3", "detect.probe"),
    ("hellymetric.detect", "power_characterization", "detect.power"),
    ("hellymetric.detect", "half_hyperbolic_equivalents", "detect.equivalents"),
    ("hellymetric.hull", "hull", "hull.enumerate"),
    ("hellymetric.hull", "hull_validate", "hull.validate"),
)


class Tracer:
    """In-memory span recorder with per-span-name counters."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, request, start, end, parent]
        self.counts: Counter[str] = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append([name, self.request, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx][3] = time.perf_counter()
                spans[idx][2] = t0
                stack.pop()
            if name == "detect.probe" and out is not None:
                counts["detect.probe.fired"] += 1
            elif name == "hull.enumerate":
                counts["hull.functions"] += len(out.functions)
            return out

        return traced

    def install(self) -> None:
        """Replace every package-level reference to each entry point."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "hellymetric" or k.startswith("hellymetric."))
        ]
        for mod_name, attr, span in ENTRY_POINTS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def layer_totals(self) -> tuple[dict[str, float], Counter[str]]:
        """Self seconds and call counts per span name."""
        child: dict[int, float] = defaultdict(float)
        for name, _req, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for i, (name, _req, t0, t1, _parent) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
        return dict(self_s), calls
