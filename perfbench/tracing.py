"""Per-layer spans and counters for the traced benchmark run.

The tracer measures fuzzydom from outside the package: it wraps the entry
points of each module (the layers) and replaces every binding of the
original in every loaded fuzzydom module. harness, alpha and cli import the
solvers by name, so patching only the defining module would record nothing
for their calls.

Each wrapped call is a span. A layer's self time is the time its spans were
open minus the time of the spans nested inside them, so the self times of
all layers, plus the benchmark's own share of each op, add up to the op
time. Wrapping costs a little per call; the untraced run gives the
end-to-end figures and the traced run's own ops_per_s shows the overhead.

Private targets (the cover kernel selector and core's lru caches) are
optional: when a refactor removes them their rows are reported as absent
(null) instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    key: str          # metric prefix, e.g. "product.direct_product"
    layer: str        # the layer charged with the span's self time
    module: str       # module defining the target
    attr: str         # attribute, or "Class.attr" for a classmethod
    private: bool = False


TARGETS = (
    Target("cli.main", "cli", "fuzzydom.cli", "main"),
    Target("harness.run_corpus", "harness", "fuzzydom.harness", "run_corpus"),
    Target("harness.gen_random", "harness", "fuzzydom.harness", "gen_random"),
    Target("harness.shrink", "harness", "fuzzydom.harness", "shrink"),
    Target("harness.check_theorem", "harness", "fuzzydom.harness", "check_theorem"),
    Target("harness.save_report", "harness", "fuzzydom.harness", "save_report"),
    Target("product.direct_product", "product", "fuzzydom.product", "direct_product"),
    Target("domination.min_dominating", "domination", "fuzzydom.domination",
           "min_dominating"),
    Target("domination.min_total_dominating", "domination", "fuzzydom.domination",
           "min_total_dominating"),
    Target("domination.kernel", "cover", "fuzzydom._cover", "solve_min_cover",
           private=True),
    Target("alpha.gamma_t_alpha", "alpha", "fuzzydom.alpha", "gamma_t_alpha"),
    Target("alpha.gamma_alpha", "alpha", "fuzzydom.alpha", "gamma_alpha"),
    Target("alpha.build_lp", "alpha", "fuzzydom.alpha", "build_lp"),
    Target("simplex.minimize", "simplex", "fuzzydom.simplex", "simplex_minimize"),
    Target("core.build", "core", "fuzzydom.core", "FuzzyGraph.build"),
    Target("core.validate", "core", "fuzzydom.core", "validate"),
    Target("fileformat.load", "fileformat", "fuzzydom.fileformat", "load"),
    Target("fileformat.save", "fileformat", "fuzzydom.fileformat", "save"),
)

LAYERS = ("cli", "harness", "product", "domination", "cover", "alpha",
          "simplex", "core", "fileformat")

# the module whose module-level lru caches hold graphs alive
CACHE_MODULE = "fuzzydom.core"

# metric name -> (source, unit); the sources are read in Tracer.metrics
SPAN_METRICS = {
    "core.build_ms": ("core.build", "ms"),
    "core.build_calls": ("core.build", "count"),
    "core.validate_ms": ("core.validate", "ms"),
    "product.direct_product_ms": ("product.direct_product", "ms"),
    "product.direct_product_calls": ("product.direct_product", "count"),
    "domination.kernel_ms": ("domination.kernel", "ms"),
    "domination.kernel_calls": ("domination.kernel", "count"),
    "domination.min_dominating_ms": ("domination.min_dominating", "ms"),
    "domination.min_total_dominating_ms": ("domination.min_total_dominating", "ms"),
    "simplex.minimize_ms": ("simplex.minimize", "ms"),
    "simplex.minimize_calls": ("simplex.minimize", "count"),
    "alpha.build_lp_ms": ("alpha.build_lp", "ms"),
    "harness.gen_random_ms": ("harness.gen_random", "ms"),
    "harness.shrink_ms": ("harness.shrink", "ms"),
    "harness.shrink_calls": ("harness.shrink", "count"),
    "harness.check_theorem_calls": ("harness.check_theorem", "count"),
    "harness.save_report_ms": ("harness.save_report", "ms"),
    "fileformat.load_ms": ("fileformat.load", "ms"),
    "fileformat.save_ms": ("fileformat.save", "ms"),
}


def _fuzzydom_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fuzzydom" or name.startswith("fuzzydom."))]


class Tracer:
    """Wraps the targets on install() and puts the originals back on uninstall()."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []     # open spans: [start, child seconds]
        self.span_seconds: dict[str, float] = {}
        self.span_calls: dict[str, int] = {}
        self.self_seconds: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_seconds["bench"] = 0.0
        self.hash_calls = 0
        self.nonexistent = 0
        self.load_bytes = 0
        self.absent: set[str] = set()
        self._timed_from = dict(self.self_seconds)
        self._undo: list[tuple[object, str, object]] = []
        self._after = {"domination.min_total_dominating": self._count_nonexistent,
                       "fileformat.load": self._count_bytes}

    # -- spans ---------------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        span_seconds = self.span_seconds
        span_calls = self.span_calls
        self_seconds = self.self_seconds
        span_seconds.setdefault(key, 0.0)
        span_calls.setdefault(key, 0)
        after = self._after.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self_seconds[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                span_seconds[key] += duration
                span_calls[key] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def op(self, fn: Callable) -> Callable:
        """Root span for one benchmark op; its self time is the benchmark's own."""
        return self._wrap("trace.op", "bench", fn)

    def _count_nonexistent(self, args, result) -> None:
        if result.status == "nonexistent":
            self.nonexistent += 1

    def _count_bytes(self, args, result) -> None:
        self.load_bytes += os.path.getsize(args[0])

    def start_timed_phase(self) -> None:
        """Self times are reported from here on; spans and counts cover set-up too."""
        self._timed_from = dict(self.self_seconds)

    # -- patching ------------------------------------------------------------

    def _rebind(self, original: object, replacement: object) -> None:
        for module in _fuzzydom_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, replacement)

    def install(self) -> "Tracer":
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                if not target.private:
                    raise
                self.absent.add(target.key)
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if not hasattr(owner, attr):
                if not target.private:
                    raise AttributeError(f"{target.module}.{target.attr} is gone")
                self.absent.add(target.key)
                continue
            if owner_name:
                descriptor = inspect.getattr_static(owner, attr)
                wrapped = classmethod(self._wrap(target.key, target.layer,
                                                 descriptor.__func__))
                self._undo.append((owner, attr, descriptor))
                setattr(owner, attr, wrapped)
            else:
                original = getattr(owner, attr)
                self._rebind(original, self._wrap(target.key, target.layer, original))

        graph_cls = importlib.import_module("fuzzydom").FuzzyGraph
        original_hash = graph_cls.__hash__
        if original_hash is None:
            self.absent.add("core.graph_hash")
            return self

        def counted_hash(graph) -> int:
            self.hash_calls += 1
            return original_hash(graph)

        self._undo.append((graph_cls, "__hash__", original_hash))
        graph_cls.__hash__ = counted_hash
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -------------------------------------------------------------

    def cache_entries(self) -> Optional[int]:
        """Entries held by the lru caches of CACHE_MODULE, or None without any."""
        module = sys.modules.get(CACHE_MODULE)
        caches = [v for v in vars(module).values()
                  if callable(getattr(v, "cache_info", None))] if module else []
        if not caches:
            return None
        return sum(c.cache_info().currsize for c in caches)

    def calls(self, key: str) -> int:
        return self.span_calls.get(key, 0)

    def reach_problems(self, required: tuple[str, ...]) -> list[str]:
        """Layers that are present but recorded no calls on a workload needing them."""
        problems = [f"traced run recorded no call of {key}"
                    for key in required
                    if key not in self.absent and self.calls(key) == 0]
        if "domination.kernel" not in self.absent:
            solves = (self.calls("domination.min_dominating")
                      + self.calls("domination.min_total_dominating"))
            if self.calls("domination.kernel") != solves:
                problems.append(
                    f"{self.calls('domination.kernel')} kernel calls for "
                    f"{solves} solver calls")
        return problems

    def metrics(self) -> dict[str, tuple[Optional[float], str]]:
        """Per-layer metrics as name -> (value or None when absent, unit)."""
        out: dict[str, tuple[Optional[float], str]] = {}
        for name, (key, unit) in SPAN_METRICS.items():
            if key in self.absent:
                out[name] = (None, unit)
            elif unit == "ms":
                out[name] = (self.span_seconds.get(key, 0.0) * 1000, unit)
            else:
                out[name] = (self.calls(key), unit)
        out["core.graph_hash_calls"] = (
            None if "core.graph_hash" in self.absent else self.hash_calls, "count")
        out["core.graphs_retained"] = (self.cache_entries(), "count")
        out["domination.nonexistent_count"] = (self.nonexistent, "count")
        out["fileformat.load_bytes"] = (self.load_bytes, "bytes")
        timed = {layer: (seconds - self._timed_from[layer]) * 1000
                 for layer, seconds in self.self_seconds.items()}
        out["cli.main_self_ms"] = (timed["cli"], "ms")
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_ms"] = (timed[layer], "ms")
        out["trace.bench_self_ms"] = (timed["bench"], "ms")
        out["trace.op_ms"] = (self.span_seconds.get("trace.op", 0.0) * 1000, "ms")
        return out
