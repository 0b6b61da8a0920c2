"""Per-layer host-time attribution, recorded from outside the program.

The program under test carries no tracing of its own here.  A
:class:`Tracer` wraps the public entry points of each layer (the
``SPECS`` table), records one span per call -- name, start, end and the
span that caused it -- plus counts taken from arguments and return
values, all in memory.  :func:`layer_metrics` derives the per-layer
metrics from the recorded spans and counts: a layer's self time is its
spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# (span name, module, attribute path).  Layers with two kinds of calls
# timed apart get one span name per kind ("runtime.cache.get", ...).
SPECS = (
    ("cpu.cachesim", "repro.cpu.cachesim", "CacheHierarchySim.run"),
    ("workloads.calibration", "repro.workloads.calibration",
     "derive_parameters"),
    ("workloads.calibration", "repro.workloads.calibration",
     "timeliness_vs_latency"),
    ("cpu.tracepipeline", "repro.cpu.tracepipeline", "TracePipeline.run"),
    ("cpu.pipeline", "repro.cpu.pipeline", "run_workload"),
    ("cpu.backend", "repro.cpu.backend", "BackendModel.solve"),
    ("hw.target", "repro.hw.target", "MemoryTarget.distribution"),
    ("hw.cxl", "repro.hw.cxl.eventdevice", "EventDrivenDevice.simulate"),
    ("hw.cxl", "repro.hw.cxl.eventdevice", "simulate_batch"),
    ("runtime.executor", "repro.runtime.executor",
     "CampaignEngine.run_cells"),
    ("runtime.cache.get", "repro.runtime.cache", "RunCache.get"),
    ("runtime.cache.put", "repro.runtime.cache", "RunCache.put"),
    ("store.promote", "repro.runtime.cache", "RunCache.promote_store"),
    ("store.get_result", "repro.store.store", "ResultStore.get_result"),
    ("core.melody", "repro.core.melody", "Melody.run"),
    ("serve.execute", "repro.serve.app", "ServeApp.execute_job"),
    ("serve.queue_wait", "repro.serve.admission",
     "AdmissionController.acquire_slot"),
    ("obs.metrics.render", "repro.obs.metrics",
     "MetricsRegistry.to_prometheus"),
)

EXACT_COUNTS = (
    "cpu.cachesim.accesses", "cpu.cachesim.l1_hits", "cpu.cachesim.l2_hits",
    "cpu.cachesim.l3_hits", "cpu.cachesim.misses", "cpu.cachesim.prefetches",
    "hw.cxl.sim_requests", "runtime.executor.cells_run",
    "runtime.executor.cells_cached",
)
"""Simulated statistics that a fixed-seed model repeats exactly."""


def _count_cachesim(counts: Counter, args, kwargs, stats) -> None:
    counts["cpu.cachesim.accesses"] += stats.accesses
    counts["cpu.cachesim.l1_hits"] += stats.accesses - stats.l1_misses
    counts["cpu.cachesim.l2_hits"] += stats.l1_misses - stats.l2_misses
    counts["cpu.cachesim.l3_hits"] += (
        stats.l2_misses - stats.prefetches_useful - stats.l3_misses
    )
    counts["cpu.cachesim.misses"] += stats.l3_misses
    counts["cpu.cachesim.prefetches"] += stats.prefetches_issued


def _count_simulate(counts: Counter, args, kwargs, result) -> None:
    # EventDrivenDevice.simulate(self, n_requests, ...)
    n = kwargs["n_requests"] if "n_requests" in kwargs else args[1]
    counts["hw.cxl.sim_requests"] += int(n)


def _count_simulate_batch(counts: Counter, args, kwargs, results) -> None:
    points = kwargs["points"] if "points" in kwargs else args[0]
    counts["hw.cxl.sim_requests"] += sum(int(p[1]) for p in points)


COUNTERS: Dict[str, Callable] = {
    "CacheHierarchySim.run": _count_cachesim,
    "EventDrivenDevice.simulate": _count_simulate,
    "simulate_batch": _count_simulate_batch,
}


class Tracer:
    """Span and count recorder installed around the layers' entry points.

    Spans live in per-thread lists, so the parent of a span is the span
    open on the same thread when it began.  Coroutine spans (the serve
    layer) interleave on the event loop thread; they are recorded
    without a parent and never become one.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._threads: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # (spans, stack of open span indices)
            self._local.state = state
            with self._lock:
                self._threads.append(state[0])
        return state

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]):
        tracer = self
        clock = time.perf_counter
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                spans, _ = tracer._state()
                span = [name, clock(), 0.0, -1]
                spans.append(span)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span[2] = clock()
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._state()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def _patch_class(self, cls, attr: str, name: str, counter) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, counter))
        self._restore.append(lambda: setattr(cls, attr, original))

    def _patch_function(self, original: Callable, name: str, counter) -> None:
        """Replace every module-level reference to ``original``."""
        wrapped = self._wrap(name, original, counter)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._restore.append(
                        functools.partial(setattr, module, attr, original)
                    )

    def install(self, experiment_modules=()) -> None:
        """Wrap every layer entry point (and each experiment's run/render)."""
        for name, module_name, path in SPECS:
            module = importlib.import_module(module_name)
            counter = COUNTERS.get(path)
            if "." not in path:
                self._patch_function(getattr(module, path), name, counter)
                continue
            class_name, attr = path.split(".")
            base = getattr(module, class_name)
            # Subclasses that override the method are layer entry points
            # too (e.g. every MemoryTarget kind has its own distribution).
            todo, seen = [base], set()
            while todo:
                cls = todo.pop()
                if cls in seen:
                    continue
                seen.add(cls)
                todo.extend(cls.__subclasses__())
                if attr in cls.__dict__:
                    self._patch_class(cls, attr, name, counter)
        for module in experiment_modules:
            for attr in ("run", "render"):
                original = getattr(module, attr)
                setattr(module, attr,
                        self._wrap(f"experiments.{attr}", original, None))
                self._restore.append(
                    functools.partial(setattr, module, attr, original)
                )
        self._count_engine_cells()

    def _count_engine_cells(self) -> None:
        """Count cells run and served from cache around ``run_cells``.

        The engine's stats object is the only place these outcomes are
        visible from outside, so the count is its change over each call.
        """
        from repro.runtime.executor import CampaignEngine

        traced = CampaignEngine.run_cells
        counts = self.counts

        @functools.wraps(traced)
        def counted(engine, cells):
            run, cached = engine.stats.cells_run, engine.stats.cells_cached
            try:
                return traced(engine, cells)
            finally:
                counts["runtime.executor.cells_run"] += (
                    engine.stats.cells_run - run)
                counts["runtime.executor.cells_cached"] += (
                    engine.stats.cells_cached - cached)

        CampaignEngine.run_cells = counted
        self._restore.append(
            functools.partial(setattr, CampaignEngine, "run_cells", traced)
        )

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._restore:
            self._restore.pop()()

    # -- derivation --------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Per span name: calls, total and self seconds; plus the counts,
        the durations of the serve queue-wait spans, and the top-level
        intervals (spans with no parent) for the attribution gap."""
        calls: Counter = Counter()
        total: Dict[str, float] = Counter()
        self_s: Dict[str, float] = Counter()
        queue_waits: List[float] = []
        top: List[List[float]] = []
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            covered = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0 and span[2]:
                    covered[span[3]] += span[2] - span[1]
            for index, (name, start, end, parent) in enumerate(spans):
                if end == 0.0:
                    continue  # still open (a cut-off worker call)
                duration = end - start
                calls[name] += 1
                total[name] += duration
                self_s[name] += duration - covered[index]
                if parent < 0:
                    top.append([start, end])
                if name == "serve.queue_wait":
                    queue_waits.append(duration)
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "queue_waits_s": queue_waits,
            "top_level": top,
        }


def union_seconds(intervals) -> float:
    """Length of the union of ``[start, end]`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def merge_summaries(summaries) -> Dict[str, object]:
    """Add up several :meth:`Tracer.summary` documents (several passes)."""
    merged: Dict[str, object] = {
        "calls": Counter(), "total_s": Counter(), "self_s": Counter(),
        "counts": Counter(), "queue_waits_s": [], "top_level": [],
    }
    for doc in summaries:
        for key in ("calls", "total_s", "self_s", "counts"):
            merged[key].update(doc[key])
        merged["queue_waits_s"].extend(doc["queue_waits_s"])
        merged["top_level"].extend(doc["top_level"])
    return merged


def layer_metrics(summary: Dict[str, object]) -> Dict[str, float]:
    """The span-derived part of the per-layer metrics (see README.md)."""
    calls, self_s, total = (
        summary["calls"], summary["self_s"], summary["total_s"]
    )
    counts = summary["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cachesim_self = self_s.get("cpu.cachesim", 0.0)
    accesses = counts.get("cpu.cachesim.accesses", 0)
    cxl_self = self_s.get("hw.cxl", 0.0)
    sim_requests = counts.get("hw.cxl.sim_requests", 0)
    cells_run = counts.get("runtime.executor.cells_run", 0)
    cells_cached = counts.get("runtime.executor.cells_cached", 0)
    return {
        "cpu.cachesim.calls": calls.get("cpu.cachesim", 0),
        "cpu.cachesim.accesses": accesses,
        "cpu.cachesim.self_s": cachesim_self,
        "cpu.cachesim.ns_per_access": ratio(cachesim_self * 1e9, accesses),
        "cpu.cachesim.l1_hits": counts.get("cpu.cachesim.l1_hits", 0),
        "cpu.cachesim.l2_hits": counts.get("cpu.cachesim.l2_hits", 0),
        "cpu.cachesim.l3_hits": counts.get("cpu.cachesim.l3_hits", 0),
        "cpu.cachesim.misses": counts.get("cpu.cachesim.misses", 0),
        "cpu.cachesim.prefetches": counts.get("cpu.cachesim.prefetches", 0),
        "workloads.calibration.calls": calls.get("workloads.calibration", 0),
        "workloads.calibration.self_s": self_s.get(
            "workloads.calibration", 0.0),
        "cpu.tracepipeline.calls": calls.get("cpu.tracepipeline", 0),
        "cpu.tracepipeline.self_s": self_s.get("cpu.tracepipeline", 0.0),
        "cpu.pipeline.calls": calls.get("cpu.pipeline", 0),
        "cpu.pipeline.self_s": self_s.get("cpu.pipeline", 0.0),
        "cpu.backend.self_s": self_s.get("cpu.backend", 0.0),
        "hw.target.calls": calls.get("hw.target", 0),
        "hw.target.self_s": self_s.get("hw.target", 0.0),
        "hw.cxl.sim_requests": sim_requests,
        "hw.cxl.self_s": cxl_self,
        "hw.cxl.requests_per_s": ratio(sim_requests, cxl_self),
        "runtime.executor.cells_run": cells_run,
        "runtime.executor.cells_cached": cells_cached,
        "runtime.executor.hit_ratio": ratio(
            cells_cached, cells_run + cells_cached),
        "runtime.executor.self_s": self_s.get("runtime.executor", 0.0),
        "runtime.cache.gets": calls.get("runtime.cache.get", 0),
        "runtime.cache.puts": calls.get("runtime.cache.put", 0),
        "runtime.cache.get_s": self_s.get("runtime.cache.get", 0.0),
        "runtime.cache.put_s": self_s.get("runtime.cache.put", 0.0),
        "store.promote_s": self_s.get("store.promote", 0.0),
        "store.get_result_s": self_s.get("store.get_result", 0.0),
        "core.melody.self_s": self_s.get("core.melody", 0.0),
        "experiments.run_s": self_s.get("experiments.run", 0.0),
        "experiments.render_s": self_s.get("experiments.render", 0.0),
        "serve.execute_s": total.get("serve.execute", 0.0),
        "obs.metrics.render_s": self_s.get("obs.metrics.render", 0.0),
    }

