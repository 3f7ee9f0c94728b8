"""Outside-in tracing: spans recorded around calls into each layer.

Nothing in the program is edited.  :class:`Installation` rebinds each
layer's public functions in every module that imported them (a
module-level ``from x import f`` copies the name, so both the defining
module and each importer are rebound) and wraps class methods in place.
Every wrapped call becomes a :class:`Span` with a name, start, end,
parent and the trace id of the benchmark operation it ran under;
:meth:`Installation.undo` restores the original objects.

Spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the time its direct child spans cover.  Spans on
other threads (background compiles) start their own trees.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


# Spans kept in memory at most: a traced native_calls run makes millions
# of calls, and a span is a few hundred bytes.  The first round (the
# fixed work the counts come from) stays well inside it.
SPAN_BUDGET = 250_000


@dataclass(eq=False, slots=True)
class Span:
    name: str
    parent: int | None          # index into Tracer.spans
    trace_id: int
    kind: str                   # the benchmark operation it ran under
    start: int = 0              # perf_counter_ns
    end: int = 0
    child_ns: int = 0
    children: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """Span store plus call counts per benchmark operation kind."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: Counter = Counter()            # operations per kind
        self.calls: Counter = Counter()          # (kind, name) -> calls
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # Everything recorded before ``freeze`` is fixed work, so the
        # counts derived from it repeat exactly for one seed.
        self.frozen_ops: Counter | None = None
        self.frozen_calls: Counter | None = None
        self.frozen_spans = 0
        # The smoke run forks from compile threads; a child must not
        # inherit this lock held by another thread.
        os.register_at_fork(after_in_child=self._reset_lock)

    def _reset_lock(self) -> None:
        self._lock = threading.Lock()

    @contextmanager
    def operation(self, kind: str):
        """One benchmark operation: its spans share a fresh trace id."""
        local = self._local
        saved = getattr(local, "op", None)
        local.op = (next(self._ids), kind)
        with self._lock:
            self.ops[kind] += 1
        try:
            yield
        finally:
            local.op = saved

    def _op(self) -> tuple[int, str]:
        op = getattr(self._local, "op", None)
        # outside any operation: a background compile thread
        return op if op is not None else (next(self._ids), "background")

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        """Count one call of ``name`` under the current operation and
        note it on this thread's innermost open span."""
        kind = self._op()[1]
        stack = self._stack()
        with self._lock:
            self.calls[(kind, name)] += 1
            if stack:
                self.spans[stack[-1]].info.setdefault(
                    "counted", Counter())[name] += 1

    def freeze(self) -> None:
        with self._lock:
            self.frozen_ops = Counter(self.ops)
            self.frozen_calls = Counter(self.calls)
            self.frozen_spans = len(self.spans)

    def wrap(self, name: str, fn: Callable, pre: Callable | None = None,
             note: Callable | None = None) -> Callable:
        """``fn`` recording one span per call.  ``pre(args)`` runs before
        the call; ``note(span, args, result, pre_value)`` after it
        returns."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            local = tracer._local
            if getattr(local, "untraced", 0) or (
                    not getattr(local, "stack", None)
                    and len(tracer.spans) >= SPAN_BUDGET):
                # over budget: this call and everything under it run
                # untraced, so no parent's self time loses a child
                local.untraced = getattr(local, "untraced", 0) + 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    local.untraced -= 1
            stack = tracer._stack()
            trace_id, kind = tracer._op()
            parent = stack[-1] if stack else None
            span = Span(name, parent, trace_id, kind)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
                tracer.calls[(kind, name)] += 1
                if parent is not None:
                    tracer.spans[parent].children.append(index)
            before = pre(args) if pre is not None else None
            stack.append(index)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_ns += span.duration_ns
            if note is not None:
                note(span, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# What gets rebound: span name, the callable's home ("module:attr" or
# "module:Class.method"), and every other module that imported the name.

TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("isa.load_isas", "repro.isa.registry:load_isas", ("repro.isa",)),
    ("lms.stage", "repro.lms.staging:stage_function",
     ("repro.lms", "repro.core.pipeline")),
    ("lms.optimize", "repro.lms.optimize:optimize_staged",
     ("repro.core.pipeline",)),
    ("cache.graph_hash", "repro.core.cache:graph_hash",
     ("repro.core.resilience", "repro.core.tiered")),
    ("cache.mem_probe", "repro.core.cache:KernelCache.get_for", ()),
    ("cache.mem_put", "repro.core.cache:KernelCache.put_for", ()),
    ("cache.disk_get", "repro.core.cache:DiskKernelCache.get", ()),
    ("cache.disk_put", "repro.core.cache:DiskKernelCache.put", ()),
    ("spec.all_entries", "repro.spec.catalog:all_entries",
     ("repro.isa.registry",)),
    ("codegen.required_isas", "repro.codegen.native:required_isas",
     ("repro.core.resilience",)),
    ("codegen.emit", "repro.codegen.cgen:emit_c_source",
     ("repro.codegen", "repro.codegen.native", "repro.core.pipeline")),
    ("codegen.cc", "repro.codegen.compiler:compile_with_fallback",
     ("repro.codegen.native",)),
    ("codegen.cc_invocation",
     "repro.codegen.compiler:compile_shared_library", ()),
    ("codegen.link", "repro.codegen.native:link_native",
     ("repro.core.resilience",)),
    ("codegen.native_call", "repro.codegen.native:NativeKernel.__call__",
     ()),
    ("codegen.native_batch", "repro.codegen.native:NativeKernel.call_batch",
     ()),
    ("resilience.acquire", "repro.core.resilience:acquire_native",
     ("repro.core.pipeline", "repro.core.tiered")),
    ("resilience.smoke", "repro.core.resilience:smoke_test_artifact", ()),
    ("timing.lower", "repro.timing.staged_lower:lower_staged",
     ("repro.core.pipeline",)),
    ("pipeline.compile", "repro.core.pipeline:compile_staged",
     ("repro", "repro.core")),
    ("pipeline.dispatch", "repro.core.pipeline:CompiledKernel.__call__", ()),
    ("tiered.dispatch", "repro.core.tiered:NativeDispatch.__call__", ()),
    ("tiered.sim_dispatch", "repro.core.tiered:SimulatedDispatch.__call__",
     ()),
    ("simd.run", "repro.simd.machine:SimdMachine.run", ()),
    ("simd.run_batch", "repro.simd.machine:SimdMachine.run_batch", ()),
    ("simd.sweep", "repro.simd.batch_exec:sweep_batch", ()),
    ("batch.execute", "repro.core.batch:execute_batch",
     ("repro.core.pipeline",)),
    ("policy.flush", "repro.core.policy:PolicyTable.flush", ()),
)

# obs entry points are counted, not spanned: what matters on the call
# path is how many times they run per operation.
COUNTED = (("obs.counter", "repro.obs:counter"),
           ("obs.span", "repro.obs:span"))


def _steps(args: tuple) -> int:
    return sum(args[0].op_counts.values())


def _note_steps(span: Span, args, result, before) -> None:
    span.info["steps"] = _steps(args) - before


def _note_stms(span: Span, args, result, before) -> None:
    from repro.lms.defs import iter_defs
    span.info["before"] = sum(1 for _ in iter_defs(args[0].body))
    span.info["after"] = sum(1 for _ in iter_defs(result[0].body))


def _note_len(span: Span, args, result, before) -> None:
    span.info["bytes"] = len(result)


def _note_so(span: Span, args, result, before) -> None:
    span.info["bytes"] = os.path.getsize(result[0])


def _note_hit(span: Span, args, result, before) -> None:
    span.info["hit"] = result is not None


def _note_source(span: Span, args, result, before) -> None:
    span.info["source"] = result[1].cache_source


def _note_entries(span: Span, args, result, before) -> None:
    span.info["entries"] = len(result)


HOOKS: dict[str, tuple[Callable | None, Callable]] = {
    "simd.run": (_steps, _note_steps),
    "lms.optimize": (None, _note_stms),
    "codegen.emit": (None, _note_len),
    "codegen.cc": (None, _note_so),
    "cache.mem_probe": (None, _note_hit),
    "cache.disk_get": (None, _note_hit),
    "resilience.acquire": (None, _note_source),
    "codegen.native_batch": (None, _note_entries),
    "simd.sweep": (None, _note_entries),
    "batch.execute": (None, _note_entries),
}


def _resolve(home: str) -> tuple[Any, str]:
    module_name, _, attr = home.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Installation:
    """The rebinding of every target; :meth:`undo` restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Installation":
        for name, home, importers in TARGETS:
            owner, attr = _resolve(home)
            original = getattr(owner, attr)
            pre, note = HOOKS.get(name, (None, None))
            wrapped = self.tracer.wrap(name, original, pre, note)
            self._set(owner, attr, wrapped)
            for module_name in importers:
                module = importlib.import_module(module_name)
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module_name}.{attr} is not "
                                       f"{home}; update the trace targets")
                self._set(module, attr, wrapped)
        for name, home in COUNTED:
            owner, attr = _resolve(home)
            self._set(owner, attr, self._counting(name, getattr(owner, attr)))
        return self

    def _counting(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer

        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.count(name)
            if args:   # per metric name too: "obs.counter:policy.flushes"
                tracer.count(f"{name}:{args[0]}")
            return fn(*args, **kwargs)

        return counted

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextmanager
    def paused(self):
        """Run a block on the original, untraced functions."""
        self.undo()
        try:
            yield
        finally:
            self.install()


# ---------------------------------------------------------------------------
# Per-layer metrics from a finished trace.

def median(values: list[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return math.nan
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else \
        (ordered[mid - 1] + ordered[mid]) / 2


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


class Layers:
    """Derives the per-layer metrics.  Times come from every span of the
    run; counts come only from the fixed work recorded before
    :meth:`Tracer.freeze`, so they repeat exactly for one seed."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(tracer.spans):
            if s.end:
                self.by_name.setdefault(s.name, []).append(i)

    def spans(self, name: str, fixed: bool = False) -> list[Span]:
        limit = self.t.frozen_spans if fixed else len(self.t.spans)
        return [self.t.spans[i] for i in self.by_name.get(name, ())
                if i < limit]

    def med(self, name: str, scale: float, self_time: bool = False,
            where: Callable[[Span], bool] | None = None) -> float:
        return median([(s.self_ns if self_time else s.duration_ns) / scale
                       for s in self.spans(name)
                       if where is None or where(s)])

    def per_entry(self, name: str, scale: float,
                  self_time: bool = False) -> float:
        spans = [s for s in self.spans(name) if "entries" in s.info]
        total = sum(s.self_ns if self_time else s.duration_ns for s in spans)
        return _ratio(total / scale, sum(s.info["entries"] for s in spans))

    def ancestor(self, span: Span, name: str) -> Span | None:
        while span.parent is not None:
            span = self.t.spans[span.parent]
            if span.name == name:
                return span
        return None

    def subtree_count(self, span: Span, counted: str) -> int:
        total = span.info.get("counted", {}).get(counted, 0)
        for child in span.children:
            total += self.subtree_count(self.t.spans[child], counted)
        return total

    def calls(self, name: str, *kinds: str) -> int:
        calls = self.t.frozen_calls
        if not kinds:
            return sum(v for (_k, n), v in calls.items() if n == name)
        return sum(calls[(k, name)] for k in kinds)

    def per_acquire(self, name: str, source: str | None = None) -> float:
        acquires = [s for s in self.spans("resilience.acquire", fixed=True)
                    if source is None or s.info.get("source") == source]
        ids = {id(s) for s in acquires}
        inner = [s for s in self.spans(name, fixed=True)
                 if id(self.ancestor(s, "resilience.acquire")) in ids]
        return _ratio(len(inner), len(acquires))

    def hit_ratio(self, name: str) -> float:
        probes = self.spans(name, fixed=True)
        return _ratio(sum(1 for s in probes if s.info.get("hit")),
                      len(probes))

    def compute(self, calibration: dict) -> dict[str, float]:
        ms, us = 1e6, 1e3
        fixed_acq = self.spans("resilience.acquire", fixed=True)
        cold = {id(s) for s in fixed_acq
                if s.info.get("source") == "compiled"}
        opt = self.spans("lms.optimize", fixed=True)
        flushes = self.spans("policy.flush")
        wrote = [s for s in flushes if s.info.get("counted", {}).get(
            "obs.counter:policy.flushes")]
        compiles = [s for s in self.spans("pipeline.compile")
                    if any(self.t.spans[c].name == "resilience.acquire"
                           for c in s.children)]
        acquires = self.spans("resilience.acquire")
        # spans whose call raised carry no notes (the smoke run probes
        # shadow arguments the simulator rejects)
        runs = [s for s in self.spans("simd.run") if "steps" in s.info]
        fixed_runs = [s for s in self.spans("simd.run", fixed=True)
                      if "steps" in s.info]
        cold_compiles = [s for s in self.spans("pipeline.compile", fixed=True)
                         if any(self.t.spans[c].name == "resilience.acquire"
                                and self.t.spans[c].info.get("source")
                                == "compiled" for c in s.children)]
        return {
            "isa.load_isas_ms": self.med(
                "isa.load_isas", ms, where=lambda s: s.kind == "setup.isa"),
            "lms.stage_us": self.med("lms.stage", us),
            "lms.optimize_ms": self.med("lms.optimize", ms),
            "lms.stms_before_opt": _ratio(
                sum(s.info["before"] for s in opt), len(opt)),
            "lms.stms_after_opt": _ratio(
                sum(s.info["after"] for s in opt), len(opt)),
            "cache.graph_hash_us": self.med("cache.graph_hash", us),
            "cache.mem_probe_us": self.med("cache.mem_probe", us),
            "cache.mem_hit_ratio": self.hit_ratio("cache.mem_probe"),
            "cache.disk_get_ms": self.med("cache.disk_get", ms),
            "cache.disk_put_ms": self.med("cache.disk_put", ms),
            "cache.disk_hit_ratio": self.hit_ratio("cache.disk_get"),
            "codegen.required_isas_calls_per_acquire":
                self.per_acquire("codegen.required_isas"),
            "codegen.required_isas_calls_per_cold_acquire":
                self.per_acquire("codegen.required_isas", "compiled"),
            "codegen.required_isas_calls_per_disk_acquire":
                self.per_acquire("codegen.required_isas", "disk"),
            "spec.catalog_builds_per_acquire":
                self.per_acquire("spec.all_entries"),
            "codegen.required_isas_ms": self.med("codegen.required_isas", ms),
            "codegen.emit_ms": self.med(
                "codegen.emit", ms,
                where=lambda s: self.ancestor(s, "resilience.acquire")
                is not None),
            "codegen.c_source_bytes": median(
                [s.info["bytes"] for s in self.spans("codegen.emit", True)
                 if self.ancestor(s, "resilience.acquire") is not None]),
            "codegen.so_bytes": median(
                [s.info["bytes"] for s in self.spans("codegen.cc", True)]),
            "codegen.cc_invocations_per_cold_kernel": _ratio(
                sum(1 for s in self.spans("codegen.cc_invocation", True)
                    if id(self.ancestor(s, "resilience.acquire")) in cold),
                len(cold)),
            "codegen.cc_ms": self.med("codegen.cc", ms),
            "codegen.link_ms": self.med("codegen.link", ms),
            "codegen.native_call_us": self.med(
                "codegen.native_call", us, self_time=True),
            "codegen.raw_ctypes_call_us": calibration["raw_us"],
            "codegen.boundary_ratio": _ratio(calibration["sync_us"],
                                             calibration["raw_us"]),
            "codegen.native_batch_us_per_entry": self.per_entry(
                "codegen.native_batch", us),
            "resilience.acquire_ms": self.med("resilience.acquire", ms),
            "resilience.acquire_self_ms": self.med(
                "resilience.acquire", ms, self_time=True),
            "resilience.acquire_residue_share": _ratio(
                sum(s.self_ns for s in acquires),
                sum(s.duration_ns for s in acquires)),
            "resilience.smoke_ms": self.med("resilience.smoke", ms),
            "resilience.smoke_runs_per_acquire":
                self.per_acquire("resilience.smoke"),
            "timing.lower_ms": self.med("timing.lower", ms),
            "pipeline.compile_self_ms": median(
                [s.self_ns / ms for s in compiles]),
            "pipeline.compile_residue_share": _ratio(
                sum(s.self_ns for s in compiles),
                sum(s.duration_ns for s in compiles)),
            "pipeline.dispatch_self_us": self.med(
                "pipeline.dispatch", us, self_time=True),
            "tiered.dispatch_self_us": self.med(
                "tiered.dispatch", us, self_time=True),
            "tiered.sync_vs_tiered_ratio": _ratio(calibration["sync_us"],
                                                  calibration["tiered_us"]),
            "tiered.time_to_native_ms": calibration["time_to_native_ms"],
            "simd.run_us": self.med("simd.run", us),
            "simd.steps_per_call": _ratio(
                sum(s.info["steps"] for s in fixed_runs), len(fixed_runs)),
            "simd.ns_per_step": _ratio(sum(s.duration_ns for s in runs),
                                       sum(s.info["steps"] for s in runs)),
            "simd.sweep_us_per_entry": self.per_entry("simd.sweep", us),
            "batch.execute_self_us_per_entry": self.per_entry(
                "batch.execute", us, self_time=True),
            "policy.flushes_per_acquire": _ratio(
                self.calls("obs.counter:policy.flushes"), len(fixed_acq)),
            "policy.flush_ms": median([s.duration_ns / ms for s in wrote]),
            "obs.counter_calls_per_native_call": _ratio(
                self.calls("obs.counter", "call"),
                self.t.frozen_ops["call"]),
            "obs.spans_per_compile": _ratio(
                sum(self.subtree_count(s, "obs.span")
                    for s in cold_compiles), len(cold_compiles)),
        }


# Metrics derived from the fixed work only: they must repeat exactly
# between two traced runs with one seed.
COUNT_METRICS = (
    "lms.stms_before_opt", "lms.stms_after_opt",
    "cache.mem_hit_ratio", "cache.disk_hit_ratio",
    "codegen.required_isas_calls_per_acquire",
    "codegen.required_isas_calls_per_cold_acquire",
    "codegen.required_isas_calls_per_disk_acquire",
    "spec.catalog_builds_per_acquire",
    "codegen.c_source_bytes", "codegen.so_bytes",
    "codegen.cc_invocations_per_cold_kernel",
    "resilience.smoke_runs_per_acquire", "simd.steps_per_call",
    "policy.flushes_per_acquire", "obs.counter_calls_per_native_call",
    "obs.spans_per_compile",
)

UNITS = (("_us_per_entry", "us"), ("_ms", "ms"), ("_us", "us"),
         ("_bytes", "bytes"), ("ns_per_step", "ns"), ("_ratio", "ratio"),
         ("_share", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)),
                "count")
