"""Tracing and metrics primitives for the stage→compile→dispatch path.

Design constraints (see DESIGN.md §8):

* **Near-zero cost when disabled.**  ``REPRO_OBS=0`` turns every
  instrumentation site into an env lookup plus a branch; :func:`span`
  then hands out a shared no-op context manager and counter updates
  return immediately.
* **Bounded memory.**  Finished spans land in a ring buffer
  (:data:`RING_CAPACITY` entries); a long-running process never grows
  without bound.
* **Thread safety.**  The span stack is thread-local (each thread owns
  its own tree); the ring buffer and the metrics registry take a lock
  only on update/snapshot.

The primitives are deliberately tiny — no sampling, no propagation
across processes, no exporter threads.  JSONL export and the
Prometheus-style text exposition are one function call each.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "RING_CAPACITY",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "NULL_SPAN",
    "obs_enabled",
    "profile_enabled",
]

_FALSY = ("0", "off", "no", "false")

#: Finished-span ring capacity of a :class:`Tracer`.
RING_CAPACITY = 4096


def obs_enabled() -> bool:
    """Tracing/metrics master switch (``REPRO_OBS``, default on)."""
    return os.environ.get("REPRO_OBS", "1") not in _FALSY


def profile_enabled() -> bool:
    """Simulator instruction-mix profiling (``REPRO_OBS_PROFILE``,
    default off — it adds a per-``run()`` flush)."""
    return os.environ.get("REPRO_OBS_PROFILE", "0") not in _FALSY


# ---------------------------------------------------------------------------
# Spans and the tracer.

@dataclass
class Span:
    """One timed region; durations are monotonic-clock nanoseconds."""

    name: str
    span_id: int
    parent_id: int | None
    trace_id: int
    start_ns: int
    end_ns: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"              # "ok" | "error"

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def to_dict(self) -> dict:
        return {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": self.attrs,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Span":
        return cls(
            name=str(d.get("name", "?")),
            span_id=int(d.get("span_id", 0)),
            parent_id=d.get("parent_id"),
            trace_id=int(d.get("trace_id", 0)),
            start_ns=int(d.get("start_ns", 0)),
            end_ns=d.get("end_ns"),
            attrs=dict(d.get("attrs") or {}),
            status=str(d.get("status", "ok")),
        )


class _ActiveSpan:
    """Context manager for one in-flight span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def set(self, key: str, value: Any) -> "_ActiveSpan":
        """Attach an attribute to the running span."""
        self._span.attrs[key] = value
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self._span)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.status = "error"
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)
        return None


class _NullSpan:
    """The disabled-path stand-in: every operation is a no-op."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe span recorder with a bounded ring of finished spans.

    Spans form trees: each thread keeps its own stack of open spans, a
    root span allocates a fresh ``trace_id`` and descendants inherit
    it, so one pipeline run's spans can be collected with
    :meth:`spans_for_trace` even when other threads interleave.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is None:
            capacity = RING_CAPACITY
        self._finished: deque[Span] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- span lifecycle ------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            trace_id=parent.trace_id if parent else next(self._traces),
            start_ns=time.monotonic_ns(),
            attrs=dict(attrs),
        )
        return _ActiveSpan(self, sp)

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration span (quarantine decisions, cache drops...)."""
        with self.span(name, **attrs):
            pass

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        while stack and stack[-1] is not span:
            stack.pop()         # tolerate mismatched exits
        if stack:
            stack.pop()
        span.end_ns = time.monotonic_ns()
        with self._lock:
            self._finished.append(span)

    # -- introspection -------------------------------------------------

    def current_trace_id(self) -> int | None:
        stack = self._stack()
        return stack[-1].trace_id if stack else None

    def finished_spans(self) -> list[Span]:
        """Snapshot of the ring, oldest first (start order within a
        thread; completion order globally)."""
        with self._lock:
            return sorted(self._finished, key=lambda s: (s.start_ns,
                                                         s.span_id))

    def spans_for_trace(self, trace_id: int) -> list[Span]:
        return [s for s in self.finished_spans()
                if s.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()


# ---------------------------------------------------------------------------
# Metrics.

# Default histogram buckets: seconds, compile/smoke-run scaled.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0)


def _key(name: str, labels: Mapping[str, Any]
         ) -> tuple[str, tuple[tuple[str, str], ...]]:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class HistogramData:
    """Fixed-bucket histogram: cumulative counts per upper bound."""

    buckets: tuple[float, ...]
    counts: list[int]
    total: int = 0
    sum: float = 0.0

    def observe(self, value: float) -> None:
        self.total += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1

    def to_dict(self) -> dict:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "count": self.total, "sum": self.sum}


class MetricsRegistry:
    """Counters, gauges and fixed-bucket histograms under one lock.

    Metric identity is ``(name, sorted labels)``; names are dotted
    (``compile.attempts``) and mapped to Prometheus conventions
    (``repro_compile_attempts_total``) only at exposition time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, HistogramData] = {}

    # -- updates -------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float,
                buckets: Iterable[float] | None = None,
                **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                bs = tuple(buckets) if buckets is not None \
                    else DEFAULT_BUCKETS
                hist = HistogramData(buckets=bs, counts=[0] * len(bs))
                self._histograms[key] = hist
            hist.observe(float(value))

    # -- reads ---------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """One counter cell, or the sum over all label sets of ``name``
        when no labels are given."""
        with self._lock:
            if labels:
                return self._counters.get(_key(name, labels), 0.0)
            return sum(v for (n, _), v in self._counters.items()
                       if n == name)

    def counters(self) -> dict[str, float]:
        """``name{k=v,...} -> value`` for every counter cell."""
        with self._lock:
            return {_format_cell(n, lbls): v
                    for (n, lbls), v in self._counters.items()}

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "kind": "metrics",
                "counters": {_format_cell(n, ls): v
                             for (n, ls), v in self._counters.items()},
                "gauges": {_format_cell(n, ls): v
                           for (n, ls), v in self._gauges.items()},
                "histograms": {_format_cell(n, ls): h.to_dict()
                               for (n, ls), h in self._histograms.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- exposition ----------------------------------------------------

    def prometheus_text(self) -> str:
        """Prometheus text exposition format, ``repro_``-prefixed."""
        lines: list[str] = []
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            hists = {k: HistogramData(h.buckets, list(h.counts),
                                      h.total, h.sum)
                     for k, h in self._histograms.items()}
        seen_types: set[str] = set()

        def declare(metric: str, kind: str) -> None:
            if metric not in seen_types:
                seen_types.add(metric)
                lines.append(f"# TYPE {metric} {kind}")

        for (name, labels), value in sorted(counters.items()):
            metric = _prom_name(name) + "_total"
            declare(metric, "counter")
            lines.append(f"{metric}{_prom_labels(labels)} {_prom_num(value)}")
        for (name, labels), value in sorted(gauges.items()):
            metric = _prom_name(name)
            declare(metric, "gauge")
            lines.append(f"{metric}{_prom_labels(labels)} {_prom_num(value)}")
        for (name, labels), hist in sorted(hists.items()):
            metric = _prom_name(name)
            declare(metric, "histogram")
            for bound, count in zip(hist.buckets, hist.counts):
                le = labels + (("le", repr(bound)),)
                lines.append(
                    f"{metric}_bucket{_prom_labels(le)} {count}")
            inf = labels + (("le", "+Inf"),)
            lines.append(f"{metric}_bucket{_prom_labels(inf)} {hist.total}")
            lines.append(f"{metric}_sum{_prom_labels(labels)} "
                         f"{_prom_num(hist.sum)}")
            lines.append(f"{metric}_count{_prom_labels(labels)} "
                         f"{hist.total}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_cell(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _prom_name(name: str) -> str:
    clean = "".join(c if c.isalnum() else "_" for c in name)
    return f"repro_{clean}"


def _prom_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{{{inner}}}"


def _prom_num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# ---------------------------------------------------------------------------
# JSONL trace export / import.

def write_jsonl(path: str | Path, spans: Iterable[Span],
                metrics: MetricsRegistry | None = None) -> Path:
    """One span per line, then a final metrics-snapshot line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_dict()) + "\n")
        if metrics is not None:
            fh.write(json.dumps(metrics.snapshot()) + "\n")
    return path


def read_jsonl(path: str | Path) -> tuple[list[Span], dict | None]:
    """Parse a trace file; malformed lines are skipped, the last
    metrics line wins."""
    spans: list[Span] = []
    metrics: dict | None = None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if not isinstance(obj, dict):
            continue
        if obj.get("kind") == "metrics":
            metrics = obj
        elif obj.get("kind") == "span":
            spans.append(Span.from_dict(obj))
    return spans, metrics
