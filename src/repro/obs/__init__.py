"""``repro.obs`` — end-to-end observability for the kernel pipeline.

One process-wide :class:`~repro.obs.core.Tracer` and
:class:`~repro.obs.core.MetricsRegistry` sit behind module-level
helpers; the instrumentation threaded through ``repro.core``,
``repro.codegen`` and ``repro.simd`` calls these and nothing else, so
disabling observability (``REPRO_OBS=0``) reduces every site to an
environment lookup and a branch.

Span taxonomy (DESIGN.md §8): a ``pipeline`` root per
``compile_staged`` call with ``stage`` → ``acquire`` (``disk_probe``,
``emit``, ``compile`` with one ``compile.attempt`` child per compiler
invocation, ``smoke``, ``link``) → ``lower`` children.

Environment:

* ``REPRO_OBS`` — master switch (default on).
* ``REPRO_OBS_TRACE_PATH`` — if set, the ring buffer and a metrics
  snapshot are flushed there as JSONL at interpreter exit.
* ``REPRO_OBS_PROFILE`` — opt-in simulator instruction-mix profiling.

``python -m repro.obs report trace.jsonl`` renders a recorded trace:
span tree, top counters, cache ratios, compile-ladder outcomes.
"""

from __future__ import annotations

import atexit
import os
from pathlib import Path
from typing import Any

from repro.obs.core import (
    NULL_SPAN,
    MetricsRegistry,
    Span,
    Tracer,
    obs_enabled,
    profile_enabled,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "counter",
    "event",
    "export_trace",
    "gauge",
    "get_registry",
    "get_tracer",
    "obs_enabled",
    "observe",
    "profile_enabled",
    "prometheus_text",
    "read_jsonl",
    "reset",
    "span",
]

_tracer = Tracer()
_registry = MetricsRegistry()


def get_tracer() -> Tracer:
    return _tracer


def get_registry() -> MetricsRegistry:
    return _registry


def span(name: str, **attrs: Any):
    """Start a span context manager (no-op when ``REPRO_OBS=0``)."""
    if not obs_enabled():
        return NULL_SPAN
    return _tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a zero-duration span."""
    if obs_enabled():
        _tracer.event(name, **attrs)


def counter(name: str, value: float = 1.0, **labels: Any) -> None:
    """Increment a counter cell."""
    if obs_enabled():
        _registry.inc(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    if obs_enabled():
        _registry.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record a histogram observation (seconds-scaled default buckets)."""
    if obs_enabled():
        _registry.observe(name, value, **labels)


def prometheus_text() -> str:
    return _registry.prometheus_text()


def export_trace(path: str | Path) -> Path:
    """Write the current ring buffer + metrics snapshot as JSONL."""
    return write_jsonl(path, _tracer.finished_spans(), _registry)


def reset() -> None:
    """Drop all recorded spans and metrics (test hook)."""
    _tracer.clear()
    _registry.reset()


@atexit.register
def _flush_at_exit() -> None:   # pragma: no cover - exercised in subprocess
    path = os.environ.get("REPRO_OBS_TRACE_PATH")
    if not path or not obs_enabled():
        return
    try:
        export_trace(path)
    except OSError:
        pass
