"""Observability for the reproduction: metrics, trace spans, exporters.

Three small modules:

* :mod:`repro.telemetry.registry` — thread-safe :class:`Counter` and
  :class:`Histogram` families behind a :class:`MetricsRegistry`, plus the
  process-global default registry the engines record into
  (swap/reset/scoped hooks for tests).
* :mod:`repro.telemetry.tracing` — :func:`span` context managers with
  monotonic timings, per-thread parent links and deterministic SplitMix64
  span IDs, collected by a :class:`TraceRecorder` ring buffer.
* :mod:`repro.telemetry.export` — Prometheus text format v0.0.4 and
  Chrome ``trace_event`` dumps.

Everything is dependency-free (stdlib only) and safe to import from any
layer; the serving stack and all four engines instrument through the
module-level hooks, which cost one attribute read when telemetry is off.
"""

from repro.telemetry.export import chrome_trace, render_prometheus
from repro.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    METRIC_NAME_PATTERN,
    Counter,
    Histogram,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
    set_default_registry,
    use_registry,
)
from repro.telemetry.tracing import (
    NULL_SPAN,
    Span,
    TraceRecorder,
    current_recorder,
    install_recorder,
    recording,
    span,
    uninstall_recorder,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "METRIC_NAME_PATTERN",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "TraceRecorder",
    "chrome_trace",
    "current_recorder",
    "default_registry",
    "install_recorder",
    "recording",
    "render_prometheus",
    "reset_default_registry",
    "set_default_registry",
    "span",
    "uninstall_recorder",
    "use_registry",
]
