"""Exporters: Prometheus text format v0.0.4 and Chrome traces.

* :func:`render_prometheus` — a :class:`MetricsRegistry`'s families in the
  text exposition format v0.0.4, with ``# HELP``/``# TYPE`` headers,
  escaped label values, cumulative histogram ``_bucket`` series ending at
  ``le="+Inf"`` and exact ``_sum``/``_count`` series;
* :func:`chrome_trace` — finished spans from a
  :class:`~repro.telemetry.tracing.TraceRecorder` as Chrome
  ``trace_event`` JSON (load it at ``chrome://tracing`` or in Perfetto
  for a flame-style view).

A JSON view of one registry is :meth:`MetricsRegistry.snapshot`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.telemetry.registry import (
    CounterChild,
    HistogramChild,
    MetricFamily,
    MetricsRegistry,
)
from repro.telemetry.tracing import Span, TraceRecorder

__all__ = ["chrome_trace", "render_prometheus"]


def _format_value(value: float) -> str:
    """Prometheus sample-value formatting: integers bare, floats via repr."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_string(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    rendered = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + rendered + "}"


def _render_family(family: MetricFamily, lines: List[str]) -> None:
    if family.documentation:
        lines.append(f"# HELP {family.name} {_escape_help(family.documentation)}")
    lines.append(f"# TYPE {family.name} {family.kind}")
    for labelvalues, child in family.children():
        pairs = list(zip(family.labelnames, labelvalues))
        if isinstance(child, HistogramChild):
            for bound, cumulative in child.bucket_counts():
                bucket_pairs = pairs + [("le", _format_value(bound))]
                lines.append(
                    f"{family.name}_bucket{_label_string(bucket_pairs)} "
                    f"{cumulative}"
                )
            lines.append(
                f"{family.name}_sum{_label_string(pairs)} "
                f"{_format_value(child.sum)}"
            )
            lines.append(f"{family.name}_count{_label_string(pairs)} {child.count}")
        else:
            assert isinstance(child, CounterChild)
            lines.append(
                f"{family.name}{_label_string(pairs)} "
                f"{_format_value(child.value)}"
            )


def render_prometheus(*registries: Optional[MetricsRegistry]) -> str:
    """The registries' families in text exposition format v0.0.4.

    Multiple registries are merged by name; the first registry holding a
    name wins (families are never combined, so keep namespaces disjoint —
    the ``repro_<layer>_`` convention does).  ``None`` entries are
    skipped, so ``render_prometheus(service.telemetry, default_registry())``
    works whether or not global telemetry is enabled.
    """
    seen: Dict[str, MetricFamily] = {}
    for registry in registries:
        if registry is None:
            continue
        for family in registry.collect():
            seen.setdefault(family.name, family)
    lines: List[str] = []
    for name in sorted(seen):
        _render_family(seen[name], lines)
    return "\n".join(lines) + ("\n" if lines else "")


def chrome_trace(
    spans: Union[TraceRecorder, Iterable[Span]],
) -> Dict[str, object]:
    """Finished spans as Chrome ``trace_event`` JSON (complete events).

    Accepts a recorder (its ring buffer is read) or any iterable of
    :class:`Span`.  Timestamps are the recorder's monotonic clock in
    microseconds — relative, which is all the trace viewer needs.
    """
    if isinstance(spans, TraceRecorder):
        spans = spans.finished()
    events: List[Dict[str, object]] = []
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 0,
                "tid": span.thread,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attributes,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
