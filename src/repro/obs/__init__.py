"""Observability: structured tracing, metrics, profiling, console output.

The cross-cutting layer the rest of the stack reports through:

* :mod:`repro.obs.trace` — span-based JSONL tracer (flow → circuit-pair →
  obligation → cascade-stage hierarchy) with a Chrome ``trace_event``
  exporter; the no-op :data:`~repro.obs.trace.NULL_TRACER` is the default
  everywhere, so the uninstrumented path is unchanged;
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  behind one :class:`~repro.obs.metrics.MetricsRegistry`, the
  canonical sink that still flattens back to ``CheckResult.stats``;
* :mod:`repro.obs.schema` — the trace-event JSON schema and a
  dependency-free validator (used by tests and the CI trace job);
* :mod:`repro.obs.profile` — per-stage hotspot reports from a trace
  (``repro profile run.jsonl``);
* :mod:`repro.obs.console` — the ``--quiet`` / ``--verbose`` aware line
  writer the flows and the CLI print through.

See ``docs/OBSERVABILITY.md`` for the span hierarchy and metric catalog.
"""

from repro.obs.console import Console
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry, TIME_BUCKETS
from repro.obs.profile import phase_breakdown, profile_events, render_profile
from repro.obs.schema import TRACE_EVENT_SCHEMA, validate_event, validate_events
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    coerce_tracer,
    export_chrome_trace,
    read_events,
)

__all__ = [
    "Console",
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TIME_BUCKETS",
    "TRACE_EVENT_SCHEMA",
    "Tracer",
    "coerce_tracer",
    "export_chrome_trace",
    "phase_breakdown",
    "profile_events",
    "read_events",
    "render_profile",
    "validate_event",
    "validate_events",
]
