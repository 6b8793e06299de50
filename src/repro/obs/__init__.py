"""Observability: metrics, structured tracing and phase profiling.

The telemetry subsystem threaded through the simulation stack:

- :mod:`repro.obs.registry` — counters, gauges, histograms with labels;
- :mod:`repro.obs.trace` — structured JSONL protocol-event tracing;
- :mod:`repro.obs.phases` — nested wall-clock phase timers;
- :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade, the no-op
  :data:`NULL` backend, and the ambient :func:`scope`/:func:`current`
  helpers the CLI uses to instrument scenarios end-to-end;
- :mod:`repro.obs.report` — render captured telemetry as tables (plus
  the post-run ``live-report`` health timeline of a live cluster);
- :mod:`repro.obs.spans` — causal per-event span tracing (trace ids,
  hop-kind spans, miss attribution primitives);
- :mod:`repro.obs.audit` — the delivery auditor (expected vs actual
  deliveries, per-cause miss attribution, unexplained-miss detection);
- :mod:`repro.obs.critical_path` — span-tree hop/latency breakdowns and
  the O(log² N + d) envelope check.

See ``docs/observability.md`` for the trace event schema and the metric
name catalogue.
"""

from repro.obs.phases import PhaseTimer
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import Span, SpanRecorder, SpanTree, build_span_trees
from repro.obs.telemetry import NULL, NullTelemetry, Telemetry, current, scope
from repro.obs.trace import TraceWriter, read_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL",
    "NullTelemetry",
    "PhaseTimer",
    "Span",
    "SpanRecorder",
    "SpanTree",
    "Telemetry",
    "TraceWriter",
    "build_span_trees",
    "current",
    "read_trace",
    "scope",
]
