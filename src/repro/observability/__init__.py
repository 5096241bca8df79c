"""Deterministic structured tracing + unified metrics for the pipeline.

Two substrates, both pure stdlib and importable from every layer:

- :mod:`repro.observability.tracing` — spans with ``trace_id`` /
  ``span_id`` / parent links and timestamps read from whatever clock
  drives the experiment (the :class:`~repro.runtime.clock.Scheduler`
  protocol's ``now``, or any zero-arg callable). Under the sim driver the
  clock is logical time, so a seeded run exports byte-identical NDJSON on
  every replay.
- :mod:`repro.observability.metrics` — a process-wide
  :class:`MetricsRegistry` of counters, gauges, and nearest-rank
  histograms. :class:`~repro.server.metrics.ServerMetrics` and
  :class:`~repro.faults.metrics.RecoveryMetrics` are facades over it.

:mod:`repro.observability.report` turns an exported NDJSON trace back
into per-phase latency breakdowns and critical-path summaries — the
engine behind ``python -m repro trace-report``.
"""

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    stable_round,
)
from repro.observability.report import TraceReport, load_spans
from repro.observability.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    activated,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceReport",
    "Tracer",
    "activated",
    "get_tracer",
    "load_spans",
    "set_tracer",
    "stable_round",
]
