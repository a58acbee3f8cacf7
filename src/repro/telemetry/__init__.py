"""repro.telemetry — cluster-wide metrics, tracing, and profiling.

Hermes is a monitoring-driven system: servers watch partition weights and
fire the repartitioner when the imbalance factor leaves the
``(2 - epsilon, epsilon)`` band.  This package is the first-class
observability layer behind that loop:

* :class:`MetricsRegistry` — labelled counters, gauges and fixed-bucket
  histograms (:class:`NullRegistry` is the zero-overhead no-sink path);
* :class:`Tracer` — span trees on the *simulated* clock, causally
  ordered, so distributed traversals, migrations and repartitioning
  stages nest the way they "happened" in simulated time;
* :class:`Telemetry` — the hub instrumented components hold (registry +
  tracer + event log), with :func:`install` for a process-wide default;
* exporters — JSONL event log (:func:`export_jsonl`), Prometheus text
  (:func:`prometheus_text`), and a human summary (:func:`summary_text`).
"""

from repro.telemetry.hub import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    get_default,
    install,
    installed,
)
from repro.telemetry.registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.tracing import NULL_SPAN, SpanHandle, Tracer
from repro.telemetry.conservation import registry_conservation_violations
from repro.telemetry.exporters import (
    export_jsonl,
    metric_total,
    prometheus_text,
    read_jsonl,
    summary_text,
)

__all__ = [
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "Counter",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTelemetry",
    "SpanHandle",
    "Telemetry",
    "Tracer",
    "export_jsonl",
    "get_default",
    "install",
    "installed",
    "metric_total",
    "prometheus_text",
    "read_jsonl",
    "registry_conservation_violations",
    "summary_text",
]
