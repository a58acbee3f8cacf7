"""repro.telemetry — cluster-wide metrics, tracing, and profiling.

Hermes is a monitoring-driven system: servers watch partition weights and
fire the repartitioner when the imbalance factor leaves the
``(2 - epsilon, epsilon)`` band.  This package is the first-class
observability layer behind that loop:

* :class:`MetricsRegistry` — labelled counters, gauges and fixed-bucket
  histograms;
* :class:`Tracer` — span trees on the *simulated* clock, causally
  ordered, so distributed traversals, migrations and repartitioning
  stages nest the way they "happened" in simulated time;
* :class:`Telemetry` — the hub instrumented components hold (registry +
  tracer + event log), with :func:`install` for a process-wide default.
  Every hub is real: a component given none builds its own, so its
  counters always count;
* exporters — JSONL event log (:func:`export_jsonl`), Prometheus text
  (:func:`prometheus_text`), and a human summary (:func:`summary_text`).
"""

from repro.telemetry.hub import Telemetry, install, installed
from repro.telemetry.registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
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
    "Counter",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanHandle",
    "Telemetry",
    "Tracer",
    "export_jsonl",
    "install",
    "installed",
    "metric_total",
    "prometheus_text",
    "read_jsonl",
    "registry_conservation_violations",
    "summary_text",
]
