"""Unit tests for the metric instruments and the registry."""

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry import DEFAULT_TIME_BUCKETS, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counters_cannot_be_set(self):
        counter = MetricsRegistry().counter("visits_total")
        assert not hasattr(counter, "set")

    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("reqs_total", server=1)
        b = registry.counter("reqs_total", server=1)
        assert a is b

    def test_distinct_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("reqs_total", server=1)
        b = registry.counter("reqs_total", server=2)
        assert a is not b
        a.inc(3)
        assert b.value == 0.0


class TestLabels:
    def test_label_order_is_canonicalized(self):
        registry = MetricsRegistry()
        a = registry.counter("m", src=1, dst=2)
        b = registry.counter("m", dst=2, src=1)
        assert a is b

    def test_label_values_are_stringified(self):
        registry = MetricsRegistry()
        registry.counter("m", server=7).inc()
        assert registry.value("m", server="7") == 1.0

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TelemetryError):
            registry.gauge("m")
        with pytest.raises(TelemetryError):
            registry.histogram("m")


class TestGauge:
    def test_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("edge_cut")
        gauge.set(100)
        assert gauge.value == 100
        gauge.inc(-40)
        assert gauge.value == 60


class TestHistogram:
    def test_observe_updates_count_sum_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 10.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(12.0)
        assert hist.mean == pytest.approx(4.0)

    def test_bucket_boundaries_are_le_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0, 5.0))
        hist.observe(1.0)  # exactly on a bound -> that bucket (le style)
        hist.observe(1.5)
        hist.observe(10.0)  # overflow -> +Inf only
        cumulative = dict(hist.cumulative_buckets())
        assert cumulative[1.0] == 1
        assert cumulative[2.0] == 2
        assert cumulative[5.0] == 2
        assert cumulative[float("inf")] == 3

    def test_default_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        assert hist.bounds == tuple(sorted(DEFAULT_TIME_BUCKETS))

    def test_family_bounds_fixed_by_first_registration(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat", buckets=(1.0, 2.0), server=0)
        second = registry.histogram("lat", buckets=(9.0,), server=1)
        assert second.bounds == first.bounds

    def test_empty_buckets_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("lat", buckets=())

    def test_empty_histogram_mean_is_zero(self):
        registry = MetricsRegistry()
        assert registry.histogram("lat").mean == 0.0


class TestRegistryReads:
    def test_value_of_missing_series(self):
        registry = MetricsRegistry()
        assert registry.value("nope") == 0.0
        registry.counter("m", server=1)
        assert registry.value("m", server=2) == 0.0

    def test_total_sums_matching_series(self):
        registry = MetricsRegistry()
        registry.counter("m", server=1, kind="hop").inc(3)
        registry.counter("m", server=2, kind="hop").inc(4)
        registry.counter("m", server=2, kind="transfer").inc(5)
        assert registry.total("m") == 12
        assert registry.total("m", kind="hop") == 7
        assert registry.total("m", server=2) == 9
        assert registry.total("m", server=2, kind="transfer") == 5
        assert registry.total("nope") == 0.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", server=1).inc(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        samples = {record["name"]: record for record in registry.snapshot()}
        assert samples["c"]["kind"] == "counter"
        assert samples["c"]["labels"] == {"server": "1"}
        assert samples["c"]["value"] == 2
        assert samples["h"]["count"] == 1
        assert samples["h"]["sum"] == 0.5
        assert samples["h"]["buckets"][-1][1] == 1
