"""Tests for the JSONL, Prometheus-text and summary exporters."""

from repro.telemetry import (
    Telemetry,
    export_jsonl,
    metric_total,
    prometheus_text,
    read_jsonl,
    summary_text,
)


def make_hub():
    hub = Telemetry(record=True)
    hub.counter("requests_total", "requests served", server=0).inc(3)
    hub.counter("requests_total", server=1).inc(4)
    hub.gauge("edge_cut", "current cut").set(42)
    hist = hub.histogram("latency_seconds", "op latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    span = hub.span("op", kind="test")
    span.finish(duration=1.5)
    hub.event("decision", fired=False)
    return hub


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        text = prometheus_text(make_hub().registry)
        assert "# HELP requests_total requests served" in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{server="0"} 3\n' in text
        assert 'requests_total{server="1"} 4\n' in text
        assert "# TYPE edge_cut gauge" in text
        assert "edge_cut 42" in text

    def test_histogram_exposition(self):
        text = prometheus_text(make_hub().registry)
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1.0"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_sum 5.55" in text
        assert "latency_seconds_count 3" in text

    def test_label_keys_sorted(self):
        hub = Telemetry()
        hub.counter("m", src=2, dst=3).inc()
        assert 'm{dst="3",src="2"} 1\n' in prometheus_text(hub.registry)

    def test_bucket_bounds_are_le_inclusive(self):
        """An observation exactly on a bound belongs to that bound's
        bucket — Prometheus ``le`` means less-or-EQUAL.  Pinned at the
        exporter so a bisect_left -> bisect_right regression in
        Histogram.observe shows up as a wire-format change."""
        hub = Telemetry()
        hist = hub.histogram("h", "edge values", buckets=(1.0, 2.0, 5.0))
        for value in (1.0, 2.0, 5.0):
            hist.observe(value)
        text = prometheus_text(hub.registry)
        assert 'h_bucket{le="1.0"} 1' in text
        assert 'h_bucket{le="2.0"} 2' in text
        assert 'h_bucket{le="5.0"} 3' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        # Just past a bound spills into the next bucket; just under stays.
        hist.observe(1.0000001)
        hist.observe(4.9999999)
        cumulative = dict(hist.cumulative_buckets())
        assert cumulative[1.0] == 1
        assert cumulative[2.0] == 3
        assert cumulative[5.0] == 5


class TestJsonlRoundtrip:
    def test_export_and_read_back(self, tmp_path):
        hub = make_hub()
        path = tmp_path / "telemetry.jsonl"
        lines = export_jsonl(hub, str(path), meta={"run": "unit"})
        records = read_jsonl(str(path))
        assert len(records) == lines
        assert records[0]["type"] == "meta"
        assert records[0]["run"] == "unit"
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert len(by_type["metric"]) == 4  # 2 counters + gauge + histogram
        assert len(by_type["span"]) == 1
        assert len(by_type["event"]) == 1
        assert by_type["span"][0]["name"] == "op"
        assert by_type["event"][0]["kind"] == "decision"

    def test_export_runs_flush_hooks_first(self, tmp_path):
        hub = Telemetry()
        hub.on_flush(lambda: hub.gauge("lazy").set(7))
        path = tmp_path / "t.jsonl"
        export_jsonl(hub, str(path))
        records = read_jsonl(str(path))
        assert metric_total(records, "lazy") == 7


class TestMetricTotal:
    def test_sums_with_label_filter(self, tmp_path):
        hub = make_hub()
        path = tmp_path / "t.jsonl"
        export_jsonl(hub, str(path))
        records = read_jsonl(str(path))
        assert metric_total(records, "requests_total") == 7
        assert metric_total(records, "requests_total", server=0) == 3
        assert metric_total(records, "requests_total", server="1") == 4
        assert metric_total(records, "missing") == 0.0


class TestSummaryText:
    def test_sections_present(self):
        text = summary_text(make_hub())
        assert "metric totals" in text
        assert "requests_total" in text
        assert "7" in text
        assert "latency_seconds (hist)" in text
        assert "Largest root spans" in text
        assert "op" in text
        assert "decision" in text

    def test_empty_hub_renders(self):
        assert "metric totals" in summary_text(Telemetry())
