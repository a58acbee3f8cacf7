"""Unit tests for the simulated-clock tracer and the hub."""

import pytest

from repro.telemetry import NULL_SPAN, Telemetry, Tracer
from repro.telemetry import install, installed


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestNullSpan:
    def test_not_recording_returns_shared_null_span(self):
        tracer = Tracer(recording=False)
        span = tracer.span("op")
        assert span is NULL_SPAN
        with span:
            span.set_attribute("x", 1)
            span.advance(1.0)
        assert tracer.spans == []


class TestSpans:
    def test_root_span_starts_at_clock(self):
        clock = FakeClock(5.0)
        tracer = Tracer(clock=clock, recording=True)
        span = tracer.span("op")
        assert span.start == 5.0
        span.finish(duration=2.0)
        [record] = tracer.spans
        assert record["start"] == 5.0
        assert record["end"] == 7.0
        assert record["duration"] == 2.0
        assert record["parent_id"] is None

    def test_children_line_up_end_to_start(self):
        tracer = Tracer(clock=FakeClock(0.0), recording=True)
        root = tracer.span("root")
        a = tracer.span("a")
        a.finish(duration=1.0)
        b = tracer.span("b")
        b.finish(duration=2.0)
        root.finish()
        records = {record["name"]: record for record in tracer.spans}
        assert records["a"]["start"] == 0.0
        assert records["a"]["end"] == 1.0
        # b starts where a ended, not at the root's start
        assert records["b"]["start"] == 1.0
        assert records["b"]["end"] == 3.0
        # root without explicit duration covers its children
        assert records["root"]["end"] == 3.0
        assert records["a"]["parent_id"] == records["root"]["span_id"]

    def test_advance_charges_cost_without_child(self):
        tracer = Tracer(clock=FakeClock(0.0), recording=True)
        root = tracer.span("root")
        root.advance(0.5)  # e.g. client dispatch cost
        child = tracer.span("child")
        assert child.start == 0.5
        child.finish(duration=0.25)
        root.finish()
        assert tracer.spans[-1]["end"] == 0.75

    def test_finish_without_duration_uses_clock(self):
        clock = FakeClock(1.0)
        tracer = Tracer(clock=clock, recording=True)
        span = tracer.span("op")
        clock.now = 4.0
        span.finish()
        assert tracer.spans[0]["end"] == 4.0

    def test_double_finish_records_once(self):
        tracer = Tracer(clock=FakeClock(), recording=True)
        span = tracer.span("op")
        span.finish(duration=1.0)
        span.finish(duration=9.0)
        assert len(tracer.spans) == 1
        assert tracer.spans[0]["duration"] == 1.0

    def test_forgotten_inner_span_closed_by_outer_finish(self):
        tracer = Tracer(clock=FakeClock(), recording=True)
        outer = tracer.span("outer")
        tracer.span("inner")  # never finished explicitly
        outer.finish(duration=1.0)
        names = [record["name"] for record in tracer.spans]
        assert names == ["inner", "outer"]
        assert not tracer._stack

    def test_context_manager_records_error(self):
        tracer = Tracer(clock=FakeClock(), recording=True)
        with pytest.raises(ValueError):
            with tracer.span("op"):
                raise ValueError("boom")
        assert "ValueError" in tracer.spans[0]["attrs"]["error"]

    def test_trees_nest_in_causal_order(self):
        tracer = Tracer(clock=FakeClock(), recording=True)
        root = tracer.span("root")
        first = tracer.span("first")
        first.finish(duration=1.0)
        second = tracer.span("second")
        second.finish(duration=1.0)
        root.finish()
        other = tracer.span("other_root")
        other.finish(duration=0.5)
        trees = tracer.trees()
        assert [tree["name"] for tree in trees] == ["root", "other_root"]
        assert [child["name"] for child in trees[0]["children"]] == [
            "first",
            "second",
        ]
        assert trees[1]["children"] == []


class TestHub:
    def test_default_hub_has_metrics_but_no_recording(self):
        hub = Telemetry()
        assert not hub.recording
        hub.counter("c").inc()
        assert hub.registry.value("c") == 1.0
        assert hub.span("op") is NULL_SPAN
        hub.event("e", x=1)
        assert hub.events == []

    def test_recording_hub_captures_events_with_shared_seq(self):
        clock = FakeClock(3.0)
        hub = Telemetry(clock=clock, record=True)
        span = hub.span("op")
        hub.event("decision", fired=True)
        span.finish(duration=1.0)
        [event] = hub.events
        assert event["kind"] == "decision"
        assert event["time"] == 3.0
        assert event["fields"] == {"fired": True}
        # The event's seq falls between the span's open and any later span.
        assert event["seq"] > hub.tracer.spans[0]["seq"]

    def test_start_stop_recording(self):
        hub = Telemetry()
        hub.start_recording()
        assert hub.span("op") is not NULL_SPAN
        hub.tracer._stack[-1].finish()
        hub.stop_recording()
        assert hub.span("op") is NULL_SPAN

    def test_flush_runs_registered_hooks(self):
        hub = Telemetry()
        calls = []
        hub.on_flush(lambda: calls.append("a"))
        hub.on_flush(lambda: calls.append("b"))
        hub.flush()
        assert calls == ["a", "b"]


class TestInstall:
    def test_install_and_clear(self):
        previous = installed()
        hub = Telemetry(record=True)
        try:
            install(hub)
            assert installed() is hub
        finally:
            install(previous)
        assert installed() is previous
