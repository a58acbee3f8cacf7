"""Span tracing on the *simulated* clock.

The cluster's notion of time is ``HermesCluster.now`` — its integer-ns
clock in seconds, which only advances when an operation charges its cost.
Wall-clock tracers are useless here: every step of a traversal "happens"
at the same wall instant.  Instead the tracer keeps a **causal cursor**
per span:

* a root span starts at ``clock()`` (the cluster's current simulated
  time);
* a child span starts at its parent's cursor — i.e. after every
  previously finished sibling;
* finishing a span with an explicit ``duration`` (the simulated cost the
  instrumented code just computed) places its end at ``start + duration``
  and advances the parent's cursor to that end.

The result is a nested, causally ordered trace tree in simulated
seconds: migration copy/barrier/remove phases line up end to start,
repartitioner iterations follow one another, and traversal depth spans
partition the query's total cost.

When ``recording`` is False, :meth:`Tracer.span` returns a shared no-op
context manager — no allocation, no clock read — which is the fast path
every instrumented module takes by default.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class SpanHandle:
    """A live span; context-manager protocol ends it at ``clock()``."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "start", "cursor",
                 "seq", "attrs", "_finished")

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: Optional[int],
                 name: str, start: float, seq: int, attrs: Dict[str, object]):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        #: where the next child span begins (advances as children finish)
        self.cursor = start
        self.seq = seq
        self.attrs = attrs
        self._finished = False

    def set_attribute(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def advance(self, duration: float) -> None:
        """Charge simulated cost directly to this span (no child span)."""
        self.cursor += duration

    def finish(self, duration: Optional[float] = None) -> None:
        if self._finished:
            return
        self._finished = True
        self.tracer._finish(self, duration)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", repr(exc))
        self.finish()


class _NullSpan:
    """Shared no-op span for the not-recording fast path."""

    __slots__ = ()
    span_id = -1
    cursor = 0.0

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def advance(self, duration: float) -> None:
        pass

    def finish(self, duration: Optional[float] = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Produces causally ordered span trees from the simulated clock."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        recording: bool = False,
    ):
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.recording = recording
        #: finished spans, as JSON-able dicts, in finish order
        self.spans: List[Dict[str, object]] = []
        self._stack: List[SpanHandle] = []
        self._seq = 0

    # ------------------------------------------------------------------
    def next_seq(self) -> int:
        """Shared causal sequence (spans and hub events interleave on it)."""
        self._seq += 1
        return self._seq

    def span(self, name: str, **attrs):
        """Open a span; use as a context manager or finish() explicitly."""
        if not self.recording:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            start = parent.cursor
            parent_id = parent.span_id
        else:
            start = self.clock()
            parent_id = None
        handle = SpanHandle(
            self, len(self.spans) + len(self._stack), parent_id, name,
            start, self.next_seq(), dict(attrs),
        )
        self._stack.append(handle)
        return handle

    def _finish(self, handle: SpanHandle, duration: Optional[float]) -> None:
        # Out-of-order finishes (a forgotten inner span) close the inner
        # spans first so the stack stays consistent.
        while self._stack and self._stack[-1] is not handle:
            self._stack[-1].finish()
        if self._stack:
            self._stack.pop()
        if duration is not None:
            end = handle.start + duration
        else:
            end = max(handle.cursor, self.clock(), handle.start)
        if self._stack:
            parent = self._stack[-1]
            if end > parent.cursor:
                parent.cursor = end
        self.spans.append({
            "span_id": handle.span_id,
            "parent_id": handle.parent_id,
            "name": handle.name,
            "start": handle.start,
            "end": end,
            "duration": end - handle.start,
            "seq": handle.seq,
            "attrs": handle.attrs,
        })

    # ------------------------------------------------------------------
    def trees(self) -> List[Dict[str, object]]:
        """Finished spans nested into trees (children in causal order)."""
        by_id: Dict[int, Dict[str, object]] = {}
        roots: List[Dict[str, object]] = []
        for record in sorted(self.spans, key=lambda r: r["seq"]):
            node = dict(record)
            node["children"] = []
            by_id[node["span_id"]] = node
        for node in by_id.values():
            parent = by_id.get(node["parent_id"]) if node["parent_id"] is not None else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        for node in by_id.values():
            node["children"].sort(key=lambda child: child["seq"])
        return roots
