"""The Telemetry hub: one registry + one tracer + one event log.

A hub is what instrumented components hold, and every hub is real: a
component given none builds its own ``Telemetry()``, so a counter always
counts and no code path asks whether a hub is there.  Two modes:

* ``Telemetry()`` — metrics on (cheap in-memory numbers; a server's
  ``server_visits_total`` series is the only count of its visits),
  spans and events off;
* ``Telemetry(record=True)`` — everything on: spans and timestamped
  events accumulate for export (``--telemetry-out``).

A process-wide default can be installed with :func:`install` — the
experiment runner and the benchmark harness use this to hand a recording
hub to every cluster an experiment builds internally, without threading
the hub through each experiment module's signature.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import Tracer


class Telemetry:
    """Aggregates the registry, the tracer, and the event log."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        record: bool = False,
    ):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock, recording=record)
        self.events: List[Dict[str, object]] = []
        self.recording = record
        # (owner, function) pairs; a bound method's owner is held weakly,
        # so a dead component's hook is dropped at the next flush.
        self._flush_hooks: List[Tuple[Optional[weakref.ref], Callable]] = []

    # Convenience passthroughs so call sites read telemetry.counter(...)
    def counter(self, name: str, help: str = "", **labels):
        return self.registry.counter(name, help, **labels)

    def gauge(self, name: str, help: str = "", **labels):
        return self.registry.gauge(name, help, **labels)

    def histogram(self, name: str, help: str = "", buckets=None, **labels):
        return self.registry.histogram(name, help, buckets, **labels)

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def event(self, kind: str, **fields) -> None:
        """Record one timestamped event (trigger decisions, rebalances)."""
        if not self.recording:
            return
        self.events.append({
            "kind": kind,
            "time": self.tracer.clock(),
            "seq": self.tracer.next_seq(),
            "fields": fields,
        })

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Attach a simulated clock (the most recent cluster wins)."""
        self.tracer.clock = clock

    def on_flush(self, hook: Callable[[], None]) -> None:
        """Register a hook run before every export (e.g. components that
        materialize expensive label spaces lazily).

        A bound method's owner is referenced weakly — a garbage-collected
        component's hook is dropped rather than kept alive by the hub.
        """
        try:
            entry = (weakref.ref(hook.__self__), hook.__func__)
        except (AttributeError, TypeError):
            # A plain function, or an owner without weakref support.
            entry = (None, hook)
        self._flush_hooks.append(entry)

    def flush(self) -> None:
        self._flush_hooks = [
            (ref, func)
            for ref, func in self._flush_hooks
            if ref is None or ref() is not None
        ]
        for ref, func in list(self._flush_hooks):
            if ref is None:
                func()
            elif (owner := ref()) is not None:
                func(owner)

    def start_recording(self) -> None:
        """Turn span/event capture on (metrics are always on)."""
        self.recording = True
        self.tracer.recording = True

    def stop_recording(self) -> None:
        self.recording = False
        self.tracer.recording = False


_installed: Optional[Telemetry] = None


def install(hub: Optional[Telemetry]) -> None:
    """Set (or with None, clear) the process-wide default hub."""
    global _installed
    _installed = hub


def installed() -> Optional[Telemetry]:
    """The installed process-wide hub, if any."""
    return _installed
