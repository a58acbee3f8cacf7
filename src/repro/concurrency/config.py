"""Configuration for the concurrent execution engine.

The paper evaluates Hermes under 32 *concurrent* clients (Section 5.3);
xDGP migrates vertices *during* computation.  ``ConcurrencyConfig`` is
the switch between the serial simulator (one operation runs to
completion against a logically shared world) and the event-queue
scheduler in :mod:`repro.concurrency.scheduler` that interleaves
traversal hops, reads, writes and migration copy-steps on a shared
simulated timeline.  Both run the same generators: serial drains each
one before starting the next, the scheduler resumes them step by step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConcurrencyConfig:
    """Knobs of the per-server event-queue scheduler."""

    #: run operations through the event scheduler (interleaved) instead
    #: of to completion inline (serial)
    enabled: bool = False
    #: audit the double-write window after every dispatched event
    #: (copied replica present, catalog still pointing at the source);
    #: disable only in benchmarks where the per-event sweep dominates.
    check_window_coherence: bool = True

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "check_window_coherence": self.check_window_coherence,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConcurrencyConfig":
        """Inverse of :meth:`to_dict`; unknown keys (e.g. a retired
        ``online_migration`` in an old artifact) are ignored."""
        return cls(
            enabled=bool(data.get("enabled", False)),
            check_window_coherence=bool(
                data.get("check_window_coherence", True)
            ),
        )
