"""Configuration for the concurrent execution engine.

The paper evaluates Hermes under 32 *concurrent* clients (Section 5.3);
xDGP migrates vertices *during* computation.  Both run on the event-queue
scheduler in :mod:`repro.concurrency.scheduler`, which interleaves
traversal hops, reads, writes and migration copy-steps on one shared
simulated timeline: a :class:`~repro.cluster.clients.ClientPool` always
runs its clients there, and an attached engine carries the serving front
door and its online rebalances.  The cluster's inline entry points
(``traverse``, ``rebalance``) drain the same generators without pausing.
``ConcurrencyConfig`` holds the engine's knobs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConcurrencyConfig:
    """Knobs of the per-server event-queue scheduler."""

    #: audit the double-write window after every dispatched event
    #: (copied replica present, catalog still pointing at the source);
    #: disable only in benchmarks where the per-event sweep dominates.
    check_window_coherence: bool = True

    @classmethod
    def from_dict(cls, data: dict) -> "ConcurrencyConfig":
        """The config a plain dict describes; unknown keys (e.g. a
        retired ``enabled`` or ``online_migration`` in an old artifact)
        are ignored."""
        return cls(
            check_window_coherence=bool(
                data.get("check_window_coherence", True)
            ),
        )
