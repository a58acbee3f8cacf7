"""Configuration for the front-door serving layer.

One frozen dataclass carries every knob the router, queue and admission
controller read that an experiment varies, so a whole serving stack is
described as pure data.

The latency-facing knobs are expressed in *simulated seconds* on the
same scale as the cost model of :mod:`repro.cluster.network` (20 µs
local visits, 500 µs remote round trips): the default
``max_queue_delay`` of 1.5 ms is roughly a dozen read services (or one
2-hop traversal) worth of backlog.  Because the latency guard sheds any
operation whose wait would exceed it, this knob directly caps the tail:
it is what keeps the overload experiment's p99 at 3x offered load
within 2x of the uncontested (1x) baseline while barely touching
operations at 1x, whose queueing waits sit well below it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for the router, query queue and admission control."""

    # ------------------------------------------------------------------
    # Query queue / admission control
    # ------------------------------------------------------------------
    #: bounded queue depth: operations logically in flight (admitted but
    #: not yet past their simulated finish time) before hard shedding
    max_queue_depth: int = 256
    #: per-operation latency guard: an operation whose target server's
    #: backlog exceeds this queueing delay is shed rather than admitted,
    #: which is what bounds p99 under sustained overload
    max_queue_delay: float = 1.5e-3
    #: utilization (backlog / max_queue_delay, clamped to [0, 2]) at
    #: which the admission state machine enters THROTTLED (sheds BATCH)
    throttle_utilization: float = 0.60
    #: utilization at which it enters SHEDDING (sheds BATCH and NORMAL)
    shed_utilization: float = 0.90

    # ------------------------------------------------------------------
    # Replica routing (SPAR one-hop replicas on the read path)
    # ------------------------------------------------------------------
    #: route single-record reads to one-hop replicas when beneficial
    replica_reads: bool = True
    #: simulated delay between a primary write and the update being
    #: applied on every replica (the replica-update propagation lag)
    replica_lag: float = 1e-3
    #: bounded-staleness contract: a replica may serve a read only while
    #: its pending-update age is at most this many simulated seconds
    max_staleness: float = 2e-3
