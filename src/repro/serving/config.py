"""Configuration for the front-door serving layer.

One frozen dataclass carries every knob the router, queue, admission
controller and the front door's tenant credit gate read, so an experiment (or a simtest
scenario spec) can describe a whole serving stack as pure data.

The latency-facing knobs are expressed in *simulated seconds* on the
same scale the :class:`~repro.cluster.network.NetworkConfig` cost model
uses (20 µs local visits, 500 µs remote round trips): the default
``max_queue_delay`` of 1.5 ms is roughly a dozen read services (or one
2-hop traversal) worth of backlog.  Because the latency guard sheds any
operation whose wait would exceed it, this knob directly caps the tail:
it is what keeps the overload experiment's p99 at 3x offered load
within 2x of the uncontested (1x) baseline while barely touching
operations at 1x, whose queueing waits sit well below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for the router, query queue, admission control and tenants."""

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
    #: hysteresis: utilization below which the state machine steps back
    #: toward ACCEPTING (one state per observation, never oscillating
    #: across a single threshold)
    resume_utilization: float = 0.40

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
    #: payload bytes of one replica-update shipment (per replica copy)
    replica_update_bytes: int = 96

    # ------------------------------------------------------------------
    # Per-tenant credits (usage is always metered)
    # ------------------------------------------------------------------
    #: starting credit balance per tenant; None disables credit gating
    #: (usage is still metered)
    tenant_credits: Optional[float] = None
    #: credits debited per admitted operation
    credit_per_op: float = 1.0
    #: additional credits debited per simulated second of execution cost
    credits_per_cost_second: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_queue_depth": self.max_queue_depth,
            "max_queue_delay": self.max_queue_delay,
            "throttle_utilization": self.throttle_utilization,
            "shed_utilization": self.shed_utilization,
            "resume_utilization": self.resume_utilization,
            "replica_reads": self.replica_reads,
            "replica_lag": self.replica_lag,
            "max_staleness": self.max_staleness,
            "replica_update_bytes": self.replica_update_bytes,
            "tenant_credits": self.tenant_credits,
            "credit_per_op": self.credit_per_op,
            "credits_per_cost_second": self.credits_per_cost_second,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServingConfig":
        defaults = cls()
        credits = data.get("tenant_credits", defaults.tenant_credits)
        return cls(
            max_queue_depth=int(data.get("max_queue_depth", defaults.max_queue_depth)),
            max_queue_delay=float(data.get("max_queue_delay", defaults.max_queue_delay)),
            throttle_utilization=float(
                data.get("throttle_utilization", defaults.throttle_utilization)
            ),
            shed_utilization=float(
                data.get("shed_utilization", defaults.shed_utilization)
            ),
            resume_utilization=float(
                data.get("resume_utilization", defaults.resume_utilization)
            ),
            replica_reads=bool(data.get("replica_reads", defaults.replica_reads)),
            replica_lag=float(data.get("replica_lag", defaults.replica_lag)),
            max_staleness=float(data.get("max_staleness", defaults.max_staleness)),
            replica_update_bytes=int(
                data.get("replica_update_bytes", defaults.replica_update_bytes)
            ),
            tenant_credits=None if credits is None else float(credits),
            credit_per_op=float(data.get("credit_per_op", defaults.credit_per_op)),
            credits_per_cost_second=float(
                data.get("credits_per_cost_second", defaults.credits_per_cost_second)
            ),
        )
