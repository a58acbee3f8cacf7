"""Front-door serving layer: router, replica reads, admission, tenants.

The cluster substrate (``repro.cluster``) executes operations; this
package decides *which* operations run, *where*, and *on whose account*:

* :class:`~repro.serving.frontend.ServingFrontend` — the front door
  every client operation enters; it meters each tenant in the tenant's
  cluster-labelled registry series;
* :class:`~repro.serving.router.GraphRouter` — routes reads to
  least-loaded fresh one-hop replicas and writes to primaries;
* :class:`~repro.serving.queue.QueryQueue` +
  :class:`~repro.serving.admission.AdmissionController` — bounded queue
  with utilization-driven load shedding and priority classes;
* :class:`~repro.serving.replicas.ReplicaIndex` /
  :class:`~repro.serving.replicas.ReplicaSynchronizer` — live SPAR
  replica placement and the bounded-staleness update model.
"""

from repro.serving.admission import (
    ACCEPTING,
    SHEDDING,
    THROTTLED,
    AdmissionController,
    Priority,
)
from repro.serving.config import ServingConfig
from repro.serving.frontend import (
    COMPLETED,
    DEGRADED,
    SERVING_OPS,
    SHED,
    ServeOutcome,
    ServingFrontend,
)
from repro.serving.queue import SHED_REASONS, QueryQueue
from repro.serving.replicas import ReplicaIndex, ReplicaSynchronizer
from repro.serving.router import GraphRouter, RouteDecision

__all__ = [
    "ACCEPTING",
    "COMPLETED",
    "DEGRADED",
    "SERVING_OPS",
    "SHED",
    "SHED_REASONS",
    "SHEDDING",
    "THROTTLED",
    "AdmissionController",
    "GraphRouter",
    "Priority",
    "QueryQueue",
    "ReplicaIndex",
    "ReplicaSynchronizer",
    "RouteDecision",
    "ServeOutcome",
    "ServingConfig",
    "ServingFrontend",
]
