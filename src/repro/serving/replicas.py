"""Live SPAR replica placement and the replica-update staleness model.

SPAR's replica set of a vertex is the set of partitions hosting one of
its neighbours, minus its home.  The paper's auxiliary data (Section
3.1) already keeps, per vertex, the neighbour count in every partition
and maintains it in O(1) per edge, so the live placement is a *view* of
``cluster.aux`` and nothing here is cached or refreshed:

* :class:`ReplicaIndex` reads the placement straight from the auxiliary
  data.  Outside a rebalance it equals
  :meth:`~repro.cluster.replication.OneHopReplicator.placements` of the
  current partitioning exactly (the simtest ``replica-staleness-bound``
  invariant checks that).  Inside an open double-write window it shows
  the plan's *target* placement: phase 1 retargets the auxiliary data
  before the catalog commits, and an aborted migration's
  ``_rollback_aux`` restores the pre-rebalance view;
* :class:`ReplicaSynchronizer` models update propagation on the
  simulated clock: a primary write at time *t* ships one replica-update
  message per replica copy over the
  :class:`~repro.cluster.network.SimulatedNetwork` (so the bytes land in
  its per-link ledger and in the registry alike), and every replica of
  the vertex has applied the update by *t + replica_lag*.  Until then a
  replica read observes data aged ``now - t`` — the router serves it
  only while that age is within the configured ``max_staleness`` bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cluster.network import nanoseconds
from repro.exceptions import VertexNotFoundError
from repro.serving.config import ServingConfig
from repro.telemetry import Telemetry

#: payload bytes of one replica-update shipment (per replica copy)
REPLICA_UPDATE_BYTES = 96


class ReplicaIndex:
    """The cluster's one-hop replica placement, read from ``cluster.aux``."""

    def __init__(self, cluster):
        self.cluster = cluster

    def replicas_of(self, vertex: int) -> frozenset:
        """Partitions holding a replica of ``vertex`` (primary excluded)."""
        return frozenset(self.replica_hosts(vertex))

    def replica_hosts(self, vertex: int) -> List[int]:
        """:meth:`replicas_of` in ascending order, read off the vertex's
        neighbour-count row."""
        aux = self.cluster.aux
        try:
            home = aux.partition_of(vertex)
            return [p for p in aux.neighbor_counts(vertex) if p != home]
        except VertexNotFoundError:
            return []

    def placements(self) -> Dict[int, Set[int]]:
        """The full vertex -> replica-partition map."""
        return {
            vertex: set(self.replicas_of(vertex))
            for vertex in self.cluster.aux.vertices()
        }


class ReplicaSynchronizer:
    """Ships replica updates and answers staleness queries.

    The write path calls :meth:`record_write` with the touched vertices;
    the read path calls :meth:`staleness`/:meth:`fresh` before routing a
    read to a replica.  All times are on the serving layer's simulated
    arrival clock, in integer nanoseconds.
    """

    def __init__(
        self,
        cluster,
        index: ReplicaIndex,
        config: ServingConfig,
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self.cluster = cluster
        self.index = index
        self._lag = nanoseconds(config.replica_lag)
        self.max_staleness = nanoseconds(config.max_staleness)
        #: vertex -> simulated time of its most recent primary write
        self.last_write: Dict[int, int] = {}
        #: largest pending-update age any served replica read observed
        self.max_served_staleness = 0
        telemetry = telemetry or Telemetry()
        extra = labels or {}
        self._updates = telemetry.counter(
            "replica_updates_total", "replica-update messages shipped", **extra
        )
        self._update_bytes = telemetry.counter(
            "replica_update_bytes_total", "payload bytes of replica updates",
            **extra,
        )
        self._update_failures = telemetry.counter(
            "replica_update_failures_total",
            "replica updates lost to injected faults (re-shipped by "
            "anti-entropy within the lag window)",
            **extra,
        )

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def record_write(self, vertices, now: int) -> Dict[int, int]:
        """A primary write touched ``vertices`` at simulated time ``now``.

        Ships one update message per replica copy, a vertex's in one
        ``network.transfers`` call (counted in its per-link ledger and in
        the registry), and stamps the vertices so replica reads observe
        bounded staleness until ``now + replica_lag``.  Returns the
        simulated time each replica host spent receiving and applying its
        updates — replication is asynchronous, so the caller charges that
        to the replica servers' backlogs, not to the client's latency.
        """
        network = self.cluster.network
        servers = self.cluster.servers
        apply_cost = network.local_visit()  # one record write's worth of CPU
        costs: Dict[int, int] = {}
        for vertex in vertices:
            self.last_write[vertex] = now
            replicas = self.index.replica_hosts(vertex)
            host = self.cluster.catalog.lookup(vertex)
            arrived = network.transfers(host, replicas, REPLICA_UPDATE_BYTES)
            for replica, shipped in arrived:
                servers[replica].busy_counter.inc(apply_cost)
                costs[replica] = costs.get(replica, 0) + shipped + apply_cost
            # A lost update is re-shipped by anti-entropy inside the lag.
            self._update_failures.inc(len(replicas) - len(arrived))
            self._updates.inc(len(arrived))
            self._update_bytes.inc(len(arrived) * REPLICA_UPDATE_BYTES)
        return costs

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def staleness(self, vertex: int, now: int) -> int:
        """Age of the data a replica of ``vertex`` would serve at ``now``.

        0 when the vertex was never written through the front door or
        the last update has propagated (``now >= write + lag``);
        otherwise the pending update's age ``now - write``.
        """
        written = self.last_write.get(vertex)
        if written is None or now >= written + self._lag:
            return 0
        return max(0, now - written)

    def fresh(self, vertex: int, now: int) -> bool:
        """May a replica serve ``vertex`` under the staleness bound?"""
        return self.staleness(vertex, now) <= self.max_staleness

    def note_served(self, vertex: int, now: int) -> int:
        """Record that a replica read was served; returns its staleness."""
        staleness = self.staleness(vertex, now)
        if staleness > self.max_served_staleness:
            self.max_served_staleness = staleness
        return staleness
