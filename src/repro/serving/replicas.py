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

from typing import Dict, Optional, Set

from repro.exceptions import FaultInjectedError, VertexNotFoundError
from repro.serving.config import ServingConfig
from repro.telemetry import Telemetry


class ReplicaIndex:
    """The cluster's one-hop replica placement, read from ``cluster.aux``."""

    def __init__(self, cluster):
        self.cluster = cluster

    def replicas_of(self, vertex: int) -> frozenset:
        """Partitions holding a replica of ``vertex`` (primary excluded)."""
        aux = self.cluster.aux
        try:
            home = aux.partition_of(vertex)
            return frozenset(aux.neighbor_counts(vertex)) - {home}
        except VertexNotFoundError:
            return frozenset()

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
    arrival clock.
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
        self.config = config
        #: vertex -> simulated time of its most recent primary write
        self.last_write: Dict[int, float] = {}
        #: largest pending-update age any served replica read observed
        self.max_served_staleness = 0.0
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
    def record_write(self, vertices, now: float) -> Dict[int, float]:
        """A primary write touched ``vertices`` at simulated time ``now``.

        Ships one update message per replica copy through the simulated
        network (counted in its per-link ledger and in the registry) and
        stamps the vertices so replica reads observe bounded staleness until
        ``now + replica_lag``.  Returns the simulated time each replica
        host spent receiving and applying its updates — replication is
        asynchronous, so the caller charges that to the replica servers'
        backlogs, not to the client's latency.
        """
        network = self.cluster.network
        catalog = self.cluster.catalog
        servers = self.cluster.servers
        size = self.config.replica_update_bytes
        costs: Dict[int, float] = {}
        for vertex in vertices:
            self.last_write[vertex] = now
            host = catalog.lookup(vertex)
            for replica_partition in sorted(self.index.replicas_of(vertex)):
                try:
                    shipped = network.transfer(host, replica_partition, size)
                except FaultInjectedError:
                    # The update is lost on the wire; the background
                    # anti-entropy pass re-ships it inside the lag
                    # window, so the staleness contract still holds.
                    self._update_failures.inc()
                    continue
                # Applying the update costs the replica host one record
                # write's worth of CPU.
                apply_cost = network.local_visit()
                servers[replica_partition].busy_counter.inc(apply_cost)
                costs[replica_partition] = (
                    costs.get(replica_partition, 0.0) + shipped + apply_cost
                )
                self._updates.inc()
                self._update_bytes.inc(size)
        return costs

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def staleness(self, vertex: int, now: float) -> float:
        """Age of the data a replica of ``vertex`` would serve at ``now``.

        0.0 when the vertex was never written through the front door or
        the last update has propagated (``now >= write + lag``);
        otherwise the pending update's age ``now - write``.
        """
        written = self.last_write.get(vertex)
        if written is None:
            return 0.0
        if now >= written + self.config.replica_lag:
            return 0.0
        return max(0.0, now - written)

    def fresh(self, vertex: int, now: float) -> bool:
        """May a replica serve ``vertex`` under the staleness bound?"""
        return self.staleness(vertex, now) <= self.config.max_staleness

    def note_served(self, vertex: int, now: float) -> float:
        """Record that a replica read was served; returns its staleness."""
        staleness = self.staleness(vertex, now)
        if staleness > self.max_served_staleness:
            self.max_served_staleness = staleness
        return staleness
