"""GraphRouter: the front door's routing decision layer.

The router owns a front-door :class:`~repro.cluster.catalog.LocationCache`
view (one cached slot layered over the authoritative catalog, exactly
the directory-hint design the traversal engine uses per server): primary
lookups hit the cache, a stale entry after a migration costs one
forwarding hop to the vertex's old home before the cache learns the new
one.

Routing decision table:

=============  =======================================================
operation      route
=============  =======================================================
read_vertex    least-backlog host among {primary} ∪ {fresh replicas};
               ties prefer the primary (no staleness at equal load)
traverse       primary only — SPAR replicas carry a vertex's *record*,
               not its neighbors' adjacency, so a traversal must start
               at (and fan out from) primaries
add_vertex     placement target (hash), always a primary
add_edge       src primary (the edge record's home)
set_property   primary only — writes never land on replicas
=============  =======================================================

A read served by a replica is a *replica hit* (the primary was offloaded);
a read that falls back to the primary — no replicas, replicas stale, or
the primary simply had the shortest backlog — is a *replica miss*.  Both
are counted, and stale-blocked reads get their own counter so the lag
sweep can report how often the staleness bound forbade offloading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.cluster.catalog import LocationCache
from repro.serving.config import ServingConfig
from repro.serving.queue import QueryQueue
from repro.serving.replicas import ReplicaIndex, ReplicaSynchronizer
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class RouteDecision:
    """Where one read goes, and what the lookup cost along the way."""

    #: server that will execute the read
    host: int
    #: the vertex's primary (catalog-authoritative) server
    primary: int
    #: True when the read is served from a one-hop replica
    replica_read: bool
    #: forwarding cost (ns) paid to resolve a stale front-door cache entry
    forward_cost: int


class GraphRouter:
    """Route front-door operations to primaries and fresh replicas."""

    def __init__(
        self,
        cluster,
        index: ReplicaIndex,
        sync: ReplicaSynchronizer,
        queue: QueryQueue,
        config: ServingConfig,
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self.cluster = cluster
        self.index = index
        self.sync = sync
        self.queue = queue
        self.config = config
        telemetry = telemetry or Telemetry()
        extra = labels or {}
        # The front door is one more cache client of the catalog: slot 0
        # of a single-view LocationCache, stale after migrations until a
        # forwarding hop corrects it.  Its series carry ``cache`` so they
        # never mix with the servers' cache.
        self.cache = LocationCache(
            cluster.catalog, 1, telemetry=telemetry,
            labels={**extra, "cache": "front_door"},
        )
        self._replica_hits = telemetry.counter(
            "replica_read_hits_total",
            "single-record reads served by a one-hop replica",
            **extra,
        )
        self._replica_misses = telemetry.counter(
            "replica_read_misses_total",
            "single-record reads served by the primary",
            **extra,
        )
        self._stale_blocked = telemetry.counter(
            "replica_reads_stale_blocked_total",
            "reads whose replicas were too stale to serve",
            **extra,
        )
        self._forwards = telemetry.counter(
            "router_forwards_total",
            "front-door lookups forwarded past a stale cache entry",
            **extra,
        )

    # ------------------------------------------------------------------
    # Primary resolution (writes, traversals, and the read fallback)
    # ------------------------------------------------------------------
    def primary_of(self, vertex: int) -> Tuple[int, int]:
        """Resolve a vertex's primary through the front-door cache.

        Returns ``(host, forward_cost)``: on a stale hit the request
        first reaches the believed (old) home, pays one forwarding hop
        to the actual one, and the cache learns the correction — the
        same contract the PR-4 per-server caches honor.
        """
        believed = self.cache.lookup_from(0, vertex)
        actual = self.cluster.catalog.lookup(vertex)
        if believed == actual:
            return actual, 0
        forward = self.cluster.network.remote_hop(believed, actual)
        self.cache.learn(0, vertex, actual)
        self._forwards.inc()
        return actual, forward

    # ------------------------------------------------------------------
    # Read routing
    # ------------------------------------------------------------------
    def route_read(self, vertex: int, now: int) -> RouteDecision:
        """Pick the host for a single-record read at simulated ``now``."""
        primary, forward = self.primary_of(vertex)
        if not self.config.replica_reads:
            self._replica_misses.inc()
            return RouteDecision(primary, primary, False, forward)
        replicas = self.index.replica_hosts(vertex)
        if replicas and not self.sync.fresh(vertex, now):
            self._stale_blocked.inc()
            replicas = ()
        if not replicas:
            self._replica_misses.inc()
            return RouteDecision(primary, primary, False, forward)
        # Load-aware choice: the host whose backlog drains soonest wins;
        # the primary takes ties (it serves with zero staleness).
        free_at = self.queue.free_at
        host = primary
        best = free_at[primary]
        for candidate in replicas:
            if free_at[candidate] < best:
                host = candidate
                best = free_at[candidate]
        if host == primary:
            self._replica_misses.inc()
            return RouteDecision(primary, primary, False, forward)
        self._replica_hits.inc()
        return RouteDecision(host, primary, True, forward)

    # ------------------------------------------------------------------
    # Replica-read execution
    # ------------------------------------------------------------------
    def serve_replica_read(
        self, vertex: int, decision: RouteDecision, now: int
    ) -> Tuple[Dict[str, Any], int, int, bool]:
        """Execute a read against the chosen replica host.

        Returns ``(properties, cost, staleness, degraded)``.  The cluster's
        one read body serves it: the replica host is charged the record
        read (visit + busy time) of the primary's record, and a crashed
        replica host degrades the read exactly like a crashed primary
        would — timeout cost, empty result.
        """
        properties, cost, degraded = self.cluster._serve_read(
            vertex, decision.host, decision.primary
        )
        staleness = 0 if degraded else self.sync.note_served(vertex, now)
        return properties, cost, staleness, degraded
