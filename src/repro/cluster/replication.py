"""SPAR-style one-hop replication (comparison middleware, Section 6).

SPAR (Pujol et al., SIGCOMM CCR 2010) achieves perfect 1-hop query
locality by *replicating*: every vertex gets a replica on each partition
that hosts one of its neighbors, so any user's neighborhood is always
fully local.  The trade-offs the paper points out:

* storage and write amplification grow with the replication factor
  (every update to a vertex must reach all of its replicas);
* "SPAR is restricted to keeping only one-hop neighbours local while
  Hermes can support general remote traversals" — a 2-hop query still
  leaves the partition, because replicas do not carry their neighbors'
  neighborhoods.

:class:`OneHopReplicator` computes the replica placement implied by a
partitioning and quantifies those trade-offs, so the ``spar`` experiment
can put Hermes and SPAR side by side.

The class is instrumented: an attached
:class:`~repro.telemetry.Telemetry` hub counts placement computations
and the replica copies they produced, and exports the headline
trade-off numbers (replication factor, total replicas, write
amplification) as gauges every time :meth:`OneHopReplicator.stats`
runs (into a hub of its own when given none).  The serving path
does not tick ``replication_placements_total`` /
``replication_copies_total``: :class:`~repro.serving.replicas.
ReplicaIndex` reads the same placement from the auxiliary data, and this
class is the from-scratch oracle it is tested against (the simtest
``replica-staleness-bound`` invariant, the ``spar`` experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class ReplicationStats:
    """Cost/benefit accounting of a one-hop replication layout."""

    num_vertices: int
    #: total replica copies (excluding each vertex's primary)
    total_replicas: int
    #: replicas + primaries per partition
    records_per_partition: List[int]
    #: average number of partitions a write to a vertex must reach
    write_amplification: float
    #: fraction of 1-hop traversal steps that stay local (1.0 by design)
    one_hop_local_fraction: float
    #: fraction of 2-hop steps that stay local (replicas don't help here)
    two_hop_local_fraction: float

    @property
    def replication_factor(self) -> float:
        """Average copies per vertex, primaries included."""
        if self.num_vertices == 0:
            return 0.0
        return (self.num_vertices + self.total_replicas) / self.num_vertices


class OneHopReplicator:
    """Compute SPAR's replica placement for a given partitioning."""

    def __init__(self, telemetry: Optional[Telemetry] = None):
        telemetry = telemetry or Telemetry()
        self.telemetry = telemetry
        self._placements_counter = telemetry.counter(
            "replication_placements_total",
            "one-hop replica placement computations",
        )
        self._copies_counter = telemetry.counter(
            "replication_copies_total",
            "replica copies produced by placement computations",
        )

    def placements(
        self, graph: SocialGraph, partitioning: Partitioning
    ) -> Dict[int, Set[int]]:
        """Map vertex -> set of partitions holding a *replica* of it
        (its primary partition is excluded)."""
        replicas: Dict[int, Set[int]] = {v: set() for v in graph.vertices()}
        for u, v in graph.edges():
            pu = partitioning.partition_of(u)
            pv = partitioning.partition_of(v)
            if pu != pv:
                # Each endpoint needs a replica where the other lives so
                # that both neighborhoods are fully local.
                replicas[u].add(pv)
                replicas[v].add(pu)
        self._placements_counter.inc()
        self._copies_counter.inc(sum(len(parts) for parts in replicas.values()))
        return replicas

    def stats(
        self, graph: SocialGraph, partitioning: Partitioning
    ) -> ReplicationStats:
        replicas = self.placements(graph, partitioning)
        total_replicas = sum(len(parts) for parts in replicas.values())
        records = [len(partitioning.vertices_in(p)) for p in range(partitioning.num_partitions)]
        for parts in replicas.values():
            for partition in parts:
                records[partition] += 1
        write_amplification = (
            (graph.num_vertices + total_replicas) / graph.num_vertices
            if graph.num_vertices
            else 0.0
        )
        stats = ReplicationStats(
            num_vertices=graph.num_vertices,
            total_replicas=total_replicas,
            records_per_partition=records,
            write_amplification=write_amplification,
            one_hop_local_fraction=1.0,
            two_hop_local_fraction=self._two_hop_local_fraction(
                graph, partitioning
            ),
        )
        self.telemetry.gauge(
            "replication_factor", "average copies per vertex, primaries included"
        ).set(stats.replication_factor)
        self.telemetry.gauge(
            "replication_total_replicas", "replica copies excluding primaries"
        ).set(total_replicas)
        self.telemetry.gauge(
            "replication_write_amplification",
            "average partitions reached by one vertex write",
        ).set(write_amplification)
        return stats

    @staticmethod
    def _two_hop_local_fraction(
        graph: SocialGraph, partitioning: Partitioning
    ) -> float:
        """Fraction of second-hop expansions that stay on the start
        vertex's partition.

        Under SPAR the first hop is always local (the replica set), but
        expanding a *replicated neighbor* requires its own partition's
        data: a second-hop step is local only when the intermediate
        neighbor's primary lives on the start partition.
        """
        local = 0
        total = 0
        for start in graph.vertices():
            home = partitioning.partition_of(start)
            for middle in graph.neighbors(start):
                middle_home = partitioning.partition_of(middle)
                degree = graph.degree(middle)
                total += degree
                if middle_home == home:
                    local += degree
        if total == 0:
            return 1.0
        return local / total
