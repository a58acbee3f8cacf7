"""Workload model: edge heat accumulated from live traversal traffic.

The traversal engine knows which edges a query actually crossed, but
placement sees only vertex weights.  :class:`WorkloadModel` closes that
loop: it accumulates **edge heat**, a per-edge count of how often
traversals crossed each edge, with exponential half-life decay on the
simulated clock so the model tracks *current* traffic rather than
all-time totals (the same reason vertex weights decay).

Heat flows in through :meth:`observe_edge`: the traversal engine calls
it for every frontier expansion when a model is attached to the cluster
(see :meth:`~repro.cluster.hermes.HermesCluster.attach_workload_model`).
:meth:`ingest_trace` makes the same observations offline from an
operation stream and a graph snapshot.

The repartitioner consumes :meth:`normalized_edge_heat`: heat rescaled
so the *mean heated edge* has heat 1.0, making the heat term of the
blended gain directly comparable to the unit neighbor counts of the
static gain (see ``RepartitionerConfig.workload_alpha``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import VertexNotFoundError, WorkloadError
from repro.workloads.queries import Operation, Traversal

EdgeKey = Tuple[int, int]


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical undirected key: traffic over (u, v) and (v, u) is one edge."""
    return (u, v) if u <= v else (v, u)


class WorkloadModel:
    """Edge-heat accumulator with simulated-clock exponential decay.

    Parameters
    ----------
    half_life:
        Simulated seconds for heat to halve.  ``None`` disables decay
        (heat accumulates forever) — useful for offline replay where the
        whole trace should count equally.
    """

    def __init__(self, half_life: Optional[float] = None):
        if half_life is not None and half_life <= 0.0:
            raise WorkloadError(f"half_life must be positive, got {half_life}")
        self.half_life = half_life
        self.now = 0.0
        #: (heat, stamp) per canonical edge; heat is valid *at* stamp and
        #: decays lazily when read or re-observed
        self._edges: Dict[EdgeKey, Tuple[float, float]] = {}
        #: observation counters (undecayed): the conservation side of the
        #: simtest invariant — observe_edge calls and total raw weight
        self.observations = 0
        self.observed_weight = 0.0

    # ------------------------------------------------------------------
    # Clock and decay
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Move the model clock forward (simulated time is monotone)."""
        if now < self.now:
            raise WorkloadError(
                f"model clock went backwards: {now} < {self.now}"
            )
        self.now = now

    def _decayed(self, heat: float, stamp: float, now: float) -> float:
        if self.half_life is None or heat == 0.0:
            return heat
        elapsed = now - stamp
        if elapsed <= 0.0:
            return heat
        return heat * 0.5 ** (elapsed / self.half_life)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe_edge(
        self, u: int, v: int, weight: float = 1.0, now: Optional[float] = None
    ) -> None:
        """One traversal crossed edge ``(u, v)``: add ``weight`` heat.

        ``now`` defaults to the model clock; an explicit value also
        advances the clock, so observations arrive in simulated order.
        """
        if weight < 0.0:
            raise WorkloadError(f"heat weight must be >= 0, got {weight}")
        if now is not None:
            self.advance(now)
        key = edge_key(u, v)
        entry = self._edges.get(key)
        if entry is None:
            self._edges[key] = (weight, self.now)
        else:
            heat, stamp = entry
            self._edges[key] = (
                self._decayed(heat, stamp, self.now) + weight,
                self.now,
            )
        self.observations += 1
        self.observed_weight += weight

    def ingest_trace(
        self, operations: Iterable[Operation], graph
    ) -> int:
        """Replay a recorded operation stream against a graph snapshot.

        Each :class:`~repro.workloads.queries.Traversal` is expanded
        breadth-first exactly like the engine expands its frontier —
        every edge followed to reach the next depth is one observation
        (vertices reachable along several paths re-heat each path's
        edge, matching the engine's processed-per-path accounting).
        Non-traversal operations carry no edge traffic and are skipped.
        Returns the number of edge observations made.
        """
        adjacency = getattr(graph, "neighbors", None) or graph.neighbors_array
        before = self.observations
        for operation in operations:
            if not isinstance(operation, Traversal):
                continue
            frontier = [operation.start]
            expanded = set()
            for _ in range(operation.hops):
                next_frontier: List[int] = []
                for vertex in frontier:
                    if vertex in expanded:
                        continue
                    expanded.add(vertex)
                    try:
                        neighbors = adjacency(vertex)
                    except VertexNotFoundError:
                        continue  # recorded against a since-shrunk graph
                    for neighbor in neighbors:
                        self.observe_edge(vertex, int(neighbor))
                        next_frontier.append(int(neighbor))
                if not next_frontier:
                    break
                frontier = next_frontier
        return self.observations - before

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def edge_heat(self, u: int, v: int, now: Optional[float] = None) -> float:
        """Decayed heat of edge ``(u, v)`` at ``now`` (default: model clock)."""
        entry = self._edges.get(edge_key(u, v))
        if entry is None:
            return 0.0
        heat, stamp = entry
        return self._decayed(heat, stamp, self.now if now is None else now)

    def edge_heats(self, now: Optional[float] = None) -> Dict[EdgeKey, float]:
        """All decayed edge heats at ``now`` (canonical keys, fresh dict)."""
        at = self.now if now is None else now
        return {
            key: self._decayed(heat, stamp, at)
            for key, (heat, stamp) in self._edges.items()
        }

    def total_heat(self, now: Optional[float] = None) -> float:
        """Sum of decayed edge heats — monotone non-increasing between
        observations, and never above :attr:`observed_weight`."""
        return sum(self.edge_heats(now).values())

    def normalized_edge_heat(
        self, now: Optional[float] = None
    ) -> Dict[EdgeKey, float]:
        """Edge heat rescaled so the mean heated edge has heat 1.0.

        This is the map the repartitioner attaches: with a mean of 1.0
        the heat term of the blended gain lives on the same scale as the
        unit neighbor counts of the static gain, so ``workload_alpha``
        interpolates between comparable quantities.
        """
        heats = {
            key: heat for key, heat in self.edge_heats(now).items() if heat > 0.0
        }
        if not heats:
            return {}
        scale = len(heats) / sum(heats.values())
        return {key: heat * scale for key, heat in heats.items()}

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        return (
            f"WorkloadModel(edges={len(self._edges)}, "
            f"observations={self.observations}, now={self.now:.6f}, "
            f"half_life={self.half_life})"
        )
