"""Graph evolution: the write side of the workload.

Social networks evolve "towards community formation" (Section 3.3.2):
new users join and attach preferentially near existing communities, and
existing users befriend friends-of-friends.  :class:`GraphEvolution`
generates insert operations with those dynamics against a live graph
(typically a cluster's ``graph`` view), so each generated edge is valid
at generation time.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Set, Tuple

from repro.graph.adjacency import SocialGraph
from repro.workloads.queries import InsertEdge, InsertVertex, Operation


class GraphEvolution:
    """Stateful write-operation generator over a live graph.

    The generator *does not mutate* the graph — the cluster applies each
    operation, which its graph view then shows; the generator re-reads it.
    It also remembers every pair it has emitted, so an edge handed out
    but not applied yet (a concurrent client still holds it) is never
    handed out again.  A ``NEW_VERTEX_FRACTION`` share of operations
    insert a user; of the edges, a ``TRIADIC_FRACTION`` share try
    triadic closure first.
    """

    NEW_VERTEX_FRACTION = 0.2
    TRIADIC_FRACTION = 0.6

    def __init__(self, graph: SocialGraph, seed: Optional[int] = None):
        self.graph = graph
        self._rng = random.Random(seed)
        self._next_vertex = (max(graph.vertices(), default=-1)) + 1
        #: every emitted edge as a ``(min, max)`` pair
        self._emitted: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def operations(self, count: int) -> Iterator[Operation]:
        """Yield ``count`` write operations."""
        for _ in range(count):
            yield self.next_operation()

    def next_operation(self) -> Operation:
        if (
            self.graph.num_vertices < 2
            or self._rng.random() < self.NEW_VERTEX_FRACTION
        ):
            return self._new_vertex()
        edge = self._new_edge()
        if edge is None:
            return self._new_vertex()
        self._emitted.add(_pair(edge.u, edge.v))
        return edge

    # ------------------------------------------------------------------
    def _new_vertex(self) -> InsertVertex:
        vertex = self._next_vertex
        self._next_vertex += 1
        return InsertVertex(vertex=vertex, weight=1.0)

    def _new_edge(self) -> Optional[InsertEdge]:
        """Triadic closure when possible, otherwise a random pair."""
        if self._rng.random() < self.TRIADIC_FRACTION:
            edge = self._triadic_edge()
            if edge is not None:
                return edge
        return self._random_edge()

    def _triadic_edge(self) -> Optional[InsertEdge]:
        vertices = self._sample_vertices(8)
        for u in vertices:
            neighbors = list(self.graph.neighbors(u))
            if not neighbors:
                continue
            via = self._rng.choice(neighbors)
            candidates = [
                w
                for w in self.graph.neighbors(via)
                if w != u and self._is_new(u, w)
            ]
            if candidates:
                return InsertEdge(u=u, v=self._rng.choice(candidates))
        return None

    def _random_edge(self) -> Optional[InsertEdge]:
        for _ in range(16):
            pair: List[int] = self._sample_vertices(2)
            if len(pair) < 2:
                return None
            u, v = pair
            if u != v and self._is_new(u, v):
                return InsertEdge(u=u, v=v)
        return None

    def _is_new(self, u: int, v: int) -> bool:
        """Neither in the graph nor emitted before."""
        return not self.graph.has_edge(u, v) and _pair(u, v) not in self._emitted

    def _sample_vertices(self, count: int) -> List[int]:
        population = list(self.graph.vertices())
        if not population:
            return []
        count = min(count, len(population))
        return self._rng.sample(population, count)


def _pair(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)
