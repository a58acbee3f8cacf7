"""Mutable, undirected, vertex-weighted graph used across the library.

The paper's partitioning model (Section 2.1) is an undirected graph with
weights on vertices, where a vertex's weight encodes its read popularity.
:class:`SocialGraph` is the single in-memory representation shared by the
static partitioners, the lightweight repartitioner's driver, the workload
generators and the cluster simulator.

Vertices are integers.  Edges are unordered pairs of distinct vertices
(no self-loops, no parallel edges), matching the social-network model the
paper evaluates on.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import (
    DuplicateVertexError,
    EdgeNotFoundError,
    GraphError,
    VertexNotFoundError,
)


class SocialGraph:
    """An undirected graph with floating-point vertex weights.

    Example
    -------
    >>> g = SocialGraph()
    >>> g.add_vertex(1, weight=2.0)
    >>> g.add_vertex(2)
    >>> g.add_edge(1, 2)
    >>> g.degree(1)
    1
    >>> g.total_weight()
    3.0
    """

    __slots__ = ("_adjacency", "_weights", "_num_edges")

    DEFAULT_WEIGHT = 1.0

    def __init__(self) -> None:
        self._adjacency: Dict[int, Set[int]] = {}
        self._weights: Dict[int, float] = {}
        self._num_edges: int = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        vertices: Optional[Iterable[int]] = None,
        default_weight: float = DEFAULT_WEIGHT,
    ) -> "SocialGraph":
        """Build a graph from an edge iterable, adding endpoints on demand.

        ``vertices`` may list isolated vertices that appear in no edge.
        Duplicate edges and self-loops in the input are ignored silently,
        which makes this a convenient entry point for raw SNAP edge lists.
        """
        graph = cls()
        if vertices is not None:
            for v in vertices:
                if v not in graph:
                    graph.add_vertex(v, weight=default_weight)
        for u, v in edges:
            if u == v:
                continue
            if u not in graph:
                graph.add_vertex(u, weight=default_weight)
            if v not in graph:
                graph.add_vertex(v, weight=default_weight)
            graph.add_edge_if_absent(u, v)
        return graph

    def copy(self) -> "SocialGraph":
        """Return a deep copy (weights and adjacency are duplicated)."""
        clone = SocialGraph()
        clone._weights = dict(self._weights)
        clone._adjacency = {v: set(nbrs) for v, nbrs in self._adjacency.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: int, weight: float = DEFAULT_WEIGHT) -> None:
        """Add an isolated vertex.

        Raises
        ------
        DuplicateVertexError
            If the vertex already exists.
        GraphError
            If the weight is negative.
        """
        if vertex in self._adjacency:
            raise DuplicateVertexError(vertex)
        if weight < 0:
            raise GraphError(f"vertex weight must be non-negative, got {weight}")
        self._adjacency[vertex] = set()
        self._weights[vertex] = float(weight)

    def remove_vertex(self, vertex: int) -> None:
        """Remove a vertex and all its incident edges."""
        neighbors = self._adjacency.get(vertex)
        if neighbors is None:
            raise VertexNotFoundError(vertex)
        for nbr in list(neighbors):
            self._adjacency[nbr].discard(vertex)
        self._num_edges -= len(neighbors)
        del self._adjacency[vertex]
        del self._weights[vertex]

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._adjacency

    def vertices(self) -> Iterator[int]:
        """Iterate over vertex IDs (insertion order)."""
        return iter(self._adjacency)

    @property
    def num_vertices(self) -> int:
        return len(self._adjacency)

    def weight(self, vertex: int) -> float:
        """Return the vertex's weight (its read popularity)."""
        try:
            return self._weights[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    #: read-protocol alias (see :class:`repro.graph.compact.GraphRead`)
    weight_of = weight

    def set_weight(self, vertex: int, weight: float) -> None:
        if vertex not in self._weights:
            raise VertexNotFoundError(vertex)
        if weight < 0:
            raise GraphError(f"vertex weight must be non-negative, got {weight}")
        self._weights[vertex] = float(weight)

    def total_weight(self) -> float:
        return sum(self._weights.values())

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Add an undirected edge between two existing vertices.

        Raises
        ------
        GraphError
            On self-loops or duplicate edges.
        VertexNotFoundError
            If either endpoint is missing.
        """
        if u == v:
            raise GraphError(f"self-loop on vertex {u!r} is not allowed")
        if u not in self._adjacency:
            raise VertexNotFoundError(u)
        if v not in self._adjacency:
            raise VertexNotFoundError(v)
        if v in self._adjacency[u]:
            raise GraphError(f"edge ({u!r}, {v!r}) already exists")
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._num_edges += 1

    def add_edge_if_absent(self, u: int, v: int) -> bool:
        """Add the edge unless it already exists; report whether it was new.

        The bulk-load path (:meth:`from_edges`, the SNAP loader): instead
        of ``has_edge`` + ``add_edge`` — three hash probes per edge, two
        of them on the same set — this does the duplicate check once and
        keeps the silent-dedup semantics.  Both endpoints must exist.
        """
        if u == v:
            raise GraphError(f"self-loop on vertex {u!r} is not allowed")
        try:
            nbrs = self._adjacency[u]
        except KeyError:
            raise VertexNotFoundError(u) from None
        if v in nbrs:
            return False
        try:
            self._adjacency[v].add(u)
        except KeyError:
            raise VertexNotFoundError(v) from None
        nbrs.add(v)
        self._num_edges += 1
        return True

    def remove_edge(self, u: int, v: int) -> None:
        if u not in self._adjacency:
            raise VertexNotFoundError(u)
        if v not in self._adjacency:
            raise VertexNotFoundError(v)
        if v not in self._adjacency[u]:
            raise EdgeNotFoundError(u, v)
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._num_edges -= 1

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adjacency.get(u)
        return nbrs is not None and v in nbrs

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges, each reported once with ``u < v`` ordering
        where possible (falls back to first-seen orientation)."""
        seen: Set[int] = set()
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> Set[int]:
        """Return the neighbor set (a live reference; do not mutate)."""
        try:
            return self._adjacency[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def neighbors_array(self, vertex: int) -> Set[int]:
        """Read-protocol accessor (see :class:`repro.graph.compact.GraphRead`).

        The dict-of-sets substrate has no array to expose, so this is the
        live neighbor set; the CSR substrate returns an array slice.
        Consumers only iterate / take ``len`` / test membership.
        """
        return self.neighbors(vertex)

    def neighbor_batch(self, vertices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, lengths)`` of a batch, both ``int64``: each
        vertex's neighbors in its set's own iteration order."""
        try:
            rows = [self._adjacency[vertex] for vertex in vertices]
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        ids = chain.from_iterable(rows)
        return np.fromiter(ids, dtype=np.int64, count=int(lengths.sum())), lengths

    def degree(self, vertex: int) -> int:
        return len(self.neighbors(vertex))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[int]) -> "SocialGraph":
        """Return the induced subgraph on ``vertices`` (weights preserved)."""
        keep = set(vertices)
        sub = SocialGraph()
        for v in keep:
            if v not in self:
                raise VertexNotFoundError(v)
            sub.add_vertex(v, weight=self._weights[v])
        for v in keep:
            for nbr in self._adjacency[v]:
                if nbr in keep and not sub.has_edge(v, nbr):
                    sub.add_edge(v, nbr)
        return sub

    def connected_components(self) -> Iterator[Set[int]]:
        """Yield vertex sets of connected components (BFS)."""
        unvisited = set(self._adjacency)
        while unvisited:
            root = next(iter(unvisited))
            component = {root}
            frontier = [root]
            unvisited.discard(root)
            while frontier:
                next_frontier = []
                for u in frontier:
                    for v in self._adjacency[u]:
                        if v in unvisited:
                            unvisited.discard(v)
                            component.add(v)
                            next_frontier.append(v)
                frontier = next_frontier
            yield component

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return (
            f"SocialGraph(vertices={self.num_vertices}, edges={self.num_edges}, "
            f"total_weight={self.total_weight():g})"
        )
