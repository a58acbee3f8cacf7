"""The cluster's logical graph, answered where each fact already lives.

No Hermes server holds the whole graph (PAPER.md §3): a server knows its
own records, and the auxiliary data knows placement, popularity and the
per-partition neighbour counters.  :class:`ClusterGraph` is the
read-only :class:`~repro.graph.compact.GraphRead` a cluster exposes as
``cluster.graph``, and it holds no per-vertex state of its own:

* ``vertices()`` and ``num_vertices`` come from the catalog, in its
  registration order;
* ``neighbors`` / ``neighbors_array`` / ``neighbor_batch`` / ``degree``
  / ``has_edge`` read the home server's adjacency view
  (:meth:`~repro.storage.graph_store.GraphStore.read_frontier`), so a
  vertex's neighbours come in its chain order;
* ``weight_of`` (live popularity) and ``num_edges`` come from the
  auxiliary data, whose counters count every edge once at each end.

The view answers for the quiescent cluster and mid-migration alike: the
catalog names a vertex's home, and a home copy is available and carries
the vertex's whole chain (ghost records) from its copy step on.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterator, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import CatalogError, ClusterError, VertexNotFoundError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.hermes import HermesCluster


class ClusterGraph:
    """Read-only graph view over one cluster's catalog, stores and aux."""

    __slots__ = ("_cluster",)

    def __init__(self, cluster: "HermesCluster") -> None:
        self._cluster = cluster

    # ------------------------------------------------------------------
    # Vertices (the catalog)
    # ------------------------------------------------------------------
    def vertices(self) -> Iterator[int]:
        """Catalogued vertices, in registration order."""
        return self._cluster.catalog.vertices()

    @property
    def num_vertices(self) -> int:
        return len(self._cluster.catalog)

    # ------------------------------------------------------------------
    # Adjacency (each home server's store)
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> Sequence[int]:
        """``vertex``'s neighbour ids in its chain order: its home store's
        adjacency-view entry (read it, never modify it)."""
        cluster = self._cluster
        try:
            home = cluster.catalog.lookup(vertex)
        except CatalogError:
            raise VertexNotFoundError(vertex) from None
        (row,) = cluster.servers[home].store.read_frontier((vertex,), True)
        if row is None:
            raise ClusterError(
                f"vertex {vertex} is not available on its home server {home}"
            )
        return row

    neighbors_array = neighbors

    def neighbor_batch(self, vertices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, lengths)`` of a batch, both ``int64``, each
        vertex's neighbours in its chain order."""
        rows = [self.neighbors(vertex) for vertex in vertices]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        ids = chain.from_iterable(rows)
        return np.fromiter(ids, dtype=np.int64, count=int(lengths.sum())), lengths

    def degree(self, vertex: int) -> int:
        return len(self.neighbors(vertex))

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._cluster.catalog and v in self.neighbors(u)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Every edge once, oriented from the endpoint listed first."""
        seen: Set[int] = set()
        for u in self.vertices():
            for v in self.neighbors(u):
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    # ------------------------------------------------------------------
    # Weights and counts (the auxiliary data)
    # ------------------------------------------------------------------
    def weight_of(self, vertex: int) -> float:
        """Live popularity: the auxiliary data's weight of ``vertex``."""
        return self._cluster.aux.weight_of(vertex)

    weight = weight_of

    @property
    def num_edges(self) -> int:
        return self._cluster.aux.num_edges

    def __repr__(self) -> str:
        return (
            f"ClusterGraph(vertices={self.num_vertices}, edges={self.num_edges})"
        )
