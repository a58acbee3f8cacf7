"""Tests for the memory-footprint estimators (Section 5.3 claim)."""

from repro.analysis.memory import (
    adjacency_view_bytes,
    auxiliary_memory_bytes,
    multilevel_memory_bytes,
)
from repro.core.auxiliary import AuxiliaryData
from repro.graph.generators import orkut_like
from repro.partitioning.hashing import HashPartitioner
from repro.storage.graph_store import GraphStore


class TestEstimators:
    def test_multilevel_scales_with_edges(self):
        small = orkut_like(n=200, seed=1).graph
        dense = orkut_like(n=400, seed=1).graph
        assert multilevel_memory_bytes(dense) > multilevel_memory_bytes(small)

    def test_auxiliary_much_smaller_on_dense_graphs(self):
        graph = orkut_like(n=400, seed=2).graph
        partitioning = HashPartitioner().partition(graph, 4)
        aux = AuxiliaryData.from_graph(graph, partitioning)
        assert multilevel_memory_bytes(graph) > 3 * auxiliary_memory_bytes(aux)

    def test_auxiliary_bytes_positive(self):
        graph = orkut_like(n=100, seed=3).graph
        partitioning = HashPartitioner().partition(graph, 2)
        aux = AuxiliaryData.from_graph(graph, partitioning)
        assert auxiliary_memory_bytes(aux) > 0


class TestAdjacencyView:
    def test_a_fully_warm_view_stays_inside_its_byte_budget(self):
        """A 20 000-vertex power-law graph (181 331 edges) in one store,
        every node expanded once: at most 250 B/vertex (a dict of sets
        holding the same adjacency measures 1 138)."""
        graph = orkut_like(n=20_000, seed=1).graph
        store = GraphStore()
        vertices = sorted(graph.vertices())
        store.bulk_load(
            [(vertex, 1.0) for vertex in vertices],
            [(rel_id, u, v, False) for rel_id, (u, v) in enumerate(graph.edges())],
        )
        assert adjacency_view_bytes(store) < 100  # empty until read
        store.read_frontier(vertices, True)
        assert len(store.adjacency) == len(vertices)
        assert adjacency_view_bytes(store) / len(vertices) <= 250
