"""Unit tests for the SocialGraph substrate."""

import pytest

from repro.exceptions import (
    DuplicateVertexError,
    EdgeNotFoundError,
    GraphError,
    VertexNotFoundError,
)
from repro.graph.adjacency import SocialGraph


class TestVertices:
    def test_add_vertex(self):
        graph = SocialGraph()
        graph.add_vertex(1)
        assert 1 in graph
        assert graph.num_vertices == 1
        assert graph.weight(1) == 1.0

    def test_add_vertex_with_weight(self):
        graph = SocialGraph()
        graph.add_vertex(1, weight=3.5)
        assert graph.weight(1) == 3.5

    def test_duplicate_vertex_rejected(self):
        graph = SocialGraph()
        graph.add_vertex(1)
        with pytest.raises(DuplicateVertexError):
            graph.add_vertex(1)

    def test_negative_weight_rejected(self):
        graph = SocialGraph()
        with pytest.raises(GraphError):
            graph.add_vertex(1, weight=-1.0)

    def test_remove_vertex_removes_incident_edges(self):
        graph = SocialGraph()
        for v in range(3):
            graph.add_vertex(v)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.remove_vertex(1)
        assert 1 not in graph
        assert graph.num_edges == 0
        assert not graph.has_edge(0, 1)
        assert 1 not in graph.neighbors(0)

    def test_remove_missing_vertex(self):
        graph = SocialGraph()
        with pytest.raises(VertexNotFoundError):
            graph.remove_vertex(99)

    def test_weight_updates(self):
        graph = SocialGraph()
        graph.add_vertex(1, weight=2.0)
        graph.set_weight(1, 5.0)
        assert graph.weight(1) == 5.0
        assert graph.total_weight() == 5.0

    def test_set_weight_missing_vertex(self):
        graph = SocialGraph()
        with pytest.raises(VertexNotFoundError):
            graph.set_weight(1, 5.0)

    def test_set_negative_weight_rejected(self):
        graph = SocialGraph()
        graph.add_vertex(1)
        with pytest.raises(GraphError):
            graph.set_weight(1, -0.5)

    def test_weight_of_missing_vertex(self):
        graph = SocialGraph()
        with pytest.raises(VertexNotFoundError):
            graph.weight(7)


class TestEdges:
    def test_add_edge(self, triangle_graph):
        assert triangle_graph.num_edges == 3
        assert triangle_graph.has_edge(0, 1)
        assert triangle_graph.has_edge(1, 0)  # undirected

    def test_self_loop_rejected(self):
        graph = SocialGraph()
        graph.add_vertex(1)
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_duplicate_edge_rejected(self, triangle_graph):
        with pytest.raises(GraphError):
            triangle_graph.add_edge(0, 1)

    def test_edge_to_missing_vertex(self):
        graph = SocialGraph()
        graph.add_vertex(1)
        with pytest.raises(VertexNotFoundError):
            graph.add_edge(1, 2)
        with pytest.raises(VertexNotFoundError):
            graph.add_edge(2, 1)

    def test_remove_edge(self, triangle_graph):
        triangle_graph.remove_edge(0, 1)
        assert not triangle_graph.has_edge(0, 1)
        assert triangle_graph.num_edges == 2
        assert triangle_graph.degree(0) == 1

    def test_remove_missing_edge(self, triangle_graph):
        triangle_graph.remove_edge(0, 1)
        with pytest.raises(EdgeNotFoundError):
            triangle_graph.remove_edge(0, 1)

    def test_edges_iterates_each_once(self, triangle_graph):
        edges = list(triangle_graph.edges())
        assert len(edges) == 3
        normalized = {frozenset(edge) for edge in edges}
        assert normalized == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({0, 2}),
        }

    def test_degree_and_neighbors(self, triangle_graph):
        assert triangle_graph.degree(0) == 2
        assert triangle_graph.neighbors(0) == {1, 2}

    def test_neighbors_missing_vertex(self):
        graph = SocialGraph()
        with pytest.raises(VertexNotFoundError):
            graph.neighbors(1)


class TestConstruction:
    def test_from_edges(self):
        graph = SocialGraph.from_edges([(1, 2), (2, 3), (1, 2), (4, 4)])
        assert graph.num_vertices == 3
        assert graph.num_edges == 2

    def test_from_edges_with_isolated_vertices(self):
        graph = SocialGraph.from_edges([(1, 2)], vertices=[1, 2, 9])
        assert 9 in graph
        assert graph.degree(9) == 0

    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.remove_edge(0, 1)
        clone.set_weight(2, 10.0)
        assert triangle_graph.has_edge(0, 1)
        assert triangle_graph.weight(2) == 1.0

    def test_subgraph(self, triangle_graph):
        sub = triangle_graph.subgraph([0, 1])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert sub.has_edge(0, 1)

    def test_subgraph_missing_vertex(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            triangle_graph.subgraph([0, 99])


class TestComponents:
    def test_single_component(self, triangle_graph):
        components = list(triangle_graph.connected_components())
        assert components == [{0, 1, 2}]

    def test_multiple_components(self):
        graph = SocialGraph.from_edges([(0, 1), (2, 3)])
        components = sorted(
            graph.connected_components(), key=lambda c: min(c)
        )
        assert components == [{0, 1}, {2, 3}]

    def test_isolated_vertex_is_component(self):
        graph = SocialGraph()
        graph.add_vertex(5)
        assert list(graph.connected_components()) == [{5}]

    def test_len_and_repr(self, triangle_graph):
        assert len(triangle_graph) == 3
        text = repr(triangle_graph)
        assert "vertices=3" in text
        assert "edges=3" in text
