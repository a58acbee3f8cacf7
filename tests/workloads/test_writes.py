"""Tests for graph-evolution write generation."""

from repro.graph.adjacency import SocialGraph
from repro.workloads.queries import InsertEdge, InsertVertex
from repro.workloads.writes import GraphEvolution
from tests.conftest import make_random_graph


class TestGraphEvolution:
    def test_new_vertices_get_fresh_ids(self):
        graph = make_random_graph(10, 15, seed=1)
        evolution = GraphEvolution(graph, seed=2)
        ops = list(evolution.operations(40))
        ids = [op.vertex for op in ops if isinstance(op, InsertVertex)]
        assert len(ids) >= 2
        assert len(set(ids)) == len(ids)
        assert min(ids) > max(graph.vertices())

    def test_edges_are_valid_non_duplicates(self):
        graph = make_random_graph(30, 50, seed=3)
        evolution = GraphEvolution(graph, seed=4)
        for op in evolution.operations(30):
            # Apply so subsequent ops see the updated graph.
            if isinstance(op, InsertEdge):
                assert op.u != op.v
                assert not graph.has_edge(op.u, op.v)
                graph.add_edge(op.u, op.v)
            else:
                graph.add_vertex(op.vertex, weight=op.weight)

    def test_triadic_closure_bias(self):
        """Most new edges close a 2-path: ``TRIADIC_FRACTION`` of them try
        triadic closure first, and random pairs rarely close one."""
        graph = make_random_graph(40, 120, seed=5)
        evolution = GraphEvolution(graph, seed=6)
        closures = 0
        edges = 0
        for op in evolution.operations(60):
            if not isinstance(op, InsertEdge):
                graph.add_vertex(op.vertex, weight=op.weight)
                continue
            edges += 1
            if set(graph.neighbors(op.u)) & set(graph.neighbors(op.v)):
                closures += 1
            graph.add_edge(op.u, op.v)
        assert edges > 0
        assert closures / edges > 0.7

    def test_empty_graph_emits_vertices(self):
        graph = SocialGraph()
        evolution = GraphEvolution(graph, seed=7)
        op = evolution.next_operation()
        assert isinstance(op, InsertVertex)

    def test_unapplied_edge_is_not_handed_out_twice(self):
        """A concurrent client may still hold an emitted edge: the next
        write must not be the same pair again."""
        graph = SocialGraph.from_edges([(0, 1), (1, 2)])
        evolution = GraphEvolution(graph, seed=1)
        ops = list(evolution.operations(12))
        edges = [op for op in ops if isinstance(op, InsertEdge)]
        # (0, 2) is the only pair left: it is handed out once, and every
        # other write inserts a vertex.
        assert len(edges) == 1
        assert {edges[0].u, edges[0].v} == {0, 2}
        assert [op.vertex for op in ops if isinstance(op, InsertVertex)] == list(
            range(3, 14)
        )

    def test_applied_trace_is_unchanged(self):
        """Applied after each operation, the generator hands out exactly
        the trace it did before it remembered emitted pairs."""
        graph = make_random_graph(30, 50, seed=3)
        evolution = GraphEvolution(graph, seed=4)
        trace = []
        for op in evolution.operations(24):
            if isinstance(op, InsertVertex):
                graph.add_vertex(op.vertex, weight=op.weight)
                trace.append(("vertex", op.vertex))
            else:
                graph.add_edge(op.u, op.v)
                trace.append(("edge", op.u, op.v))
        assert trace == [
            ("edge", 12, 10), ("edge", 8, 19), ("edge", 9, 18),
            ("vertex", 30), ("edge", 29, 26), ("edge", 13, 12),
            ("edge", 1, 17), ("edge", 13, 25), ("edge", 17, 21),
            ("edge", 10, 13), ("edge", 23, 21), ("edge", 9, 5),
            ("edge", 9, 4), ("edge", 5, 13), ("edge", 14, 21),
            ("edge", 1, 27), ("edge", 6, 26), ("edge", 13, 26),
            ("edge", 1, 28), ("vertex", 31), ("vertex", 32),
            ("edge", 25, 9), ("edge", 20, 23), ("edge", 12, 2),
        ]
