"""Unit tests for the CSR substrate: CompactGraph and GraphBuilder."""

import numpy as np
import pytest

from repro.analysis.memory import measure_memory
from repro.exceptions import (
    DuplicateVertexError,
    GraphError,
    VertexNotFoundError,
)
from repro.graph.adjacency import SocialGraph
from repro.graph.compact import CompactGraph, GraphBuilder, GraphRead
from repro.graph.generators import orkut_like, powerlaw_edge_stream


class TestFromEdges:
    def test_basic_triangle(self):
        g = CompactGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert len(g) == 3
        assert g.degree(1) == 2

    def test_silent_dedup_both_orientations(self):
        g = CompactGraph.from_edges([(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.num_edges == 2
        assert list(g.neighbors_array(1)) == [0, 2]

    def test_self_loops_skipped(self):
        g = CompactGraph.from_edges([(0, 0), (0, 1), (1, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_isolated_vertices_via_vertices_arg(self):
        g = CompactGraph.from_edges([(0, 1)], vertices=[0, 1, 2, 3])
        assert g.num_vertices == 4
        assert g.degree(3) == 0
        assert list(g.neighbors_array(3)) == []

    def test_empty(self):
        g = CompactGraph.from_edges([])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.vertices()) == []
        assert list(g.edges()) == []


class TestIdentityAndMappedIds:
    def test_contiguous_ids_use_identity_mapping(self):
        g = CompactGraph.from_edges([(0, 1), (1, 2)])
        assert g.ids_column is None
        assert list(g.vertices()) == [0, 1, 2]
        assert g.index_of(2) == 2

    def test_non_contiguous_ids_are_mapped(self):
        g = CompactGraph.from_edges([(100, 7), (7, 42)])
        assert g.ids_column is not None
        # builder vertex order is sorted by ID
        assert list(g.vertices()) == [7, 42, 100]
        assert sorted(g.neighbors_array(7).tolist()) == [42, 100]
        assert g.has_edge(100, 7) and g.has_edge(7, 42)
        assert not g.has_edge(100, 42)
        assert g.degree(7) == 2

    def test_unknown_vertex_raises(self):
        g = CompactGraph.from_edges([(0, 1)])
        with pytest.raises(VertexNotFoundError):
            g.degree(5)
        with pytest.raises(VertexNotFoundError):
            g.neighbors_array(-1)
        assert not g.has_edge(0, 99)
        assert 99 not in g
        assert 1 in g

    @pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("mapped", [False, True], ids=["identity", "mapped"])
    def test_non_integral_id_is_no_vertex(self, bad, mapped):
        """``True``, ``1.0`` and ``"1"`` are not vertex 1, as the builder
        already holds (before, ``True`` read vertex 1's row on identity
        ids, and ``int()`` mapped all three to vertex 1 on mapped ids)."""
        g = CompactGraph.from_edges([(0, 1), (1, 2)] + ([(1, 9)] if mapped else []))
        assert (g.ids_column is not None) == mapped
        for read in (g.neighbors_array, g.degree, g.weight_of, g.index_of):
            with pytest.raises(VertexNotFoundError):
                read(bad)
        with pytest.raises(VertexNotFoundError):
            g.neighbor_batch([bad])
        assert bad not in g and not g.has_edge(bad, 0)
        assert list(g.neighbors_array(np.int64(1))) == ([0, 2, 9] if mapped else [0, 2])


class TestNeighborBatch:
    @pytest.mark.parametrize("mapped", [False, True], ids=["identity", "mapped"])
    def test_csr_batch_is_the_rows_concatenated(self, mapped):
        social = orkut_like(n=120, seed=4).graph
        if mapped:
            social = SocialGraph.from_edges(
                [(3 * u + 7, 3 * v + 7) for u, v in social.edges()],
                vertices=[3 * v + 7 for v in social.vertices()],
            )
        g = CompactGraph.from_social(social)
        assert (g.ids_column is not None) == mapped
        batch = list(g.vertices())[::-7] + [next(iter(g.vertices()))]
        ids, lengths = g.neighbor_batch(batch)
        assert ids.dtype == np.int64 and lengths.dtype == np.int64
        assert lengths.tolist() == [g.degree(v) for v in batch]
        assert ids.tolist() == [int(n) for v in batch for n in g.neighbors_array(v)]
        assert [len(column) for column in g.neighbor_batch([])] == [0, 0]

    def test_social_batch_keeps_each_sets_order(self):
        social = orkut_like(n=120, seed=4).graph
        batch = list(social.vertices())[5::9]
        ids, lengths = social.neighbor_batch(batch)
        assert ids.dtype == np.int64 and lengths.dtype == np.int64
        assert lengths.tolist() == [social.degree(v) for v in batch]
        assert ids.tolist() == [n for v in batch for n in social.neighbors(v)]

    @pytest.mark.parametrize("substrate", ["social", "csr", "csr-mapped"])
    def test_unknown_vertex_raises(self, substrate):
        edges = [(0, 1), (1, 2)] if substrate != "csr-mapped" else [(4, 8), (8, 12)]
        g = (SocialGraph if substrate == "social" else CompactGraph).from_edges(edges)
        with pytest.raises(VertexNotFoundError):
            g.neighbor_batch([edges[0][0], 99])


class TestReadSurface:
    def test_rows_are_sorted(self):
        g = CompactGraph.from_edges([(0, 3), (0, 1), (0, 2), (2, 1)])
        assert list(g.neighbors_array(0)) == [1, 2, 3]
        nbr = g.neighbor_indices
        indptr = g.indptr
        for i in range(g.num_vertices):
            row = nbr[indptr[i] : indptr[i + 1]]
            assert list(row) == sorted(row)

    def test_has_edge_binary_search(self):
        edges = [(0, v) for v in range(1, 50)]
        g = CompactGraph.from_edges(edges)
        assert all(g.has_edge(0, v) for v in range(1, 50))
        assert all(g.has_edge(v, 0) for v in range(1, 50))
        assert not g.has_edge(1, 2)

    def test_edges_yields_each_once(self):
        pairs = [(0, 1), (1, 2), (0, 2), (2, 3)]
        g = CompactGraph.from_edges(pairs)
        assert sorted(g.edges()) == sorted(pairs)

    def test_neighbors_alias(self):
        g = CompactGraph.from_edges([(0, 1)])
        assert list(g.neighbors(0)) == list(g.neighbors_array(0))

    def test_both_substrates_satisfy_protocol(self):
        compact = CompactGraph.from_edges([(0, 1)])
        social = SocialGraph.from_edges([(0, 1)])
        assert isinstance(compact, GraphRead)
        assert isinstance(social, GraphRead)


class TestWeights:
    def test_default_weight(self):
        g = CompactGraph.from_edges([(0, 1)], default_weight=2.5)
        assert g.weight_of(0) == 2.5
        assert g.weight(1) == 2.5  # SocialGraph-compatible alias
        assert g.total_weight() == 5.0

    def test_set_weight(self):
        g = CompactGraph.from_edges([(0, 1)])
        g.set_weight(0, 4.0)
        assert g.weight_of(0) == 4.0
        with pytest.raises(GraphError):
            g.set_weight(0, -1.0)
        assert g.weight_of(0) == 4.0

    def test_weights_column_in_index_order(self):
        builder = GraphBuilder()
        builder.add_edge(10, 20)
        builder.set_weight(20, 9.0)
        g = builder.finalize()
        assert g.weights_column.tolist() == [1.0, 9.0]


class TestGraphBuilder:
    def test_add_vertex_duplicate_raises(self):
        builder = GraphBuilder()
        builder.add_vertex(1)
        with pytest.raises(DuplicateVertexError):
            builder.add_vertex(1)

    def test_ensure_vertex_idempotent(self):
        builder = GraphBuilder()
        builder.ensure_vertex(1, weight=3.0)
        builder.ensure_vertex(1)
        g = builder.finalize()
        assert g.num_vertices == 1
        assert g.weight_of(1) == 3.0

    def test_set_weight_registers_vertex(self):
        builder = GraphBuilder()
        builder.set_weight(5, 2.0)
        g = builder.finalize()
        assert list(g.vertices()) == [5]
        assert g.weight_of(5) == 2.0

    def test_negative_weight_rejected(self):
        builder = GraphBuilder()
        with pytest.raises(GraphError):
            builder.add_vertex(0, weight=-1.0)
        with pytest.raises(GraphError):
            builder.set_weight(0, -2.0)

    def test_batch_ingestion_matches_scalar(self):
        scalar = GraphBuilder()
        for u, v in [(0, 1), (1, 2), (2, 0), (2, 2)]:
            scalar.add_edge(u, v)
        batched = GraphBuilder()
        batched.add_edge_batch(
            np.array([0, 1, 2, 2], dtype=np.int64),
            np.array([1, 2, 0, 2], dtype=np.int64),
        )
        a, b = scalar.finalize(), batched.finalize()
        assert list(a.vertices()) == list(b.vertices())
        assert sorted(a.edges()) == sorted(b.edges())

    def test_batch_shape_mismatch_raises(self):
        builder = GraphBuilder()
        with pytest.raises(GraphError):
            builder.add_edge_batch(np.array([0, 1]), np.array([1]))
        with pytest.raises(GraphError):
            builder.add_edge_batch(
                np.array([[0, 1]]), np.array([[1, 2]])
            )

    def test_buffered_edges_counts_before_dedup(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1)
        builder.add_edge(1, 0)
        builder.add_edge_batch(np.array([2]), np.array([3]))
        assert builder.buffered_edges == 3
        assert builder.finalize().num_edges == 2

    def test_scalar_chunk_compaction(self):
        builder = GraphBuilder()
        count = GraphBuilder.SCALAR_CHUNK + 10
        for i in range(count):
            builder.add_edge(i, i + 1)
        assert builder.buffered_edges == count
        g = builder.finalize()
        assert g.num_edges == count
        assert g.num_vertices == count + 1

    def test_non_integer_batch_ids_rejected(self):
        builder = GraphBuilder()
        with pytest.raises(GraphError, match="integer"):
            builder.add_edge_batch(np.array([0.5, 1.7]), np.array([2.2, 3.9]))
        with pytest.raises(GraphError, match="integer"):
            builder.add_edge_batch(np.array([0, 1]), np.array([2.0, 3.0]))
        with pytest.raises(GraphError, match="integer"):
            builder.add_edge_batch(np.array([True]), np.array([False]))
        assert builder.buffered_edges == 0
        builder.add_edge_batch(
            np.array([0, 1], dtype=np.uint32), np.array([1, 2], dtype=np.int16)
        )
        assert builder.finalize().num_edges == 2

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: b.add_edge(0.5, 2),
            lambda b: b.add_edge(0, 2.0),
            lambda b: b.add_vertex(1.5),
            lambda b: b.ensure_vertex("3"),
            lambda b: b.set_weight(0.5, 1.0),
        ],
        ids=["add_edge", "add_edge_float_valued", "add_vertex", "ensure_vertex",
             "set_weight"],
    )
    def test_non_integral_scalar_ids_rejected(self, call):
        builder = GraphBuilder()
        with pytest.raises(GraphError, match="integers"):
            call(builder)
        builder.add_edge(np.int64(0), np.int32(1))  # numpy integers are fine
        g = builder.finalize()
        assert list(g.vertices()) == [0, 1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        builder = GraphBuilder()
        with pytest.raises(GraphError, match="finite"):
            builder.set_weight(0, bad)
        with pytest.raises(GraphError, match="finite"):
            builder.add_vertex(1, weight=bad)
        with pytest.raises(GraphError, match="finite"):
            builder.ensure_vertex(2, weight=bad)
        assert builder.finalize().num_vertices == 0  # nothing half-registered
        g = CompactGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError, match="finite"):
            g.set_weight(0, bad)
        assert g.weight_of(0) == 1.0

    def test_finalized_builder_rejects_further_use(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1)
        builder.finalize()
        with pytest.raises(GraphError):
            builder.add_edge(1, 2)
        with pytest.raises(GraphError):
            builder.finalize()


class TestConverters:
    def test_round_trip_contiguous(self):
        dataset = orkut_like(n=300, seed=3)
        social = dataset.graph
        compact = CompactGraph.from_social(social)
        assert compact.ids_column is None
        back = social_equal(compact.to_social(), social)
        assert back

    def test_round_trip_non_contiguous(self):
        social = SocialGraph()
        for vertex in [9, 2, 40]:
            social.add_vertex(vertex, weight=float(vertex))
        social.add_edge(9, 2)
        social.add_edge(2, 40)
        compact = CompactGraph.from_social(social)
        # from_social preserves the dict-of-sets insertion order
        assert list(compact.vertices()) == [9, 2, 40]
        assert compact.weight_of(40) == 40.0
        assert sorted(compact.neighbors_array(2).tolist()) == [9, 40]
        assert social_equal(compact.to_social(), social)

    def test_from_social_preserves_weights(self):
        social = SocialGraph.from_edges([(0, 1), (1, 2)])
        social.set_weight(1, 7.0)
        compact = CompactGraph.from_social(social)
        assert compact.weight_of(1) == 7.0
        assert compact.total_weight() == social.total_weight()


def social_equal(a: SocialGraph, b: SocialGraph) -> bool:
    if list(a.vertices()) != list(b.vertices()):
        return False
    for vertex in a.vertices():
        if a.weight(vertex) != b.weight(vertex):
            return False
        if set(a.neighbors(vertex)) != set(b.neighbors(vertex)):
            return False
    return a.num_edges == b.num_edges


class TestMemoryFootprint:
    def test_memory_bytes_matches_arrays(self):
        g = CompactGraph.from_edges([(0, 1), (1, 2)])
        expected = (
            g.indptr.nbytes + g.neighbor_indices.nbytes + g.weights_column.nbytes
        )
        assert g.memory_bytes() == expected

    def test_mapped_graph_charges_id_column(self):
        g = CompactGraph.from_edges([(10, 20)])
        assert g.ids_column is not None
        assert g.memory_bytes() > (
            g.indptr.nbytes + g.neighbor_indices.nbytes + g.weights_column.nbytes
        )

    def test_finalize_working_set_per_buffered_edge(self):
        """finalize's tracemalloc peak stays within 72 bytes per buffered
        edge on a 20 000-vertex stream (about 26 today; the np.unique +
        lexsort build needed 123).  Allocation sizes are deterministic,
        so this is a count, not a timing."""
        builder = GraphBuilder()
        builder.ensure_vertex(0)
        for src, dst in powerlaw_edge_stream(20_000, seed=3):
            builder.add_edge_batch(src, dst)
        buffered = builder.buffered_edges
        graph, _, peak = measure_memory(builder.finalize)
        assert graph.num_vertices == 20_000
        assert peak / buffered <= 72, f"{peak / buffered:.1f} bytes per buffered edge"
