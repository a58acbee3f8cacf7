"""Tests for AuxiliaryData — the repartitioner's only state."""

import pytest

from repro.core.auxiliary import AuxiliaryData
from repro.exceptions import PartitioningError, VertexNotFoundError
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.metrics import edge_cut
from tests.conftest import make_random_graph


@pytest.fixture
def aux_pair():
    """A 30-vertex graph with its bootstrapped auxiliary data."""
    graph = make_random_graph(30, 60, seed=3)
    partitioning = HashPartitioner().partition(graph, 3)
    return graph, partitioning, AuxiliaryData.from_graph(graph, partitioning)


class TestBootstrap:
    def test_counters_match_graph(self, aux_pair):
        graph, partitioning, aux = aux_pair
        for vertex in graph.vertices():
            expected = {}
            for nbr in graph.neighbors(vertex):
                part = partitioning.partition_of(nbr)
                expected[part] = expected.get(part, 0) + 1
            assert dict(aux.neighbor_counts(vertex)) == expected
            assert aux.degree(vertex) == graph.degree(vertex)

    def test_partition_weights(self, aux_pair):
        graph, partitioning, aux = aux_pair
        for partition in range(3):
            expected = sum(
                graph.weight(v) for v in partitioning.vertices_in(partition)
            )
            assert aux.partition_weights[partition] == pytest.approx(expected)

    def test_edge_cut_matches_metric(self, aux_pair):
        graph, partitioning, aux = aux_pair
        assert aux.edge_cut() == edge_cut(graph, partitioning)

    def test_a_column_of_the_wrong_length_changes_nothing(self, aux_pair):
        graph, partitioning, _ = aux_pair
        column = partitioning.partitions_of(graph.vertices())
        aux = AuxiliaryData(3)
        with pytest.raises(PartitioningError):
            aux.bootstrap(graph, column[:-1])
        assert aux.num_vertices == 0
        aux.bootstrap(graph, column)
        assert aux.edge_cut() == edge_cut(graph, partitioning)

    def test_partition_column_roundtrip(self, aux_pair):
        _, partitioning, aux = aux_pair
        vertices = list(aux.vertices())
        column = aux.partitions_of(vertices)
        rebuilt = Partitioning.from_columns(vertices, column, aux.num_partitions)
        assert rebuilt == partitioning


class TestIncrementalMaintenance:
    def test_add_edge_increments_two_integers(self, aux_pair):
        graph, partitioning, aux = aux_pair
        u, v = 0, 29
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
            aux.remove_edge(u, v)
        before_u = dict(aux.neighbor_counts(u))
        aux.add_edge(u, v)
        after_u = dict(aux.neighbor_counts(u))
        pv = aux.partition_of(v)
        assert after_u.get(pv, 0) == before_u.get(pv, 0) + 1

    def test_remove_edge_inverse_of_add(self, aux_pair):
        _, _, aux = aux_pair
        before = dict(aux.neighbor_counts(5))
        aux.add_edge(5, 6)
        aux.remove_edge(5, 6)
        assert dict(aux.neighbor_counts(5)) == before

    def test_remove_edge_below_zero_rejected(self):
        aux = AuxiliaryData(2)
        aux.add_vertex(1, 0, 1.0)
        aux.add_vertex(2, 1, 1.0)
        with pytest.raises(PartitioningError):
            aux.remove_edge(1, 2)

    def test_weight_tracking(self, aux_pair):
        _, _, aux = aux_pair
        partition = aux.partition_of(3)
        before = aux.partition_weights[partition]
        aux.add_weight(3, 2.5)
        assert aux.weight_of(3) == pytest.approx(3.5)
        assert aux.partition_weights[partition] == pytest.approx(before + 2.5)

    def test_set_weight(self, aux_pair):
        _, _, aux = aux_pair
        aux.set_weight(3, 10.0)
        assert aux.weight_of(3) == 10.0

    def test_add_remove_vertex(self):
        aux = AuxiliaryData(2)
        aux.add_vertex(1, 0, 2.0)
        assert aux.partition_weights == [2.0, 0.0]
        aux.remove_vertex(1)
        assert aux.partition_weights == [0.0, 0.0]
        with pytest.raises(VertexNotFoundError):
            aux.partition_of(1)

    def test_remove_vertex_with_edges_rejected(self):
        aux = AuxiliaryData(2)
        aux.add_vertex(1, 0, 1.0)
        aux.add_vertex(2, 1, 1.0)
        aux.add_edge(1, 2)
        with pytest.raises(PartitioningError):
            aux.remove_vertex(1)

    def test_duplicate_vertex_rejected(self):
        aux = AuxiliaryData(2)
        aux.add_vertex(1, 0, 1.0)
        with pytest.raises(PartitioningError):
            aux.add_vertex(1, 1, 1.0)


class TestLogicalMove:
    def test_move_updates_everything(self, aux_pair):
        graph, _, aux = aux_pair
        vertex = 7
        source = aux.partition_of(vertex)
        target = (source + 1) % 3
        weight = aux.weight_of(vertex)
        source_before = aux.partition_weights[source]
        target_before = aux.partition_weights[target]

        returned = aux.apply_move(vertex, target, graph.neighbors(vertex))

        assert returned == source
        assert aux.partition_of(vertex) == target
        assert aux.partition_weights[source] == pytest.approx(source_before - weight)
        assert aux.partition_weights[target] == pytest.approx(target_before + weight)
        assert vertex in aux.vertices_in(target)
        assert vertex not in aux.vertices_in(source)

    def test_move_updates_neighbor_counters(self, aux_pair):
        graph, _, aux = aux_pair
        vertex = 7
        source = aux.partition_of(vertex)
        target = (source + 1) % 3
        neighbor = next(iter(graph.neighbors(vertex)))
        before = dict(aux.neighbor_counts(neighbor))
        aux.apply_move(vertex, target, graph.neighbors(vertex))
        after = dict(aux.neighbor_counts(neighbor))
        assert after.get(source, 0) == before.get(source, 0) - 1
        assert after.get(target, 0) == before.get(target, 0) + 1

    def test_noop_move(self, aux_pair):
        graph, _, aux = aux_pair
        source = aux.partition_of(7)
        before = dict(aux.neighbor_counts(7))
        aux.apply_move(7, source, graph.neighbors(7))
        assert dict(aux.neighbor_counts(7)) == before

    def test_move_consistency_against_rebuild(self, aux_pair):
        """After arbitrary moves, counters must equal a fresh bootstrap."""
        graph, partitioning, aux = aux_pair
        import random

        rng = random.Random(9)
        for _ in range(40):
            vertex = rng.randrange(30)
            target = rng.randrange(3)
            aux.apply_move(vertex, target, graph.neighbors(vertex))
            partitioning.move(vertex, target)
        fresh = AuxiliaryData.from_graph(graph, partitioning)
        for vertex in graph.vertices():
            assert dict(aux.neighbor_counts(vertex)) == dict(
                fresh.neighbor_counts(vertex)
            )
        assert aux.partition_weights == pytest.approx(fresh.partition_weights)


class TestBalanceQueries:
    def test_imbalance_factor_with_delta(self):
        aux = AuxiliaryData(2)
        aux.add_vertex(1, 0, 6.0)
        aux.add_vertex(2, 1, 4.0)
        # average 5; partition 0 factor 1.2; removing the vertex -> 0
        assert aux.imbalance_factor(0) == pytest.approx(1.2)
        assert aux.imbalance_factor(0, -6.0) == pytest.approx(0.0)
        assert aux.imbalance_factor(1, +6.0) == pytest.approx(2.0)

    def test_overloaded_underloaded(self):
        aux = AuxiliaryData(2)
        aux.add_vertex(1, 0, 12.0)
        aux.add_vertex(2, 1, 8.0)
        assert aux.is_overloaded(0, epsilon=1.1)
        assert aux.is_underloaded(1, epsilon=1.1)
        assert not aux.is_overloaded(0, epsilon=1.5)

    def test_empty_system(self):
        aux = AuxiliaryData(3)
        assert aux.max_imbalance() == 1.0
        assert aux.average_weight() == 0.0

    def test_memory_entries_sparse_bound(self, aux_pair):
        """Sparse counters never exceed the dense n*alpha bound that
        Theorem 2's amortized accounting is based on, nor 2m entries."""
        graph, _, aux = aux_pair
        counter_entries, weight_entries = aux.memory_entries()
        assert counter_entries <= min(
            2 * graph.num_edges, graph.num_vertices * aux.num_partitions
        )
        assert weight_entries == aux.num_partitions

    def test_invalid_partition_index(self):
        aux = AuxiliaryData(2)
        with pytest.raises(PartitioningError):
            aux.imbalance_factor(5)


def public_state(aux):
    """Every public query's answer, for before/after comparisons."""
    vertices = sorted(aux.vertices())
    partitions = range(aux.num_partitions)
    return {
        "partition_weights": list(aux.partition_weights),
        "capacities": list(aux.capacities),
        "num_vertices": aux.num_vertices,
        "partition_of": [aux.partition_of(v) for v in vertices],
        "weight_of": [aux.weight_of(v) for v in vertices],
        "neighbor_counts": [aux.neighbor_counts(v) for v in vertices],
        "heat_counts": [aux.heat_counts(v) for v in vertices],
        "degree": [aux.degree(v) for v in vertices],
        "external_degree": [aux.external_degree(v) for v in vertices],
        "vertices_in": [aux.vertices_in(p) for p in partitions],
        "boundary_vertices": [aux.boundary_vertices(p) for p in partitions],
        "boundary_sizes": aux.boundary_sizes(),
        "edge_cut": aux.edge_cut(),
        "max_imbalance": aux.max_imbalance(),
        "memory_entries": aux.memory_entries(),
    }


class TestMovesAreAllOrNothing:
    """A rejected ``apply_move`` / ``apply_moves`` leaves no trace.

    The dict-based implementation raised *after* moving the vertex, both
    partition weights and the counters of the neighbors listed before
    the bad one, and an untracked neighbor surfaced as a bare ``KeyError``.
    """

    @pytest.fixture
    def aux(self):
        """Edges 0-1 (both on partition 0) and 2-3 (both on partition 1)."""
        aux = AuxiliaryData(3)
        for vertex, partition, weight in [(0, 0, 1.5), (1, 0, 2.0), (2, 1, 4.0), (3, 1, 0.5)]:
            aux.add_vertex(vertex, partition, weight)
        aux.add_edge(0, 1)
        aux.add_edge(2, 3)
        aux.attach_heat({(0, 1): 0.75, (2, 3): 1.25})
        return aux

    @staticmethod
    def assert_rejected(aux, error, call, *args):
        before = public_state(aux)
        with pytest.raises(error):
            call(*args)
        assert public_state(aux) == before

    def test_non_neighbor_in_the_list(self, aux):
        # Vertex 2 is no neighbor of 0: its count toward partition 0 is
        # zero and cannot be decremented.
        self.assert_rejected(aux, PartitioningError, aux.apply_move, 0, 2, [1, 2])

    def test_untracked_neighbor(self, aux):
        self.assert_rejected(aux, VertexNotFoundError, aux.apply_move, 0, 2, [1, 99])

    def test_untracked_vertex(self, aux):
        self.assert_rejected(aux, VertexNotFoundError, aux.apply_move, 99, 2, [])

    def test_target_out_of_range(self, aux):
        self.assert_rejected(aux, PartitioningError, aux.apply_move, 0, 3, [1])

    def test_bad_move_poisons_the_whole_batch(self, aux):
        # The first move is valid; the second lists a non-neighbor.
        self.assert_rejected(
            aux, PartitioningError, aux.apply_moves, [2, 0], [2, 1], ([3, 1, 3], [1, 2])
        )

    def test_vertex_twice_in_a_batch(self, aux):
        self.assert_rejected(
            aux, PartitioningError, aux.apply_moves, [0, 0], [1, 2], ([1, 1], [1, 1])
        )

    def test_batch_equals_the_moves_one_by_one(self, aux):
        import copy

        one_by_one = copy.deepcopy(aux)
        one_by_one.apply_move(1, 2, [0])
        one_by_one.apply_move(2, 0, [3])
        one_by_one.apply_move(0, 0, [1])  # a no-op move
        aux.apply_moves([1, 2, 0], [2, 0, 0], ([0, 3, 1], [1, 1, 1]))
        assert public_state(aux) == public_state(one_by_one)
        assert aux.neighbor_counts(0) == {2: 1} and aux.neighbor_counts(3) == {0: 1}
        assert aux.heat_counts(0) == {2: 0.75}


class TestNonIntegralIds:
    """A bool, float or string is no vertex id.  Before, ``np.asarray(...,
    dtype=int64)`` coerced ``1.5``, ``True`` and ``"1"`` in a batch to
    vertex 1, a scalar query with ``1.0`` raised a bare ``TypeError`` on
    identity ids, and dict equality (``1.0 == True == 1``) found vertex 1
    on mapped ids."""

    @pytest.fixture(params=["identity", "mapped"])
    def aux(self, request):
        """Path 0-1-2 with vertex 1 on partition 1, the rest on 0 (plus an
        isolated vertex 10 that switches to the mapped id path)."""
        aux = AuxiliaryData(2)
        for vertex, partition in [(0, 0), (1, 1), (2, 0)]:
            aux.add_vertex(vertex, partition, 1.0)
        if request.param == "mapped":
            aux.add_vertex(10, 0, 1.0)
        aux.add_edge(0, 1)
        aux.add_edge(1, 2)
        return aux

    @pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
    def test_moving_vertex(self, aux, bad):
        TestMovesAreAllOrNothing.assert_rejected(
            aux, VertexNotFoundError, aux.apply_moves, [bad], [0], ([0, 2], [2])
        )

    @pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
    def test_neighbor(self, aux, bad):
        # The check is one per batch dtype: numpy turns a list mixing ints
        # and bools into ints.
        TestMovesAreAllOrNothing.assert_rejected(
            aux, VertexNotFoundError, aux.apply_moves, [0], [1], ([bad], [1])
        )

    @pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "str"])
    def test_scalar_queries(self, aux, bad):
        for query in (aux.partition_of, aux.weight_of, aux.neighbor_counts, aux.degree):
            with pytest.raises(VertexNotFoundError):
                query(bad)
        TestMovesAreAllOrNothing.assert_rejected(
            aux, VertexNotFoundError, aux.apply_move, bad, 0, [0, 2]
        )
        assert aux.partition_of(1) == 1


def row_edge_cut(aux):
    """Edge-cut by the per-row formula ``sum d_ex(v) / 2``."""
    return sum(aux.external_degree(vertex) for vertex in aux.vertices()) // 2


def mapped_aux_pair(offset):
    """A random graph with its ids shifted by ``offset``, bootstrapped."""
    source = make_random_graph(200, 600, seed=8)
    graph = SocialGraph()
    for vertex in source.vertices():
        graph.add_vertex(vertex + offset)
    for u, v in source.edges():
        graph.add_edge(u + offset, v + offset)
    partitioning = HashPartitioner(salt=8).partition(graph, 5)
    return graph, partitioning, AuxiliaryData.from_graph(graph, partitioning)


class TestEdgeCut:
    """``edge_cut`` is two reductions over the counters; it must equal
    the row formula whatever the id map and however many rows are free."""

    @pytest.mark.parametrize("offset", [0, -70], ids=["dense", "id-mapped"])
    def test_equals_row_formula(self, offset):
        graph, partitioning, aux = mapped_aux_pair(offset)
        assert (aux._rows is None) == (offset == 0)
        cut = edge_cut(graph, partitioning)
        assert cut > 0 and aux.edge_cut() == row_edge_cut(aux) == cut

    @pytest.mark.parametrize("offset", [0, -70], ids=["dense", "id-mapped"])
    def test_equals_row_formula_with_free_rows(self, offset):
        graph, partitioning, aux = mapped_aux_pair(offset)
        for vertex in [offset + 3, offset + 50, offset + 199]:
            for neighbor in list(graph.neighbors(vertex)):
                graph.remove_edge(vertex, neighbor)
                aux.remove_edge(vertex, neighbor)
            graph.remove_vertex(vertex)
            partitioning.remove(vertex)
            aux.remove_vertex(vertex)
        assert aux.num_vertices < aux._used  # rows are free
        cut = edge_cut(graph, partitioning)
        assert cut > 0 and aux.edge_cut() == row_edge_cut(aux) == cut
        assert type(aux.edge_cut()) is int


class TestRows:
    def test_sparse_id_churn_reuses_rows(self):
        aux = AuxiliaryData(2)
        for i in range(1000):
            aux.add_vertex(10 * i + 3, i % 2, 1.0)
            aux.remove_vertex(10 * i + 3)
        aux.add_vertex(7, 0, 1.0)
        assert len(aux._partition) == 16  # the first allocation, never grown
        assert aux.num_vertices == 1 and list(aux.vertices()) == [7]

    def test_reused_row_starts_clean(self):
        aux = AuxiliaryData(2)
        aux.add_vertex(10, 0, 1.0)
        aux.add_vertex(20, 1, 1.0)
        # Heat on a pair that is not an edge never gets dropped by
        # remove_edge; it must not leak to the row's next tenant.
        aux.attach_heat({(10, 20): 2.0})
        assert aux.heat_counts(10) == {1: 2.0}
        aux.remove_vertex(10)
        aux.add_vertex(30, 0, 1.0)
        assert aux.heat_counts(30) == {} and aux.neighbor_counts(30) == {}

    def test_identity_ids_keep_no_per_vertex_objects(self):
        aux = AuxiliaryData(2)
        for vertex in range(40):
            aux.add_vertex(vertex, vertex % 2, 1.0)
        aux.remove_vertex(5)
        aux.add_vertex(5, 1, 2.0)  # back into its own row
        assert aux._rows is None and aux.partition_of(5) == 1
        aux.add_vertex(1000, 0, 1.0)  # a gap: the map becomes explicit
        assert aux._rows is not None
        assert sorted(aux.vertices()) == list(range(40)) + [1000]

    def test_copies_reopen_their_cell_views(self):
        import copy
        import pickle

        aux = AuxiliaryData(2)
        aux.add_vertex(0, 0, 1.0)
        aux.add_vertex(1, 1, 1.0)
        aux.add_edge(0, 1)
        for clone in (copy.deepcopy(aux), pickle.loads(pickle.dumps(aux))):
            clone.add_weight(0, 2.0)
            clone.remove_edge(0, 1)
            assert clone.weight_of(0) == 3.0 and clone.neighbor_counts(0) == {}
        assert aux.weight_of(0) == 1.0 and aux.neighbor_counts(0) == {1: 1}
