"""Tests for the random hash-based partitioner."""

import pytest

from repro.exceptions import InvalidPartitionError
from repro.graph.adjacency import SocialGraph
from repro.graph.compact import CompactGraph
from repro.graph.generators import compact_powerlaw_graph
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.metrics import imbalance_factor
from tests.conftest import make_random_graph


def csr_identity():
    graph = compact_powerlaw_graph(600, seed=4)
    assert graph.ids_column is None
    return graph


def csr_mapped():
    source = make_random_graph(300, 600, seed=5)
    graph = SocialGraph()
    for vertex in source.vertices():  # sparse, shuffled, some negative ids
        graph.add_vertex(vertex * 7919 - 1_000_000)
    for u, v in source.edges():
        graph.add_edge(u * 7919 - 1_000_000, v * 7919 - 1_000_000)
    compact = CompactGraph.from_social(graph)
    assert compact.ids_column is not None and compact.ids_column.min() < 0
    return compact


def social_wide_ids():
    """Ids ``place`` reduces mod 2^64: negative, 2^63 and up, 2^64 and up."""
    graph = SocialGraph()
    for vertex in [5, -1, -(2**63), 2**63, 2**64, 2**64 + 5, -(2**70), 10**30, 0]:
        graph.add_vertex(vertex)
    graph.add_edge(5, 2**64)
    return graph


def assign_loop(partitioner, graph, num_partitions):
    """The per-vertex placement the column path replaced."""
    partitioning = Partitioning(num_partitions)
    for vertex in graph.vertices():
        partitioning.assign(vertex, partitioner.place(vertex, num_partitions))
    return partitioning


class TestPlacement:
    def test_deterministic(self):
        partitioner = HashPartitioner(salt=3)
        assert all(
            partitioner.place(v, 8) == partitioner.place(v, 8) for v in range(100)
        )

    def test_independent_of_graph(self, small_graph):
        partitioner = HashPartitioner(salt=1)
        partitioning = partitioner.partition(small_graph, 4)
        for vertex in small_graph.vertices():
            assert partitioning.partition_of(vertex) == partitioner.place(vertex, 4)

    def test_salt_changes_placement(self):
        a = HashPartitioner(salt=1)
        b = HashPartitioner(salt=2)
        placements_a = [a.place(v, 8) for v in range(200)]
        placements_b = [b.place(v, 8) for v in range(200)]
        assert placements_a != placements_b

    def test_range(self):
        partitioner = HashPartitioner()
        assert all(0 <= partitioner.place(v, 5) < 5 for v in range(1000))

    @pytest.mark.parametrize("num_partitions", [0, -2])
    def test_no_partitions_is_a_typed_error(self, num_partitions):
        """``place(v, 0)`` raised a bare ZeroDivisionError and ``place(v,
        -2)`` returned an out-of-range partition."""
        partitioner = HashPartitioner(salt=3)
        with pytest.raises(InvalidPartitionError):
            partitioner.place(7, num_partitions)
        with pytest.raises(InvalidPartitionError):
            partitioner.partition(csr_identity(), num_partitions)


class TestColumnParity:
    """``partition`` hashes a column; it must equal ``place`` per vertex
    and leave what ``assign`` per vertex in graph order leaves."""

    @pytest.mark.parametrize(
        "make_graph",
        [csr_identity, csr_mapped, social_wide_ids],
        ids=["csr-identity", "csr-mapped", "social-wide-ids"],
    )
    @pytest.mark.parametrize("salt", [0, 7, -1, 2**40])
    @pytest.mark.parametrize("num_partitions", [1, 3, 8, 16])
    def test_column_equals_assign_loop(self, make_graph, salt, num_partitions):
        graph = make_graph()
        partitioner = HashPartitioner(salt=salt)
        column = partitioner.partition(graph, num_partitions)
        loop = assign_loop(partitioner, graph, num_partitions)
        for vertex in graph.vertices():
            assert column.partition_of(vertex) == partitioner.place(
                vertex, num_partitions
            )
        assert list(column.items()) == list(loop.items())
        for partition in range(num_partitions):
            assert list(column.vertices_in(partition)) == list(
                loop.vertices_in(partition)
            )
        assert all(type(partition) is int for _, partition in column.items())


class TestDistribution:
    def test_roughly_uniform(self):
        """Hash partitioning's selling point: good load balance."""
        graph = make_random_graph(2000, 0, seed=0)
        partitioning = HashPartitioner(salt=7).partition(graph, 8)
        assert imbalance_factor(graph, partitioning) < 1.15

    def test_covers_all_partitions(self, medium_graph):
        partitioning = HashPartitioner().partition(medium_graph, 4)
        assert all(size > 0 for size in partitioning.sizes())

    def test_partition_vertices_helper(self):
        partitioning = HashPartitioner().partition_vertices(range(50), 5)
        assert partitioning.num_vertices == 50
