"""Tests for the Partitioning state object."""

import numpy as np
import pytest

from repro.exceptions import InvalidPartitionError, VertexNotFoundError
from repro.partitioning.base import Partitioning


class TestConstruction:
    def test_requires_positive_partitions(self):
        with pytest.raises(InvalidPartitionError):
            Partitioning(0)

    def test_from_mapping(self):
        partitioning = Partitioning.from_mapping({1: 0, 2: 1, 3: 1})
        assert partitioning.num_partitions == 2
        assert partitioning.partition_of(3) == 1
        assert partitioning.sizes() == [1, 2]

    def test_from_mapping_explicit_count(self):
        partitioning = Partitioning.from_mapping({1: 0}, num_partitions=4)
        assert partitioning.num_partitions == 4

    def test_from_empty_mapping(self):
        partitioning = Partitioning.from_mapping({})
        assert partitioning.num_partitions == 1
        assert partitioning.num_vertices == 0


class TestColumns:
    def test_from_columns_is_the_assign_loop(self):
        """Same dict order, member-set iteration order and int objects."""
        vertices = [v * 1009 % 4096 + 300 for v in range(2000)]  # unsorted
        partitions = np.array([v % 5 for v in vertices], dtype=np.uint64)
        bulk = Partitioning.from_columns(vertices, partitions, 6)
        loop = Partitioning(6)
        for vertex, partition in zip(vertices, partitions.tolist()):
            loop.assign(vertex, partition)
        assert list(bulk.items()) == list(loop.items())
        assert bulk.sizes() == loop.sizes() and bulk.sizes()[5] == 0
        for partition in range(6):
            assert list(bulk.vertices_in(partition)) == list(
                loop.vertices_in(partition)
            )
        keys = {id(vertex) for vertex in bulk._assignment}
        assert all(id(v) in keys for p in range(6) for v in bulk.vertices_in(p))
        assert keys == {id(vertex) for vertex in vertices}
        assert all(type(partition) is int for _, partition in bulk.items())

    @pytest.mark.parametrize(
        "vertices, partitions",
        [
            ([1, 2, 3], [0, 1]),  # length mismatch
            ([1, 2, 3], [0, 1, 2]),  # partition out of range
            ([1, 2, 3], [0, -1, 1]),  # negative partition
            ([1, 2, 3], [0.0, 1.0, 1.0]),  # not an integer column
            ([1, 2, 1], [0, 1, 1]),  # repeated vertex
        ],
        ids=["length", "range", "negative", "float", "duplicate"],
    )
    def test_from_columns_rejects_bad_columns(self, vertices, partitions):
        before = (list(vertices), list(partitions))
        with pytest.raises(InvalidPartitionError):
            Partitioning.from_columns(vertices, partitions, 2)
        assert (vertices, partitions) == before

    def test_from_mapping_rejects_out_of_range(self):
        with pytest.raises(InvalidPartitionError):
            Partitioning.from_mapping({1: 0, 2: 3}, num_partitions=2)

    def test_partitions_of_is_a_column_in_input_order(self):
        partitioning = Partitioning.from_mapping({10: 1, 11: 0, 12: 2})
        column = partitioning.partitions_of([12, 10, 10, 11])
        assert column.tolist() == [2, 1, 1, 0]
        assert partitioning.partitions_of([]).tolist() == []
        with pytest.raises(VertexNotFoundError) as raised:
            partitioning.partitions_of([10, 13, 14])
        assert raised.value.vertex == 13


class TestAssignment:
    def test_assign_and_lookup(self):
        partitioning = Partitioning(2)
        partitioning.assign(5, 1)
        assert partitioning.partition_of(5) == 1
        assert 5 in partitioning
        assert partitioning.get(5) == 1
        assert partitioning.get(6) is None

    def test_assign_out_of_range(self):
        partitioning = Partitioning(2)
        with pytest.raises(InvalidPartitionError):
            partitioning.assign(1, 2)
        with pytest.raises(InvalidPartitionError):
            partitioning.assign(1, -1)

    def test_double_assign_rejected(self):
        partitioning = Partitioning(2)
        partitioning.assign(1, 0)
        with pytest.raises(InvalidPartitionError):
            partitioning.assign(1, 1)

    def test_move(self):
        partitioning = Partitioning(3)
        partitioning.assign(1, 0)
        previous = partitioning.move(1, 2)
        assert previous == 0
        assert partitioning.partition_of(1) == 2
        assert 1 in partitioning.vertices_in(2)
        assert 1 not in partitioning.vertices_in(0)

    def test_move_to_same_partition(self):
        partitioning = Partitioning(2)
        partitioning.assign(1, 0)
        assert partitioning.move(1, 0) == 0
        assert partitioning.partition_of(1) == 0

    def test_move_unknown_vertex(self):
        partitioning = Partitioning(2)
        with pytest.raises(VertexNotFoundError):
            partitioning.move(9, 0)

    def test_remove(self):
        partitioning = Partitioning(2)
        partitioning.assign(1, 1)
        assert partitioning.remove(1) == 1
        assert 1 not in partitioning
        with pytest.raises(VertexNotFoundError):
            partitioning.remove(1)

    def test_partition_of_unknown(self):
        partitioning = Partitioning(2)
        with pytest.raises(VertexNotFoundError):
            partitioning.partition_of(1)


class TestViewsAndCopy:
    def test_sizes_and_members(self):
        partitioning = Partitioning.from_mapping({1: 0, 2: 0, 3: 1})
        assert partitioning.sizes() == [2, 1]
        assert partitioning.vertices_in(0) == {1, 2}

    def test_vertices_in_out_of_range(self):
        with pytest.raises(InvalidPartitionError):
            Partitioning(2).vertices_in(5)

    def test_copy_is_independent(self):
        original = Partitioning.from_mapping({1: 0, 2: 1})
        clone = original.copy()
        clone.move(1, 1)
        assert original.partition_of(1) == 0

    def test_equality(self):
        a = Partitioning.from_mapping({1: 0, 2: 1})
        b = Partitioning.from_mapping({2: 1, 1: 0})
        assert a == b
        b.move(1, 1)
        assert a != b

    def test_as_mapping_roundtrip(self):
        mapping = {1: 0, 2: 1, 3: 0}
        partitioning = Partitioning.from_mapping(mapping)
        assert partitioning.as_mapping() == mapping
