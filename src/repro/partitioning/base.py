"""The partitioning state object and the static-partitioner interface.

A :class:`Partitioning` is a total assignment of vertices to ``alpha``
partitions (paper Section 2.1).  It is deliberately decoupled from the
graph: the repartitioner, the metrics module and the cluster catalog all
share one assignment while the graph itself lives elsewhere (in-memory
substrate or the storage engine).
"""

from __future__ import annotations

import abc
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import InvalidPartitionError, VertexNotFoundError
from repro.graph.adjacency import SocialGraph


def check_partition_count(num_partitions: int) -> None:
    if num_partitions < 1:
        raise InvalidPartitionError(f"need at least one partition, got {num_partitions}")


class Partitioning:
    """A mutable vertex -> partition assignment with per-partition indexes.

    Example
    -------
    >>> p = Partitioning(num_partitions=2)
    >>> p.assign(10, 0)
    >>> p.assign(11, 1)
    >>> p.partition_of(10)
    0
    >>> p.move(10, 1)
    >>> sorted(p.vertices_in(1))
    [10, 11]
    """

    __slots__ = ("_num_partitions", "_assignment", "_members")

    def __init__(self, num_partitions: int):
        check_partition_count(num_partitions)
        self._num_partitions = num_partitions
        self._assignment: Dict[int, int] = {}
        self._members: List[Set[int]] = [set() for _ in range(num_partitions)]

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def num_vertices(self) -> int:
        return len(self._assignment)

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self._num_partitions:
            raise InvalidPartitionError(
                f"partition {partition} out of range [0, {self._num_partitions})"
            )

    # ------------------------------------------------------------------
    def assign(self, vertex: int, partition: int) -> None:
        """Assign a previously unassigned vertex to a partition."""
        self._check_partition(partition)
        current = self._assignment.get(vertex)
        if current is not None:
            raise InvalidPartitionError(
                f"vertex {vertex} is already assigned to partition {current}; "
                "use move()"
            )
        self._assignment[vertex] = partition
        self._members[partition].add(vertex)

    def move(self, vertex: int, partition: int) -> int:
        """Move an assigned vertex (its mapping entry keeps its place);
        returns its previous partition."""
        self._check_partition(partition)
        try:
            previous = self._assignment[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        if previous != partition:
            self._members[previous].discard(vertex)
            self._members[partition].add(vertex)
            self._assignment[vertex] = partition
        return previous

    def remove(self, vertex: int) -> int:
        """Drop a vertex from the assignment; returns its partition."""
        try:
            partition = self._assignment.pop(vertex)
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        self._members[partition].discard(vertex)
        return partition

    def partition_of(self, vertex: int) -> int:
        try:
            return self._assignment[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def partitions_of(self, vertices: Iterable[int]) -> np.ndarray:
        """:meth:`partition_of` of each vertex as an int32 column (one C map)."""
        try:
            return np.fromiter(map(self._assignment.__getitem__, vertices), np.int32)
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None

    def get(self, vertex: int) -> Optional[int]:
        """Like :meth:`partition_of` but returns None for unknown vertices."""
        return self._assignment.get(vertex)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._assignment

    def vertices_in(self, partition: int) -> Set[int]:
        """The vertex set of one partition (live reference; do not mutate).
        Its contents are state; its iteration order, set by past moves, is not."""
        self._check_partition(partition)
        return self._members[partition]

    def items(self) -> Iterator:
        return iter(self._assignment.items())

    def sizes(self) -> List[int]:
        """Vertex count per partition."""
        return [len(members) for members in self._members]

    def add_partition(self) -> int:
        """Grow the assignment by one (empty) partition; returns its id."""
        partition = self._num_partitions
        self._num_partitions += 1
        self._members.append(set())
        return partition

    # ------------------------------------------------------------------
    def copy(self) -> "Partitioning":
        clone = Partitioning(self._num_partitions)
        clone._assignment = dict(self._assignment)
        clone._members = [set(members) for members in self._members]
        return clone

    @classmethod
    def from_mapping(
        cls, mapping: Dict[int, int], num_partitions: Optional[int] = None
    ) -> "Partitioning":
        if num_partitions is None:
            num_partitions = (max(mapping.values()) + 1) if mapping else 1
        return cls.from_columns(list(mapping), list(mapping.values()), num_partitions)

    @classmethod
    def from_columns(
        cls, vertices: Sequence[int], partitions: Sequence[int], num_partitions: int
    ) -> "Partitioning":
        """``assign(vertices[i], partitions[i])`` for each ``i`` in order,
        in bulk: the same dict order, set iteration order and int objects
        (hence bytes).  A length mismatch, a partition out of range or a
        repeated vertex raises :class:`InvalidPartitionError` first."""
        partitioning = cls(num_partitions)
        column = np.asarray(partitions)
        n = len(vertices)
        if len(column) != n:
            raise InvalidPartitionError(f"{n} vertices but {len(column)} partitions")
        integral = column.dtype.kind in "iu"
        if n and not (integral and 0 <= column.min() <= column.max() < num_partitions):
            raise InvalidPartitionError(f"partition out of range [0, {num_partitions})")
        assignment = dict(zip(vertices, column.tolist()))
        if len(assignment) != n:
            raise InvalidPartitionError(f"{n - len(assignment)} repeated vertex ids")
        partitioning._assignment = assignment
        # One C-level pass per partition, in input order, sharing the ints.
        partitioning._members = [
            set(compress(vertices, column == partition))
            for partition in range(num_partitions)
        ]
        return partitioning

    def as_mapping(self) -> Dict[int, int]:
        return dict(self._assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partitioning):
            return NotImplemented
        return (
            self._num_partitions == other._num_partitions
            and self._assignment == other._assignment
        )

    def __repr__(self) -> str:
        return (
            f"Partitioning(num_partitions={self._num_partitions}, "
            f"sizes={self.sizes()})"
        )


class Partitioner(abc.ABC):
    """Interface for static (offline) partitioners."""

    @abc.abstractmethod
    def partition(self, graph: SocialGraph, num_partitions: int) -> Partitioning:
        """Produce a total assignment of the graph's vertices."""

    def partition_vertices(
        self, vertices: Iterable[int], num_partitions: int
    ) -> Partitioning:
        """Partition a bare vertex set (used when no structure is needed)."""
        graph = SocialGraph()
        for vertex in vertices:
            graph.add_vertex(vertex)
        return self.partition(graph, num_partitions)
