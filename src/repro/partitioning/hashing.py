"""Random hash-based partitioning — the de-facto-standard baseline.

The paper compares Hermes against "random hash-based partitioning, which is
a de-facto standard in many data stores due to its decentralized nature and
good load balance properties" (Section 5.3).  Placement is a pure function
of the vertex ID and a salt, so any server can compute it without
coordination — exactly the property that makes it the industry default.

:meth:`HashPartitioner.place` is the scalar definition (one insert);
:meth:`HashPartitioner.partition` hashes a whole graph's ids, reduced mod
2^64, as one numpy ``uint64`` column.  That arithmetic wraps mod 2^64 as
the masks of :func:`_mix64` do, so each placement equals ``place`` bit for
bit, negative ids and ids of 64 bits or more included.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import SocialGraph
from repro.graph.compact import CompactGraph
from repro.partitioning.base import Partitioner, Partitioning, check_partition_count

#: Multiplier of the 64-bit Fibonacci/splitmix-style integer hash below.
_GOLDEN_64 = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1
_MIX_1, _MIX_2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(value: int) -> int:
    """A splitmix64 finalizer: deterministic, well-distributed, stdlib-free."""
    value = (value + _GOLDEN_64) & _MASK_64
    value = ((value ^ (value >> 30)) * _MIX_1) & _MASK_64
    value = ((value ^ (value >> 27)) * _MIX_2) & _MASK_64
    return value ^ (value >> 31)


def _mix64_column(values: np.ndarray) -> np.ndarray:
    """:func:`_mix64` of every cell of a ``uint64`` column (overwritten)."""
    values += np.uint64(_GOLDEN_64)
    for shift, multiplier in ((30, _MIX_1), (27, _MIX_2)):
        values ^= values >> np.uint64(shift)
        values *= np.uint64(multiplier)
    values ^= values >> np.uint64(31)
    return values


class HashPartitioner(Partitioner):
    """Assign each vertex to ``hash(vertex, salt) mod num_partitions``."""

    def __init__(self, salt: int = 0):
        self.salt = salt

    def place(self, vertex: int, num_partitions: int) -> int:
        """The pure placement function (usable without a graph)."""
        check_partition_count(num_partitions)
        return _mix64(vertex ^ _mix64(self.salt)) % num_partitions

    def partition(self, graph: SocialGraph, num_partitions: int) -> Partitioning:
        """``place`` for every vertex, computed as one column."""
        check_partition_count(num_partitions)
        vertices = list(graph.vertices())
        n = len(vertices)
        if not isinstance(graph, CompactGraph):
            keys = np.fromiter(map(_MASK_64.__and__, vertices), np.uint64, count=n)
        elif graph.ids_column is None:
            keys = np.arange(n, dtype=np.uint64)
        else:
            keys = graph.ids_column.astype(np.uint64)  # two's complement: mod 2^64
        keys ^= _mix64_column(np.array([self.salt & _MASK_64], dtype=np.uint64))
        partitions = _mix64_column(keys) % np.uint64(num_partitions)
        return Partitioning.from_columns(vertices, partitions, num_partitions)
