"""Streaming graph partitioners: LDG and Fennel (related-work baselines).

The paper's related work discusses one-pass streaming partitioners:
Stanton & Kliot's heuristics [32] — of which **Linear Deterministic
Greedy (LDG)** is the strongest — and **Fennel** [33].  Both assign each
vertex as it arrives, using only the neighbors seen so far:

* LDG places ``v`` in the partition maximizing
  ``|N(v) ∩ P| * (1 - |P| / capacity)``;
* Fennel maximizes ``|N(v) ∩ P| - alpha * gamma * |P| ** (gamma - 1)``
  (a degree-based interpolation between cut and balance objectives).

They improve *initial* placement over hashing but — as the paper notes —
do not adapt once placed; re-running them "needs to parse the full
dataset again".  They are included as additional baselines and to show
what the lightweight repartitioner adds on top of good initial placement.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.exceptions import PartitioningError
from repro.graph.compact import GraphRead
from repro.partitioning.base import Partitioner, Partitioning


class _StreamingBase(Partitioner):
    """Shared one-pass machinery: a seeded shuffled stream order + greedy
    scoring under a capacity of ``BALANCE_SLACK`` times the average
    partition size."""

    BALANCE_SLACK = 1.1

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed

    def partition(self, graph: GraphRead, num_partitions: int) -> Partitioning:
        if num_partitions < 1:
            raise PartitioningError("num_partitions must be >= 1")
        order = list(graph.vertices())
        random.Random(self.seed).shuffle(order)
        partitioning = Partitioning(num_partitions)
        sizes = [0] * num_partitions
        capacity = self.BALANCE_SLACK * graph.num_vertices / num_partitions
        get_placed = partitioning.get
        for vertex in order:
            placed_neighbors = [0] * num_partitions
            # neighbors_array: a set view on dict-of-sets, a sorted CSR
            # row on CompactGraph — the scores only count members per
            # partition, so neighbor order is immaterial and both
            # substrates produce identical placements.
            for nbr in graph.neighbors_array(vertex):
                home = get_placed(nbr)
                if home is not None:
                    placed_neighbors[home] += 1
            best = self._choose(placed_neighbors, sizes, capacity, graph, vertex)
            partitioning.assign(vertex, best)
            sizes[best] += 1
        return partitioning

    def _choose(
        self,
        placed_neighbors: List[int],
        sizes: List[int],
        capacity: float,
        graph: GraphRead,
        vertex: int,
    ) -> int:
        raise NotImplementedError


class LinearDeterministicGreedy(_StreamingBase):
    """Stanton & Kliot's LDG heuristic."""

    def _choose(self, placed_neighbors, sizes, capacity, graph, vertex):
        best_partition = 0
        best_score = float("-inf")
        for partition, neighbors in enumerate(placed_neighbors):
            if sizes[partition] + 1 > capacity:
                continue
            score = neighbors * (1.0 - sizes[partition] / capacity)
            if score > best_score or (
                score == best_score and sizes[partition] < sizes[best_partition]
            ):
                best_score = score
                best_partition = partition
        if best_score == float("-inf"):
            # Everything is at capacity (rounding): take the smallest.
            best_partition = min(range(len(sizes)), key=sizes.__getitem__)
        return best_partition


class FennelPartitioner(_StreamingBase):
    """Tsourakakis et al.'s Fennel objective.

    ``GAMMA`` controls the balance penalty's curvature; ``alpha`` is the
    paper's ``sqrt(k) * m / n**GAMMA``.
    """

    GAMMA = 1.5

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed=seed)
        self._alpha = 0.0

    def partition(self, graph: GraphRead, num_partitions: int) -> Partitioning:
        n = max(1, graph.num_vertices)
        self._alpha = math.sqrt(num_partitions) * graph.num_edges / (n**self.GAMMA)
        return super().partition(graph, num_partitions)

    def _choose(self, placed_neighbors, sizes, capacity, graph, vertex):
        best_partition = 0
        best_score = float("-inf")
        alpha = self._alpha
        gamma = self.GAMMA
        for partition, neighbors in enumerate(placed_neighbors):
            if sizes[partition] + 1 > capacity:
                continue
            penalty = alpha * gamma * (sizes[partition] ** (gamma - 1.0))
            score = neighbors - penalty
            if score > best_score:
                best_score = score
                best_partition = partition
        if best_score == float("-inf"):
            best_partition = min(range(len(sizes)), key=sizes.__getitem__)
        return best_partition
