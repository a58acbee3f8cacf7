"""The multilevel partitioner driver (coarsen / partition / refine).

The scheme is METIS's recursive bisection: the graph is split in two by
a full multilevel run (coarsening, greedy growing, FM with rollback at
every level), then each half is recursively split.  FM is strongest at
k=2, which makes bisection the higher-quality scheme on
community-structured social graphs.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.exceptions import InvalidPartitionError
from repro.graph.compact import GraphRead
from repro.partitioning.base import Partitioner, Partitioning
from repro.partitioning.multilevel.coarsening import contract
from repro.partitioning.multilevel.initial import greedy_growing
from repro.partitioning.multilevel.matching import heavy_edge_matching
from repro.partitioning.multilevel.refinement import cut_weight, refine
from repro.partitioning.multilevel.weighted import WeightedGraph, as_weighted


class MultilevelPartitioner(Partitioner):
    """METIS-style multilevel partitioner.

    Parameters
    ----------
    epsilon:
        Imbalance bound: every partition weight must stay below
        ``epsilon * target`` during refinement (paper default 1.1; the
        static partitioner defaults tighter, 1.05, like METIS's ufactor).
    tries:
        Independent runs; the lowest edge-cut wins.
    seed:
        Seed for all randomized choices; fixed seed => deterministic output.
    """

    #: independent initial partitionings tried on the coarsest graph
    INITIAL_TRIES = 4
    #: stop coarsening at this many vertices (or 15 per partition)
    COARSEN_UNTIL = 120
    #: most coarsening levels
    MAX_LEVELS = 30
    #: most FM passes per refinement
    REFINE_PASSES = 10

    def __init__(
        self,
        epsilon: float = 1.05,
        tries: int = 1,
        seed: Optional[int] = None,
    ):
        if epsilon < 1.0 or epsilon >= 2.0:
            raise InvalidPartitionError(f"epsilon must be in [1, 2), got {epsilon}")
        if tries < 1:
            raise InvalidPartitionError(f"tries must be >= 1, got {tries}")
        self.epsilon = epsilon
        self.tries = tries
        self.seed = seed

    # ------------------------------------------------------------------
    def partition(self, graph: GraphRead, num_partitions: int) -> Partitioning:
        """Best-of-``tries`` multilevel partitioning (lowest edge-cut)."""
        best: Optional[Partitioning] = None
        best_cut = float("inf")
        for attempt in range(self.tries):
            seed = None if self.seed is None else self.seed + 101 * attempt
            candidate = self._partition_once(graph, num_partitions, seed)
            cut = sum(
                1
                for u, v in graph.edges()
                if candidate.partition_of(u) != candidate.partition_of(v)
            )
            if cut < best_cut:
                best_cut = cut
                best = candidate
        assert best is not None
        return best

    def _partition_once(
        self, graph: GraphRead, num_partitions: int, seed: Optional[int]
    ) -> Partitioning:
        if num_partitions < 1:
            raise InvalidPartitionError("num_partitions must be >= 1")
        if num_partitions == 1 or graph.num_vertices <= num_partitions:
            return self._trivial(graph, num_partitions)
        rng = random.Random(seed)
        # CSR graphs are coarsened/matched in place through a unit-weight
        # view; only the (much smaller) coarse levels become dict-backed.
        base = as_weighted(graph)
        if num_partitions > 2:
            # Imbalance compounds across nested splits: a vertex ends up
            # inside ~log2(k) bisections, each multiplying the allowed
            # overweight.  Tighten the per-split bound so the compound
            # stays within epsilon.
            depth = math.ceil(math.log2(num_partitions))
            per_split_epsilon = self.epsilon ** (1.0 / depth)
            assignment: Dict[int, int] = {}
            self._recursive_bisect(
                base,
                num_partitions,
                first_partition=0,
                rng=rng,
                out=assignment,
                epsilon=per_split_epsilon,
            )
        else:
            assignment = self._multilevel(base, 2, rng, None, self.epsilon)
        return Partitioning.from_mapping(assignment, num_partitions)

    # ------------------------------------------------------------------
    # Recursive bisection
    # ------------------------------------------------------------------
    def _recursive_bisect(
        self,
        graph: WeightedGraph,
        num_parts: int,
        first_partition: int,
        rng: random.Random,
        out: Dict[int, int],
        epsilon: float,
    ) -> None:
        """Split ``graph`` into ``num_parts`` final partitions, writing
        labels ``first_partition .. first_partition + num_parts - 1``."""
        if num_parts == 1:
            for vertex in graph.vertex_weights:
                out[vertex] = first_partition
            return
        left_parts = num_parts // 2
        right_parts = num_parts - left_parts
        total = graph.total_vertex_weight()
        targets = [
            total * left_parts / num_parts,
            total * right_parts / num_parts,
        ]
        assignment = self._multilevel(graph, 2, rng, targets, epsilon)
        left = self._induced(graph, assignment, 0)
        right = self._induced(graph, assignment, 1)
        self._recursive_bisect(left, left_parts, first_partition, rng, out, epsilon)
        self._recursive_bisect(
            right, right_parts, first_partition + left_parts, rng, out, epsilon
        )

    @staticmethod
    def _induced(
        graph: WeightedGraph, assignment: Dict[int, int], side: int
    ) -> WeightedGraph:
        sub = WeightedGraph()
        for vertex, weight in graph.vertex_weights.items():
            if assignment[vertex] == side:
                sub.add_vertex(vertex, weight)
        for u, v, weight in graph.edges():
            if assignment[u] == side and assignment[v] == side:
                sub.add_edge(u, v, weight)
        return sub

    # ------------------------------------------------------------------
    # One multilevel V-cycle (possibly with uneven targets)
    # ------------------------------------------------------------------
    def _multilevel(
        self,
        base: WeightedGraph,
        num_partitions: int,
        rng: random.Random,
        targets: Optional[List[float]],
        epsilon: float,
    ) -> Dict[int, int]:
        if base.num_vertices <= num_partitions:
            return {
                vertex: index % num_partitions
                for index, vertex in enumerate(base.vertex_weights)
            }
        levels = self._coarsen(base, num_partitions, rng)
        coarsest = levels[-1][0]
        assignment = self._initial_partition(
            coarsest, num_partitions, rng, targets, epsilon
        )
        for finer, projection in reversed(levels[:-1] if len(levels) > 1 else []):
            assignment = self._project(assignment, projection)
            refine(
                finer,
                assignment,
                num_partitions,
                epsilon,
                self.REFINE_PASSES,
                targets=targets,
            )
        return assignment

    def _initial_partition(
        self,
        coarsest: WeightedGraph,
        num_partitions: int,
        rng: random.Random,
        targets: Optional[List[float]],
        epsilon: float,
    ) -> Dict[int, int]:
        """METIS-style multi-try: grow + refine several initial cuts and
        keep the best one."""
        best_assignment: Optional[Dict[int, int]] = None
        best_cut = float("inf")
        for _ in range(self.INITIAL_TRIES):
            assignment = greedy_growing(coarsest, num_partitions, rng, targets)
            refine(
                coarsest,
                assignment,
                num_partitions,
                epsilon,
                self.REFINE_PASSES,
                targets=targets,
            )
            cut = cut_weight(coarsest, assignment)
            if cut < best_cut:
                best_cut = cut
                best_assignment = assignment
        assert best_assignment is not None
        return best_assignment

    def _coarsen(
        self, base: WeightedGraph, num_partitions: int, rng: random.Random
    ) -> List[Tuple[WeightedGraph, Optional[Dict[int, int]]]]:
        """Build the level hierarchy.

        Returns a list of ``(graph, projection_to_next_level)`` where the
        last entry's projection is None (it is the coarsest level).
        """
        stop_at = max(self.COARSEN_UNTIL, 15 * num_partitions)
        levels: List[Tuple[WeightedGraph, Optional[Dict[int, int]]]] = []
        current = base
        for _ in range(self.MAX_LEVELS):
            if current.num_vertices <= stop_at:
                break
            matching = heavy_edge_matching(current, rng)
            coarse, projection = contract(current, matching)
            if coarse.num_vertices >= current.num_vertices * 0.98:
                break  # matching collapsed: further coarsening is useless
            levels.append((current, projection))
            current = coarse
        levels.append((current, None))
        return levels

    @staticmethod
    def _project(
        coarse_assignment: Dict[int, int], projection: Dict[int, int]
    ) -> Dict[int, int]:
        """Pull a coarse assignment back to the finer level."""
        return {fine: coarse_assignment[coarse] for fine, coarse in projection.items()}

    @staticmethod
    def _trivial(graph: GraphRead, num_partitions: int) -> Partitioning:
        vertices = list(graph.vertices())
        partitions = [index % num_partitions for index in range(len(vertices))]
        return Partitioning.from_columns(vertices, partitions, num_partitions)
