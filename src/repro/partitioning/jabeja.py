"""JA-BE-JA: distributed swap-based balanced partitioning (baseline).

Rahimian et al., *JA-BE-JA: A Distributed Algorithm for Balanced Graph
Partitioning* (SASO 2013) — discussed in the paper's related work.  Each
vertex starts with a uniformly random color (which fixes the per-color
*counts* forever), then repeatedly looks for a partner — a neighbor or a
random vertex — to **swap colors with** whenever the swap increases the
total number of same-color neighbors; simulated annealing accepts some
non-improving swaps early on.

Because the algorithm only ever swaps colors, the number of vertices per
partition never changes.  That is exactly the property the paper
criticizes: "This will ensure maintaining a balanced partitioning if
vertices have fixed, uniform weights; however, this is usually not the
case for social networks."  With weighted vertices JA-BE-JA's
partitions can be arbitrarily imbalanced — demonstrated by the
``baselines`` experiment and its tests.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.exceptions import PartitioningError
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioner, Partitioning


class JaBeJaPartitioner(Partitioner):
    """Color-swapping partitioner with simulated annealing.

    ``rounds`` sweeps run over all vertices.  The annealing schedule
    accepts a swap when ``new_benefit * T > old_benefit``, T starting at
    ``INITIAL_TEMPERATURE`` and cooling by ``COOLING`` per round toward
    1; ``SAMPLE_SIZE`` random candidates join each vertex's neighbours.
    """

    INITIAL_TEMPERATURE = 2.0
    COOLING = 0.05
    SAMPLE_SIZE = 8

    def __init__(self, rounds: int = 20, seed: Optional[int] = None):
        if rounds < 1:
            raise PartitioningError("rounds must be >= 1")
        self.rounds = rounds
        self.seed = seed

    # ------------------------------------------------------------------
    def partition(self, graph: SocialGraph, num_partitions: int) -> Partitioning:
        if num_partitions < 1:
            raise PartitioningError("num_partitions must be >= 1")
        rng = random.Random(self.seed)
        vertices = list(graph.vertices())
        # Uniform random initial colors: balanced vertex *counts*.
        colors: Dict[int, int] = {
            vertex: index % num_partitions
            for index, vertex in enumerate(
                sorted(vertices, key=lambda _: rng.random())
            )
        }
        temperature = self.INITIAL_TEMPERATURE
        for _ in range(self.rounds):
            order = list(vertices)
            rng.shuffle(order)
            for vertex in order:
                partner = self._find_partner(graph, vertex, colors, temperature, rng)
                if partner is not None:
                    colors[vertex], colors[partner] = (
                        colors[partner],
                        colors[vertex],
                    )
            temperature = max(1.0, temperature - self.COOLING)
        return Partitioning.from_mapping(colors, num_partitions)

    # ------------------------------------------------------------------
    def _benefit(self, graph: SocialGraph, vertex: int, color: int, colors) -> int:
        """Number of ``vertex``'s neighbors with the given color."""
        return sum(1 for nbr in graph.neighbors(vertex) if colors[nbr] == color)

    def _find_partner(
        self,
        graph: SocialGraph,
        vertex: int,
        colors: Dict[int, int],
        temperature: float,
        rng: random.Random,
    ) -> Optional[int]:
        """Best admissible swap partner among neighbors, then a sample."""
        candidates: List[int] = list(graph.neighbors(vertex))
        population = graph.num_vertices
        if population > 1:
            all_vertices = list(graph.vertices())
            for _ in range(self.SAMPLE_SIZE):
                candidates.append(rng.choice(all_vertices))
        my_color = colors[vertex]
        best_partner: Optional[int] = None
        best_gain = 0.0
        for partner in candidates:
            partner_color = colors[partner]
            if partner == vertex or partner_color == my_color:
                continue
            old = self._benefit(graph, vertex, my_color, colors) + self._benefit(
                graph, partner, partner_color, colors
            )
            new = self._benefit(graph, vertex, partner_color, colors) + self._benefit(
                graph, partner, my_color, colors
            )
            # Swapping with a direct neighbor double-counts the shared
            # edge; correct both sides.
            if graph.has_edge(vertex, partner):
                new -= 2
            gain = new * temperature - old
            if gain > best_gain:
                best_gain = gain
                best_partner = partner
        return best_partner
