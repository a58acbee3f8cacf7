"""Heavy-edge matching for the coarsening phase.

Visiting vertices in a random order, each unmatched vertex is matched with
its unmatched neighbor of maximum edge weight (heaviest edge first), which
is the classic METIS HEM heuristic: contracting heavy edges early removes
as much cut weight as possible from the coarser levels.

For power-law graphs, plain HEM leaves many hub-adjacent vertices
unmatched; following the Abou-Rjeili & Karypis observation we add
two-hop "leaf" matching of unmatched low-degree vertices that share a
common neighbor, which keeps the coarsening ratio healthy on social
networks.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.partitioning.multilevel.weighted import WeightedGraph


def heavy_edge_matching(graph: WeightedGraph, rng: random.Random) -> Dict[int, int]:
    """Return a matching as a map vertex -> partner (self for unmatched)."""
    matching: Dict[int, int] = {}
    order = list(graph.vertex_weights)
    rng.shuffle(order)
    for vertex in order:
        if vertex in matching:
            continue
        partner = _heaviest_unmatched_neighbor(graph, vertex, matching)
        if partner is None:
            matching[vertex] = vertex
        else:
            matching[vertex] = partner
            matching[partner] = vertex
    _match_leaves(graph, matching, rng)
    return matching


def _heaviest_unmatched_neighbor(
    graph: WeightedGraph, vertex: int, matching: Dict[int, int]
) -> Optional[int]:
    best: Optional[int] = None
    best_weight = -1.0
    for nbr, weight in graph.neighbors(vertex).items():
        if nbr in matching:
            continue
        if weight > best_weight:
            best, best_weight = nbr, weight
    return best


def _match_leaves(
    graph: WeightedGraph, matching: Dict[int, int], rng: random.Random
) -> None:
    """Pair up still-unmatched degree<=2 vertices that share a neighbor.

    Hubs in power-law graphs have many degree-1 satellites; matching the
    satellites with each other (they will be contracted into one coarse
    vertex attached to the hub) dramatically improves the coarsening ratio.
    """
    by_anchor: Dict[int, list] = {}
    for vertex, partner in matching.items():
        if partner != vertex:
            continue
        nbrs = graph.neighbors(vertex)
        if 0 < len(nbrs) <= 2:
            anchor = max(nbrs, key=nbrs.get)
            by_anchor.setdefault(anchor, []).append(vertex)
    for siblings in by_anchor.values():
        rng.shuffle(siblings)
        for i in range(0, len(siblings) - 1, 2):
            a, b = siblings[i], siblings[i + 1]
            if matching[a] == a and matching[b] == b:
                matching[a] = b
                matching[b] = a
