"""Multilevel k-way graph partitioner (the METIS substitute).

The paper uses the METIS family — specifically the power-law variant of
Abou-Rjeili & Karypis — both to create initial partitionings and as the
"gold standard" comparison point.  METIS binaries are not available here,
so this subpackage implements the same algorithmic scheme from scratch:

1. **Coarsening** — repeated heavy-edge matching contracts the graph until
   it is small (``MultilevelPartitioner.COARSEN_UNTIL`` vertices);
2. **Initial partitioning** — greedy graph growing on the coarsest graph;
3. **Uncoarsening with refinement** — the assignment is projected back
   level by level, running boundary FM refinement at each level.
"""

from repro.partitioning.multilevel.partitioner import MultilevelPartitioner
from repro.partitioning.multilevel.weighted import WeightedGraph

__all__ = ["MultilevelPartitioner", "WeightedGraph"]
