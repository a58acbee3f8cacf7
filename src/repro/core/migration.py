"""Physical-migration planning (phase 2 input, paper Section 3.2).

Phase 1 produces logical moves — only auxiliary records changed hands.
A :class:`MigrationPlan` turns those moves into the two-step physical
protocol the paper describes:

1. **copy step** — each *target* partition receives the list of vertices
   selected for migration to it, requests their physical records (vertex
   record, relationship records, properties) and inserts them locally;
   insertion-only operations run without cross-partition locks;
2. **synchronization barrier** — all partitions confirm copy completion;
3. **remove step** — source partitions mark the moved vertices
   *unavailable* (queries treat them as absent) and then delete them.

The plan object is pure data; :mod:`repro.cluster.migration_executor`
executes it against real stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.exceptions import PartitioningError


@dataclass(frozen=True)
class VertexMove:
    """One vertex's physical relocation."""

    vertex: int
    source: int
    target: int


@dataclass
class MigrationPlan:
    """The full set of physical moves, grouped for the two-step protocol."""

    moves: List[VertexMove] = field(default_factory=list)

    @property
    def num_moves(self) -> int:
        return len(self.moves)

    def by_pair(self) -> Dict[Tuple[int, int], List[VertexMove]]:
        """Moves grouped by ``(source, target)``, in plan order: the
        groups in order of their first move, each group's moves in plan
        order.  One group is one copy step and one remove step."""
        grouped: Dict[Tuple[int, int], List[VertexMove]] = {}
        for move in self.moves:
            grouped.setdefault((move.source, move.target), []).append(move)
        return grouped


def build_migration_plan(moves: Dict[int, Tuple[int, int]]) -> MigrationPlan:
    """Build a plan from phase 1's ``{vertex: (source, final_target)}`` map.

    Vertices that bounced through intermediate partitions during phase 1
    move physically only once, source -> final target — this is exactly why
    the paper splits the algorithm into a logical and a physical phase
    ("border vertices are likely to change partitions more than once").
    """
    plan = MigrationPlan()
    for vertex, (source, target) in moves.items():
        if source == target:
            raise PartitioningError(
                f"vertex {vertex} has a no-op move {source} -> {target}"
            )
        plan.moves.append(VertexMove(vertex=vertex, source=source, target=target))
    plan.moves.sort(key=lambda move: (move.target, move.vertex))
    return plan
