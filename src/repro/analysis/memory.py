"""Memory-footprint estimators for the Section 5.3 comparison.

The paper reports that METIS needs ~23 GB / ~17 GB to partition Orkut /
Twitter while the lightweight repartitioner needs only 2-3 GB: "Metis'
memory requirements scale with the number of relationships and coarsening
stages, while the lightweight repartitioner scales with the number of
vertices and partitions."  These estimators express the same asymmetry
for our in-process implementations so the claim can be demonstrated at
any scale.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from typing import TYPE_CHECKING, Any, Callable, Tuple

from repro.core.auxiliary import AuxiliaryData
from repro.graph.adjacency import SocialGraph
from repro.graph.compact import CompactGraph

if TYPE_CHECKING:
    from repro.storage.graph_store import GraphStore

#: bytes per stored integer counter / weight entry (CPython object ~28B,
#: but a packed implementation needs 8; we charge the packed size because
#: the claim is about information, not interpreter overhead)
_ENTRY_BYTES = 8


def auxiliary_memory_bytes(aux: AuxiliaryData) -> int:
    """Bytes of auxiliary data: sparse counters + per-partition weights.

    Theorem 2: amortized ``n + Theta(alpha)`` entries per partition.
    """
    counter_entries, weight_entries = aux.memory_entries()
    per_vertex_overhead = aux.num_vertices * 2  # partition id + own weight
    return (counter_entries + weight_entries + per_vertex_overhead) * _ENTRY_BYTES


def multilevel_memory_bytes(
    graph: SocialGraph, coarsening_ratio: float = 0.55
) -> int:
    """Bytes a multilevel partitioner holds across its level hierarchy.

    Every level stores vertex weights plus *both directions* of every
    edge with its weight; level sizes form a geometric series with the
    coarsening ratio, so the total is ~``1/(1-ratio)`` times the finest
    level — this is what scales with relationships, not vertices.
    """
    finest = (graph.num_vertices + 4 * graph.num_edges) * _ENTRY_BYTES
    series_factor = 1.0 / (1.0 - coarsening_ratio)
    return int(finest * series_factor)


# ----------------------------------------------------------------------
# Measured (not estimated) footprints, for the BENCH_scale comparison
# ----------------------------------------------------------------------
def measure_memory(fn: Callable[[], Any]) -> Tuple[Any, int, int]:
    """Run ``fn`` under tracemalloc; return ``(result, retained, peak)``.

    ``retained`` is the bytes still allocated when ``fn`` returns (the
    steady-state size of whatever it built), ``peak`` the high-water mark
    while it ran (the build working set).  tracemalloc hooks CPython's
    allocator *and* numpy's array allocator, so dict-of-sets and CSR
    builds are measured on the same scale.  Nesting is not supported.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def peak_rss_bytes() -> int:
    """Process-lifetime peak resident set (VmHWM), 0 where unavailable.

    A whole-process high-water mark: right for "did the n=1M run fit",
    not for comparing two builds in one process (use
    :func:`measure_memory` for that).
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes.
        return usage * 1024 if sys.platform != "darwin" else usage
    except Exception:
        return 0


def compact_graph_bytes(graph: CompactGraph) -> int:
    """Exact bytes of a CSR graph's arrays (index + neighbors + weights)."""
    return graph.memory_bytes()


def social_graph_bytes(graph: SocialGraph) -> int:
    """Measured bytes of the dict-of-sets representation.

    Sums ``sys.getsizeof`` over the adjacency dict, every neighbor set
    and the weight dict, plus one boxed-int charge per set entry (CPython
    interns only small ints; distinct vertex IDs above 256 are distinct
    objects, and each set slot holds a pointer to one).
    """
    int_bytes = sys.getsizeof(1 << 20)
    adjacency = graph._adjacency
    weights = graph._weights
    total = sys.getsizeof(adjacency) + sys.getsizeof(weights)
    for neighbors in adjacency.values():
        total += sys.getsizeof(neighbors) + len(neighbors) * int_bytes
    total += len(weights) * sys.getsizeof(1.0)
    return total


def adjacency_view_bytes(store: "GraphStore") -> int:
    """Measured bytes of one store's adjacency view and availability set
    (DESIGN.md §15).

    Sums ``sys.getsizeof`` over the view dict, each key and each packed
    neighbour ``array`` (whose ``getsizeof`` includes its buffer, so no
    per-neighbour int objects exist to charge), then over the
    availability set and each of its ids.  Keys are charged because a
    node id above 256 is a distinct int object the structure keeps
    alive; an id in both is charged twice, an upper bound.
    """
    view = store.adjacency
    available = store.available
    return (
        sys.getsizeof(view)
        + sum(
            sys.getsizeof(node_id) + sys.getsizeof(neighbors)
            for node_id, neighbors in view.items()
        )
        + sys.getsizeof(available)
        + sum(map(sys.getsizeof, available))
    )
