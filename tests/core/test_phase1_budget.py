"""Count guard for phase 1 on arrays (no timing), plus a scalar-type guard.

The auxiliary data is an array and phase 1 works on it a partition at a
time (DESIGN.md §6): the number of Python-level calls into
``core/auxiliary.py`` during a run depends on the iteration count and the
number of partitions, never on vertices, edges or moves.  The dict-based
implementation made O(n + m) calls to bootstrap and, in a run, a call per
selected source, per moved vertex (each an inlined per-neighbour loop)
and per balance query.  Counted with ``sys.setprofile``, the way
``tests/cluster/test_access_budget.py`` counts probes and decodes — a
regression into per-vertex loops fails here as a count, on any machine.
The same run pins the stage's columns: one ``neighbor_batch`` per stage
and no per-move ``neighbors`` call, and one ``Partitioning.move`` per
vertex that ends elsewhere (written once, at the end of the run), where
the per-candidate stage made one per logical move.

Everything the array engine hands out must still be a plain Python
scalar: numpy 2 prints ``np.float64(1.5)`` and JSON exporters reject
``np.int32``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import asdict

from repro.core import auxiliary
from repro.graph import compact
from repro.partitioning import base, hashing
from repro.core.auxiliary import AuxiliaryData
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner
from repro.graph.generators import compact_powerlaw_graph
from repro.partitioning.hashing import HashPartitioner

NUM_PARTITIONS = 8
ITERATIONS = 5
#: Python calls into core/auxiliary.py allowed per (iteration, partition):
#: two stages, each one ``records_of`` and a handful of balance queries per
#: source, plus the stage's ``apply_moves`` and the iteration's metrics.
CALLS_PER_ITERATION_AND_PARTITION = 40


def count_calls(fn, *args):
    """``(result, calls)``: Python-level calls made while ``fn(*args)``
    runs, counted per ``(defining file, function name)``."""
    calls = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_filename, frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def count_auxiliary_calls(fn, *args):
    """``(result, calls)``: Python-level calls into functions defined in
    ``core/auxiliary.py`` made while ``fn(*args)`` runs."""
    result, calls = count_calls(fn, *args)
    return result, sum(
        count for (source, _), count in calls.items() if source == auxiliary.__file__
    )


def test_bootstrap_and_run_call_counts_do_not_depend_on_graph_size():
    graph = compact_powerlaw_graph(2000, seed=5)
    partitioning = HashPartitioner(salt=5).partition(graph, NUM_PARTITIONS)

    aux, bootstrap_calls = count_auxiliary_calls(
        AuxiliaryData.from_graph, graph, partitioning
    )
    # One constructor (a capacity check per partition) and the column
    # installs; the parent made 82 093 calls (add_vertex, add_edge, _bump).
    assert bootstrap_calls <= 2 * NUM_PARTITIONS

    config = RepartitionerConfig(k=20, max_iterations=ITERATIONS)
    result, run_calls = count_auxiliary_calls(
        LightweightRepartitioner(config).run, graph, partitioning, aux
    )
    assert result.iterations == ITERATIONS
    assert result.total_logical_migrations > 500  # the run did real work
    budget = CALLS_PER_ITERATION_AND_PARTITION * ITERATIONS * NUM_PARTITIONS
    assert run_calls <= budget, (run_calls, budget)


def test_placement_and_bootstrap_make_no_per_vertex_call():
    """Hash placement and the bootstrap read the placement as columns:
    the same calls at 2 000 and 8 000 vertices, none of them per-vertex
    (the scalar path made one ``place``, two ``_mix64`` and one ``assign``
    per vertex, and the bootstrap one ``partition_of`` per vertex)."""
    counted = {}
    for n in (2000, 8000):
        graph = compact_powerlaw_graph(n, seed=5)
        partitioning, placement_calls = count_calls(
            HashPartitioner(salt=5).partition, graph, NUM_PARTITIONS
        )
        assert partitioning.num_vertices == n
        for name in ("place", "_mix64"):
            assert placement_calls[hashing.__file__, name] == 0
        assert placement_calls[base.__file__, "assign"] == 0
        aux, bootstrap_calls = count_calls(
            AuxiliaryData.from_graph, graph, partitioning
        )
        assert aux.num_vertices == n
        for name in ("partition_of", "get"):
            assert bootstrap_calls[base.__file__, name] == 0
        counted[n] = (placement_calls, bootstrap_calls)
    assert counted[2000] == counted[8000]


def test_a_stage_gathers_once_and_the_partitioning_is_written_once():
    graph = compact_powerlaw_graph(2000, seed=5)
    partitioning = HashPartitioner(salt=5).partition(graph, NUM_PARTITIONS)
    aux = AuxiliaryData.from_graph(graph, partitioning)
    config = RepartitionerConfig(k=20, max_iterations=ITERATIONS)
    result, calls = count_calls(
        LightweightRepartitioner(config).run, graph, partitioning, aux
    )
    assert result.iterations == ITERATIONS
    # Some vertices moved twice or came back: the two counts differ.
    assert result.total_logical_migrations > result.vertices_moved > 0
    # ``neighbors`` is an alias of ``neighbors_array`` on the CSR graph.
    assert calls[compact.__file__, "neighbors_array"] == 0
    assert 0 < calls[compact.__file__, "neighbor_batch"] <= 2 * ITERATIONS
    assert calls[base.__file__, "move"] == result.vertices_moved


def test_public_scalars_are_python_numbers():
    graph = compact_powerlaw_graph(300, seed=9)
    partitioning = HashPartitioner(salt=9).partition(graph, 4)
    aux = AuxiliaryData.from_graph(graph, partitioning)
    config = RepartitionerConfig(k=5, max_iterations=4)
    result = LightweightRepartitioner(config).run(graph, partitioning, aux=aux)
    assert result.vertices_moved > 0

    vertex = next(iter(result.moves))
    exported = json.dumps(
        {
            "history": [asdict(stats) for stats in result.history],
            "moves": sorted(result.moves.items()),
            "initial": [result.initial_edge_cut, result.initial_imbalance],
            "final": [result.final_edge_cut, result.final_imbalance],
            "neighbor_counts": aux.neighbor_counts(vertex),
            "partition_of": aux.partition_of(vertex),
            "weight_of": aux.weight_of(vertex),
            "degree": [aux.degree(vertex), aux.external_degree(vertex)],
            "edge_cut": aux.edge_cut(),
            "max_imbalance": aux.max_imbalance(),
            "partition_weights": aux.partition_weights,
            "boundary_sizes": aux.boundary_sizes(),
            "memory_entries": aux.memory_entries(),
            "vertices": sorted(aux.vertices())[:5],
            "boundary": sorted(aux.boundary_vertices(0))[:5],
        }
    )
    assert "np." not in exported
    assert type(aux.partition_of(vertex)) is int
    assert type(aux.weight_of(vertex)) is float
    assert type(aux.edge_cut()) is int
    for value in (aux.max_imbalance(), result.history[-1].max_imbalance):
        assert type(value) is float and not repr(value).startswith("np.")
    assert all(type(key) is int for key in aux.neighbor_counts(vertex))
