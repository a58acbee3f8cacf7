"""Differential test: phase 1 on columns against the per-candidate stage.

A stage selects, gathers and applies its moves as arrays (DESIGN.md §6):
the top-k heap skips, block by block, every entry that cannot beat the
heap minimum; the chosen vertex and target columns are read straight off
the heap entries; one ``neighbor_batch`` gathers every moving vertex's
adjacency; and ``run`` writes the partitioning once, at the end.  The
oracle below is the stage as it was before: every admissible entry
through the heap, one ``graph.neighbors`` call per chosen vertex, and one
``partitioning.move`` per logical move with an ``origin`` map.  Its own
``run`` loop runs every iteration's stages, so it is also the oracle of
the engine's limit-cycle skip, which replays the iterations after an
exact repeat of the state instead of running them (DESIGN.md §4).

Both run on random graphs — dict-of-sets, CSR with identity ids and CSR
with mapped ids; fractional, decayed and tied weights; capacities
including 0; heat with ``workload_alpha > 0`` — with the heap's block
size at 1, 2, 3 and its default, for ``max_examples`` from the
hypothesis profile (``--hypothesis-profile sweep`` in CI).  Everything
observable must be equal:
the result (moves in order, history ``repr``s, flags), the auxiliary
arrays and float ``repr``s, and the partitioning (mapping in key order,
member sets as sets).  A run that raises part-way must leave the same
partially applied partitioning.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import random
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import repartitioner as repartitioner_module
from repro.core.auxiliary import AuxiliaryData
from repro.core.candidates import (
    STAGE_ANY_DIRECTION,
    STAGE_HIGH_TO_LOW,
    STAGE_LOW_TO_HIGH,
)
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import (
    IterationStats,
    LightweightRepartitioner,
    RepartitionResult,
)
from repro.exceptions import VertexNotFoundError
from repro.graph.adjacency import SocialGraph
from repro.graph.compact import CompactGraph
from repro.partitioning.base import Partitioning

SUBSTRATES = ["social", "csr", "csr-mapped"]


class PerCandidateRepartitioner(LightweightRepartitioner):
    """The oracle: the stage before it moved columns, in a loop that
    runs every iteration (no limit-cycle skip)."""

    def _select_all(self, aux, source, stage, k):
        # Every admissible entry in arrival (= ascending id) order: with k
        # above their count the engine's heap keeps them all.
        entries = LightweightRepartitioner._select_candidates(
            self, aux, source, stage, 10**9
        )
        entries = iter(sorted(entries, key=lambda entry: entry[1]))
        top_k = []
        for entry in itertools.islice(entries, k):
            heapq.heappush(top_k, entry)
        for entry in entries:
            if entry[0] > top_k[0][0]:
                heapq.heapreplace(top_k, entry)
        return top_k

    def _stage(self, graph, partitioning, aux, stage, k, origin):
        chosen = [
            entry
            for source in range(aux.num_partitions)
            for entry in self._select_all(aux, source, stage, k)
        ]
        if not chosen:
            return 0
        lists = [graph.neighbors(vertex) for _, _, vertex, _ in chosen]
        aux.apply_moves(
            [vertex for _, _, vertex, _ in chosen],
            [target for _, _, _, target in chosen],
            (
                np.fromiter(chain.from_iterable(lists), dtype=np.int64),
                [len(neighbors) for neighbors in lists],
            ),
        )
        for _, _, vertex, target in chosen:
            previous = partitioning.move(vertex, target)
            origin.setdefault(vertex, previous)
        return len(chosen)

    def run(self, graph, partitioning, aux=None, on_iteration=None, telemetry=None):
        origin = {}
        result = RepartitionResult(
            converged=False,
            iterations=0,
            initial_edge_cut=aux.edge_cut(),
            final_edge_cut=0,
            initial_imbalance=aux.max_imbalance(),
            final_imbalance=0.0,
        )
        stages = (
            (STAGE_LOW_TO_HIGH, STAGE_HIGH_TO_LOW)
            if self.config.two_stage
            else (STAGE_ANY_DIRECTION,)
        )
        k = self.config.effective_k(graph.num_vertices)
        best_cut, best_cut_iteration = result.initial_edge_cut, 0
        for iteration in range(1, self.config.max_iterations + 1):
            migrations = 0
            for stage in stages:
                migrations += self._stage(graph, partitioning, aux, stage, k, origin)
            stats = IterationStats(
                iteration, migrations, aux.edge_cut(), aux.max_imbalance()
            )
            result.history.append(stats)
            result.iterations = iteration
            if migrations == 0:
                result.converged = True
                break
            if stats.edge_cut < best_cut:
                best_cut, best_cut_iteration = stats.edge_cut, iteration
            if self._stalled(stats, iteration, best_cut_iteration):
                result.stalled = True
                break
        result.final_edge_cut = aux.edge_cut()
        result.final_imbalance = aux.max_imbalance()
        for vertex in graph.vertices():
            source = origin.get(vertex)
            if source is not None:
                final = partitioning.partition_of(vertex)
                if final != source:
                    result.moves[vertex] = (source, final)
        return result


@st.composite
def phase1_case(draw):
    """A random graph, placement and auxiliary data, plus a config."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    substrate = draw(st.sampled_from(SUBSTRATES))
    num_vertices = draw(st.integers(min_value=6, max_value=60))
    num_partitions = draw(st.integers(min_value=2, max_value=5))
    capacities = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                min_size=num_partitions,
                max_size=num_partitions,
            ),
        )
    )
    alpha = draw(st.sampled_from([0.0, 0.0, 0.4, 1.0]))
    decay = draw(st.sampled_from([None, 0.5, 0.9]))
    rng = random.Random(seed)
    stride = 3 if substrate == "csr-mapped" else 1
    ids = [5 + stride * i for i in range(num_vertices)] if stride > 1 else list(
        range(num_vertices)
    )
    graph = SocialGraph()
    # Few distinct weights and integer counts: many tied gains.
    for vertex in ids:
        graph.add_vertex(vertex, weight=rng.choice([0.5, 1.0, 1.0, 1.5, 2.25, 3.1]))
    density = rng.choice([0.08, 0.2, 0.4])
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if rng.random() < density:
                graph.add_edge(u, v)
    if substrate != "social":
        graph = CompactGraph.from_social(graph)
        assert (graph.ids_column is None) == (substrate == "csr")
    skew = [rng.random() ** 2 + 0.05 for _ in range(num_partitions)]
    partitioning = Partitioning(num_partitions)
    for vertex in ids:
        partitioning.assign(vertex, rng.choices(range(num_partitions), weights=skew)[0])
    aux = AuxiliaryData.from_graph(graph, partitioning)
    if decay is not None:
        for vertex in rng.sample(ids, num_vertices // 2):
            aux.add_weight(vertex, rng.choice([0.25, 1.0, 4.0]))
        aux.decay_weights(decay, floor=0.5)
    if capacities is not None:
        for partition, capacity in enumerate(capacities):
            aux.set_capacity(partition, capacity)
    if alpha:
        aux.attach_heat(
            {edge: rng.random() * 3.0 + 0.1 for edge in graph.edges() if rng.random() < 0.7}
        )
    config = RepartitionerConfig(
        k=draw(st.sampled_from([1, 2, 3, 5])),
        epsilon=draw(st.sampled_from([1.05, 1.1, 1.3])),
        workload_alpha=alpha,
        # 40 reaches the limit cycles the engine replays (DESIGN.md §4).
        max_iterations=draw(st.sampled_from([3, 10, 40])),
        stall_iterations=draw(st.sampled_from([None, 2])),
    )
    return graph, partitioning, aux, config


def observed(result, partitioning, aux):
    """Everything a phase-1 run leaves behind, in comparable form."""
    return {
        "moves": list(result.moves.items()),
        "history": [repr(stats) for stats in result.history],
        "flags": (
            result.converged,
            result.stalled,
            result.iterations,
            result.initial_edge_cut,
            result.final_edge_cut,
            repr(result.initial_imbalance),
            repr(result.final_imbalance),
        ),
        "aux": observed_aux(aux),
        "mapping": list(partitioning.as_mapping().items()),
        "members": [
            set(partitioning.vertices_in(p)) for p in range(partitioning.num_partitions)
        ],
    }


def observed_aux(aux):
    used = aux._used
    return (
        aux._partition[:used].tobytes(),
        aux._weight[:used].tobytes(),
        aux._counts[:used].tobytes(),
        None if aux._heat is None else aux._heat[:used].tobytes(),
        repr(aux.partition_weights),
        [repr(aux.heat_counts(vertex)) for vertex in aux.vertices()],
    )


def run_both(graph, partitioning, aux, config):
    expected_partitioning, expected_aux = partitioning.copy(), copy.deepcopy(aux)
    expected = PerCandidateRepartitioner(config).run(
        graph, expected_partitioning, aux=expected_aux
    )
    got = LightweightRepartitioner(config).run(graph, partitioning, aux=aux)
    return (
        observed(got, partitioning, aux),
        observed(expected, expected_partitioning, expected_aux),
    )


@pytest.mark.parametrize("block", [1, 2, 3, repartitioner_module._HEAP_BLOCK])
@given(case=phase1_case())
@settings(deadline=None)
def test_columns_equal_per_candidate_stage(block, case):
    default = repartitioner_module._HEAP_BLOCK
    repartitioner_module._HEAP_BLOCK = block
    try:
        got, expected = run_both(*case)
    finally:
        repartitioner_module._HEAP_BLOCK = default
    assert got == expected


def drop_vertices(graph, partitioning, victims):
    """Auxiliary data that lacks ``victims`` (and their edges) but agrees
    with the graph on every other vertex's placement and weight."""
    trimmed = SocialGraph()
    for vertex in graph.vertices():
        if vertex not in victims:
            trimmed.add_vertex(vertex, weight=graph.weight_of(vertex))
    for u, v in graph.edges():
        if u not in victims and v not in victims:
            trimmed.add_edge(u, v)
    return AuxiliaryData.from_graph(trimmed, partitioning)


@pytest.mark.parametrize("substrate", SUBSTRATES)
@pytest.mark.parametrize("seed", range(4))
def test_a_stage_that_raises_leaves_the_partially_applied_partitioning(substrate, seed):
    """A moving vertex whose neighbour the auxiliary data does not track
    raises in ``apply_moves``; the stages before it stay applied.  The
    error names the first untracked neighbour in batch and neighbour
    order, so with several missing it also pins that order."""
    rng = random.Random(seed)
    ids = list(range(40)) if substrate != "csr-mapped" else [3 * i + 2 for i in range(40)]
    graph = SocialGraph()
    for vertex in ids:
        graph.add_vertex(vertex, weight=rng.choice([0.5, 1.0, 2.0]))
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if rng.random() < 0.15:
                graph.add_edge(u, v)
    if substrate != "social":
        graph = CompactGraph.from_social(graph)
    partitioning = Partitioning(3)
    for vertex in ids:
        partitioning.assign(vertex, rng.randrange(3))
    config = RepartitionerConfig(k=1, max_iterations=30, stall_iterations=None)
    raised = 0
    for draw in range(40):
        aux = drop_vertices(graph, partitioning, set(rng.sample(ids, 1 + draw % 4)))
        results = []
        for repartitioner_class in (LightweightRepartitioner, PerCandidateRepartitioner):
            mine, mine_aux = partitioning.copy(), copy.deepcopy(aux)
            try:
                repartitioner_class(config).run(graph, mine, aux=mine_aux)
                error = None
            except VertexNotFoundError as exc:
                error = str(exc)
            results.append(
                (
                    error,
                    list(mine.as_mapping().items()),
                    [set(mine.vertices_in(p)) for p in range(3)],
                    observed_aux(mine_aux),
                )
            )
        assert results[0] == results[1]
        error, mapping = results[0][:2]
        if error is not None and mapping != list(partitioning.as_mapping().items()):
            raised += 1
    assert raised, "no draw made a run raise after a stage had applied"
