"""Differential tests for the array selection engine (DESIGN.md §6).

``LightweightRepartitioner._select_candidates`` evaluates Algorithm 1 for
a whole source partition over the count matrix.  The oracle is the scalar
statement of the same rules: :func:`get_target_partition` per member in
ascending vertex id, fed to the same top-k min-heap.  The two must agree
exactly — same heap entries, same list order (it is the order moves
apply in), same gains down to the float bits and the int/float type.

The second test carries the paper's locality claim ("each partition
collects and stores aggregate vertex information relevant to only the
local vertices", Section 3.1): a partition's selection may read only its
own hosted records and the alpha partition weights.
"""

from __future__ import annotations

import copy
import heapq
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxiliary import AuxiliaryData
from repro.core.candidates import (
    STAGE_ANY_DIRECTION,
    STAGE_HIGH_TO_LOW,
    STAGE_LOW_TO_HIGH,
    get_target_partition,
)
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning

STAGES = [STAGE_LOW_TO_HIGH, STAGE_HIGH_TO_LOW, STAGE_ANY_DIRECTION]


def reference_selection(aux, source, stage, k, epsilon, alpha=0.0):
    """Algorithm 1 per member in ascending id + the engine's heap: its
    ``(gain, arrival, vertex, target)`` entries in final array order."""
    uniform = aux.uniform_capacity
    average = aux.average_weight() if uniform else None
    targets = None if uniform else aux.balance_targets()
    if not (uniform and aux.has_heat):
        alpha = 0.0  # heat blends into the gain under uniform capacities only
    top_k = []
    arrival = 0
    for vertex in sorted(aux.vertices_in(source)):
        target, gain = get_target_partition(
            aux, vertex, stage, epsilon, average=average, alpha=alpha, targets=targets
        )
        if target is None:
            continue
        entry = (gain, arrival, vertex, target)
        arrival += 1
        if len(top_k) < k:
            heapq.heappush(top_k, entry)
        elif gain > top_k[0][0]:
            heapq.heapreplace(top_k, entry)
    return top_k


def assert_same_candidates(got, expected):
    """Same ``(gain, arrival, vertex, target)`` heap entries in the same
    array order, gains equal down to the float bits and the int/float type."""
    assert got == expected
    for (gain, arrival, vertex, target), theirs in zip(got, expected):
        assert type(gain) is type(theirs[0])
        assert repr(gain) == repr(theirs[0])
        assert all(type(value) is int for value in (arrival, vertex, target))


@st.composite
def selection_case(draw):
    """A small random system: fractional weights, skewed placement (so
    some partitions are overloaded), optional capacities (0 = draining)
    and optional heat that has already followed a few moves."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    num_vertices = draw(st.integers(min_value=4, max_value=28))
    num_partitions = draw(st.integers(min_value=2, max_value=5))
    stride = draw(st.sampled_from([1, 1, 3]))  # 1 = identity id -> row map
    capacities = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 4.0]),
                min_size=num_partitions,
                max_size=num_partitions,
            ),
        )
    )
    alpha = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    rng = random.Random(seed)
    ids = [7 * (stride - 1) + stride * i for i in range(num_vertices)]
    graph = SocialGraph()
    for vertex in ids:
        graph.add_vertex(vertex, weight=rng.choice([0.0, 0.5, 1.0, 1.0, 2.25, 3.1]))
    density = rng.choice([0.1, 0.3, 0.6])
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if rng.random() < density:
                graph.add_edge(u, v)
    skew = [rng.random() ** 2 for _ in range(num_partitions)]
    partitioning = Partitioning(num_partitions)
    for vertex in ids:
        partitioning.assign(
            vertex, rng.choices(range(num_partitions), weights=skew)[0]
        )
    aux = AuxiliaryData.from_graph(graph, partitioning)
    if capacities is not None:
        for partition, capacity in enumerate(capacities):
            aux.set_capacity(partition, capacity)
    if alpha:
        heat = {
            edge: rng.random() * 3.0 + 0.1
            for edge in graph.edges()
            if rng.random() < 0.7
        }
        # Heat toward a partition the vertex has no neighbor in (a
        # non-edge here; float residue in production) must never be read
        # by a source that is not overloaded.
        u, v = rng.sample(ids, 2)
        heat.setdefault((min(u, v), max(u, v)), 50.0)
        aux.attach_heat(heat)
        for vertex in rng.sample(ids, 3):
            aux.apply_move(
                vertex, rng.randrange(num_partitions), graph.neighbors(vertex)
            )
    return aux, alpha


@given(
    case=selection_case(),
    stage=st.sampled_from(STAGES),
    k=st.sampled_from([1, 2, 3, 10**9]),
    epsilon=st.sampled_from([1.05, 1.1, 1.5, 1.9]),
)
@settings(max_examples=150, deadline=None)
def test_vectorised_selection_equals_scalar_reference(case, stage, k, epsilon):
    aux, alpha = case
    repartitioner = LightweightRepartitioner(
        RepartitionerConfig(epsilon=epsilon, workload_alpha=alpha)
    )
    for source in range(aux.num_partitions):
        got = repartitioner._select_candidates(aux, source, stage, k)
        expected = reference_selection(aux, source, stage, k, epsilon, alpha)
        assert_same_candidates(got, expected)


@given(case=selection_case(), stage=st.sampled_from(STAGES))
@settings(max_examples=60, deadline=None)
def test_selection_reads_only_the_sources_own_records(case, stage):
    """Overwrite every record hosted elsewhere with garbage: the source's
    candidates must not change.  (Reaches into the private arrays — there
    is no public way to corrupt a record.)"""
    aux, alpha = case
    repartitioner = LightweightRepartitioner(
        RepartitionerConfig(k=3, workload_alpha=alpha)
    )
    rng = np.random.default_rng(0)
    for source in range(aux.num_partitions):
        expected = repartitioner._select_candidates(aux, source, stage, 3)
        garbled = copy.deepcopy(aux)
        elsewhere = garbled._partition != source
        shape = garbled._counts[elsewhere].shape
        garbled._counts[elsewhere] = rng.integers(0, 50, size=shape)
        garbled._weight[elsewhere] = rng.random(shape[0]) * 100.0
        if garbled._heat is not None:
            garbled._heat[elsewhere] = rng.random(shape) * 100.0
        got = repartitioner._select_candidates(garbled, source, stage, 3)
        assert_same_candidates(got, expected)
