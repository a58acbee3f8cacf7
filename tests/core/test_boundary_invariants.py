"""Invariant tests: the array-backed auxiliary data against a scalar model.

:class:`~repro.core.auxiliary.AuxiliaryData` stores counters, partitions
and weights in arrays and derives everything else — boundary sets,
external degree, edge-cut, imbalance — on demand (DESIGN.md §6).  These
tests drive random operation sequences — vertex and edge churn, weight
churn, single and batched migrations, a partition joining, decay, heat
attached and detached — and compare every public query against a
trivially-correct from-scratch model, with identity-mapped ids
(``0..n-1``, removed ids re-added into their old rows) and with sparse
ids (the dict map and its free list).
"""

from __future__ import annotations

import random
from typing import Dict, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxiliary import AuxiliaryData
from repro.core.candidates import (
    STAGE_ANY_DIRECTION,
    STAGE_HIGH_TO_LOW,
    STAGE_LOW_TO_HIGH,
)
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner
from tests.core.test_selection_engine import (
    assert_same_candidates,
    reference_selection,
)


class ModelState:
    """A trivially-correct reference model: explicit adjacency + maps."""

    def __init__(self, num_partitions: int):
        self.num_partitions = num_partitions
        self.adjacency: Dict[int, Set[int]] = {}
        self.partition: Dict[int, int] = {}
        self.weight: Dict[int, float] = {}
        #: canonical edge -> heat while an overlay is attached, else None
        self.heat: Dict[Tuple[int, int], float] = None

    def counts(self, vertex: int) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for nbr in self.adjacency[vertex]:
            out[self.partition[nbr]] = out.get(self.partition[nbr], 0) + 1
        return out

    def heat_counts(self, vertex: int) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for nbr in self.adjacency[vertex]:
            heat = self.heat.get((min(vertex, nbr), max(vertex, nbr)), 0.0)
            if heat:
                out[self.partition[nbr]] = out.get(self.partition[nbr], 0.0) + heat
        return out

    def external_degree(self, vertex: int) -> int:
        home = self.partition[vertex]
        return sum(1 for n in self.adjacency[vertex] if self.partition[n] != home)

    def edge_cut(self) -> int:
        cut = 0
        for u, nbrs in self.adjacency.items():
            for v in nbrs:
                if u < v and self.partition[u] != self.partition[v]:
                    cut += 1
        return cut

    def members(self, partition: int) -> Set[int]:
        return {v for v, p in self.partition.items() if p == partition}

    def partition_weights(self):
        totals = [0.0] * self.num_partitions
        for vertex, weight in self.weight.items():
            totals[self.partition[vertex]] += weight
        return totals


def drive_random_ops(
    aux: AuxiliaryData,
    model: ModelState,
    rng: random.Random,
    num_ops: int,
    stride: int = 1,
):
    """Apply the same random operation stream to the aux and the model.

    ``stride`` 1 hands out ids ``0, 1, 2, ...`` (the identity id -> row
    map); a larger stride leaves gaps (the dict map).
    """
    retired = []  # removed ids, eligible for re-adding
    next_index = 0

    def existing():
        return rng.choice(sorted(model.adjacency))

    def add_vertex():
        nonlocal next_index
        if retired and rng.random() < 0.5:
            vertex = retired.pop(rng.randrange(len(retired)))
        else:
            vertex = 5 * (stride - 1) + stride * next_index
            next_index += 1
        partition = rng.randrange(model.num_partitions)
        weight = rng.choice([0.5, 1.0, 2.0, 3.25, 5.0])
        aux.add_vertex(vertex, partition, weight)
        model.adjacency[vertex] = set()
        model.partition[vertex] = partition
        model.weight[vertex] = weight

    # Seed a few vertices so edge ops have something to work with.
    for _ in range(4):
        add_vertex()

    for _ in range(num_ops):
        op = rng.randrange(13)
        if op == 0:
            add_vertex()
        elif op in (1, 2, 3):  # add_edge (biased: churn needs edges)
            u, v = existing(), existing()
            if u == v or v in model.adjacency[u]:
                continue
            aux.add_edge(u, v)
            model.adjacency[u].add(v)
            model.adjacency[v].add(u)
        elif op == 4:  # remove_edge
            u = existing()
            if not model.adjacency[u]:
                continue
            v = rng.choice(sorted(model.adjacency[u]))
            aux.remove_edge(u, v)
            model.adjacency[u].discard(v)
            model.adjacency[v].discard(u)
            if model.heat is not None:
                model.heat.pop((min(u, v), max(u, v)), None)
        elif op == 5:  # add_weight
            u = existing()
            delta = rng.choice([0.25, 1.0, 3.0])
            aux.add_weight(u, delta)
            model.weight[u] += delta
        elif op in (6, 7):  # apply_move (logical migration)
            u = existing()
            target = rng.randrange(model.num_partitions)
            assert aux.apply_move(u, target, sorted(model.adjacency[u])) == (
                model.partition[u]
            )
            model.partition[u] = target
        elif op == 8:  # apply_moves (a stage's batch; no-op moves included)
            movers = rng.sample(
                sorted(model.adjacency), rng.randint(1, min(5, len(model.adjacency)))
            )
            targets = [rng.randrange(model.num_partitions) for _ in movers]
            rows = [sorted(model.adjacency[u]) for u in movers]
            aux.apply_moves(
                movers, targets, ([v for row in rows for v in row], list(map(len, rows)))
            )
            model.partition.update(zip(movers, targets))
        elif op == 9:  # remove_vertex (only legal when isolated)
            u = existing()
            if model.adjacency[u] or len(model.adjacency) <= 2:
                continue
            aux.remove_vertex(u)
            del model.adjacency[u]
            del model.partition[u]
            del model.weight[u]
            retired.append(u)
        elif op == 10:  # a partition joins (rarely, and not without bound)
            if model.num_partitions >= 6 or rng.random() < 0.7:
                continue
            assert aux.add_partition() == model.num_partitions
            model.num_partitions += 1
        elif op == 11:  # decay
            factor, floor = rng.choice([0.5, 0.9]), rng.choice([0.5, 1.0])
            aux.decay_weights(factor, floor=floor)
            model.weight = {
                v: max(floor, w * factor) for v, w in model.weight.items()
            }
        else:  # heat attached (on a random subset of the edges) / detached
            if model.heat is not None and rng.random() < 0.5:
                aux.detach_heat()
                model.heat = None
                continue
            model.heat = {
                (u, v): rng.random() * 3.0 + 0.1
                for u, nbrs in model.adjacency.items()
                for v in nbrs
                if u < v and rng.random() < 0.6
            }
            aux.attach_heat(model.heat)


def check_against_model(aux: AuxiliaryData, model: ModelState):
    assert aux.num_partitions == model.num_partitions
    assert aux.num_vertices == len(model.adjacency)
    assert sorted(aux.vertices()) == sorted(model.adjacency)
    vertices = list(aux.vertices())
    assert dict(zip(vertices, aux.partitions_of(vertices))) == model.partition
    # The paper's counters, per vertex, and what is derived per vertex.
    nonzero = 0
    for vertex in model.adjacency:
        counts = model.counts(vertex)
        nonzero += len(counts)
        assert aux.partition_of(vertex) == model.partition[vertex]
        assert aux.weight_of(vertex) == model.weight[vertex]
        assert aux.neighbor_counts(vertex) == counts
        assert aux.degree(vertex) == len(model.adjacency[vertex])
        assert aux.external_degree(vertex) == model.external_degree(vertex)
        if model.heat is not None:
            assert aux.heat_counts(vertex) == pytest.approx(
                model.heat_counts(vertex), abs=1e-9
            )
        else:
            assert aux.heat_counts(vertex) == {}
    assert aux.memory_entries() == (nonzero, model.num_partitions)
    # Membership, boundary sets and the edge-cut.
    boundary_sizes = []
    for partition in range(model.num_partitions):
        members = model.members(partition)
        boundary = {v for v in members if model.external_degree(v) > 0}
        assert aux.vertices_in(partition) == members
        assert aux.boundary_vertices(partition) == boundary
        assert list(aux.records_of(partition).vertices) == sorted(members)
        boundary_sizes.append(len(boundary))
    assert aux.boundary_sizes() == boundary_sizes
    assert aux.edge_cut() == model.edge_cut()
    # Weight vector and the aggregate queries.
    assert aux.partition_weights == pytest.approx(model.partition_weights(), abs=1e-9)
    assert aux.average_weight() == sum(aux.partition_weights) / model.num_partitions
    if sum(aux.partition_weights) > 0:
        assert aux.max_imbalance() == max(aux.partition_weights) / aux.average_weight()


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    num_ops=st.integers(min_value=10, max_value=120),
    num_partitions=st.integers(min_value=2, max_value=5),
    stride=st.sampled_from([1, 4]),
)
@settings(max_examples=60, deadline=None)
def test_incremental_structures_match_recompute(seed, num_ops, num_partitions, stride):
    rng = random.Random(seed)
    aux = AuxiliaryData(num_partitions)
    model = ModelState(num_partitions)
    drive_random_ops(aux, model, rng, num_ops, stride)
    check_against_model(aux, model)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    factor=st.sampled_from([0.25, 0.5, 0.9, 1.0]),
    stride=st.sampled_from([1, 4]),
)
@settings(max_examples=25, deadline=None)
def test_decay_semantics_identical_across_implementations(seed, factor, stride):
    """Decay is ``max(floor, w * factor)`` per vertex and each aggregate
    is rebuilt in ascending vertex order, so the vectorised decay matches
    the scalar statement of that rule *exactly* (not approximately)."""
    rng = random.Random(seed)
    aux = AuxiliaryData(3)
    model = ModelState(3)
    drive_random_ops(aux, model, rng, 60, stride)
    floor = rng.choice([0.5, 1.0, 2.0])
    aux.decay_weights(factor, floor=floor)
    model.weight = {v: max(floor, w * factor) for v, w in model.weight.items()}
    for vertex, weight in model.weight.items():
        assert aux.weight_of(vertex) == weight
    expected = [0.0] * model.num_partitions
    for vertex in sorted(model.weight):  # plain left-to-right float adds
        expected[model.partition[vertex]] += model.weight[vertex]
    assert aux.partition_weights == expected
    check_against_model(aux, model)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    stage=st.sampled_from([STAGE_LOW_TO_HIGH, STAGE_HIGH_TO_LOW, STAGE_ANY_DIRECTION]),
    stride=st.sampled_from([1, 4]),
)
@settings(max_examples=30, deadline=None)
def test_inlined_selection_matches_reference_algorithm(seed, stage, stride):
    """On a state reached through churn (free rows, re-added ids, a heat
    overlay that followed moves) the array selection agrees with the
    readable reference (``get_target_partition``) on every candidate, and
    misses none the reference produces from a full member scan."""
    rng = random.Random(seed)
    aux = AuxiliaryData(4)
    model = ModelState(4)
    drive_random_ops(aux, model, rng, 80, stride)
    alpha = 0.6 if model.heat is not None else 0.0
    config = RepartitionerConfig(workload_alpha=alpha)
    repartitioner = LightweightRepartitioner(config)
    for source in range(aux.num_partitions):
        got = repartitioner._select_candidates(aux, source, stage, k=10**9)
        expected = reference_selection(
            aux, source, stage, 10**9, config.epsilon, alpha
        )
        assert_same_candidates(got, expected)
