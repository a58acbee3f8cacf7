"""Property-based tests (hypothesis) on capacity-weighted balance.

Two contracts, each load-bearing for elastic membership:

1. **Construction agreement** — the auxiliary data has two ways of
   coming into being: the vectorised bootstrap
   (:meth:`~repro.core.auxiliary.AuxiliaryData.from_graph`, weighted
   ``bincount``) and incremental upkeep (``add_vertex`` / ``add_edge``,
   the cluster's load path).  For any capacity vector both must agree on
   targets, per-partition imbalance factors and the max imbalance bit
   for bit — the float accumulation order of the weight vector is part
   of the pinned outputs.

2. **Uniform-capacity reduction** — with every capacity at the default
   1.0, the weighted expressions must reduce *exactly* (same float
   bits, not approximately) to the historical plain-average formulas;
   this is what keeps capacity-unaware clusters byte-identical to the
   pre-capacity implementation.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxiliary import (
    AuxiliaryData,
    capacity_targets,
    weighted_imbalance,
)
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning


@st.composite
def weighted_cluster(draw):
    """A random small graph + assignment + per-partition capacities."""
    num_vertices = draw(st.integers(min_value=4, max_value=24))
    num_partitions = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    capacities = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 4.0]),
            min_size=num_partitions,
            max_size=num_partitions,
        )
    )
    rng = random.Random(seed)
    graph = SocialGraph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, weight=rng.choice([1.0, 1.0, 2.0, 3.0, 0.1, 0.7]))
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < 0.25:
                graph.add_edge(u, v)
    partitioning = Partitioning(num_partitions)
    for vertex in range(num_vertices):
        partitioning.assign(vertex, rng.randrange(num_partitions))
    return graph, partitioning, capacities


def both_impls(graph, partitioning, capacities):
    """(bootstrapped, incrementally built) auxiliary data."""
    bootstrapped = AuxiliaryData.from_graph(graph, partitioning)
    incremental = AuxiliaryData(partitioning.num_partitions)
    for vertex in graph.vertices():
        incremental.add_vertex(
            vertex, partitioning.partition_of(vertex), graph.weight_of(vertex)
        )
    for u, v in graph.edges():
        incremental.add_edge(u, v)
    for aux in (bootstrapped, incremental):
        for partition, capacity in enumerate(capacities):
            aux.set_capacity(partition, capacity)
    return bootstrapped, incremental


@given(weighted_cluster())
@settings(max_examples=60, deadline=None)
def test_both_impls_agree_on_weighted_imbalance(data):
    graph, partitioning, capacities = data
    bootstrapped, incremental = both_impls(graph, partitioning, capacities)
    assert bootstrapped.partition_weights == incremental.partition_weights
    assert bootstrapped.uniform_capacity == incremental.uniform_capacity
    assert bootstrapped.balance_targets() == incremental.balance_targets()
    assert bootstrapped.max_imbalance() == incremental.max_imbalance()
    for partition in range(partitioning.num_partitions):
        assert bootstrapped.capacity_of(partition) == incremental.capacity_of(
            partition
        )
        assert bootstrapped.imbalance_factor(
            partition
        ) == incremental.imbalance_factor(partition)
    # The hypotheticals of Algorithm 1 agree too (leave/join deltas).
    for vertex in graph.vertices():
        delta = graph.weight_of(vertex)
        home = partitioning.partition_of(vertex)
        assert bootstrapped.neighbor_counts(vertex) == incremental.neighbor_counts(
            vertex
        )
        assert bootstrapped.imbalance_factor(
            home, -delta
        ) == incremental.imbalance_factor(home, -delta)


@given(weighted_cluster())
@settings(max_examples=60, deadline=None)
def test_capacity_one_reduces_exactly_to_unweighted(data):
    """All-1.0 capacities must reproduce the historical expressions with
    the same float bits — the byte-identity contract the PR-1 fixtures
    pin at the cluster level."""
    graph, partitioning, _ = data
    plain = AuxiliaryData.from_graph(graph, partitioning)
    explicit = AuxiliaryData.from_graph(graph, partitioning)
    for partition in range(partitioning.num_partitions):
        explicit.set_capacity(partition, 1.0)
    assert explicit.uniform_capacity
    average = plain.average_weight()
    for partition in range(partitioning.num_partitions):
        expected = (
            1.0 if average == 0 else plain.partition_weights[partition] / average
        )
        assert plain.imbalance_factor(partition) == expected
        assert explicit.imbalance_factor(partition) == expected
    assert plain.max_imbalance() == explicit.max_imbalance()


@given(weighted_cluster())
@settings(max_examples=60, deadline=None)
def test_capacity_targets_conserve_total_weight(data):
    graph, partitioning, capacities = data
    central, _ = both_impls(graph, partitioning, capacities)
    targets = central.balance_targets()
    if sum(capacities) > 0.0:
        assert math.isclose(
            sum(targets), central.total_weight(), rel_tol=1e-9, abs_tol=1e-6
        )
    else:
        assert targets == [0.0] * len(capacities)
    for partition, capacity in enumerate(capacities):
        if capacity == 0.0:
            # A draining partition's target is zero: infinitely
            # overloaded while it holds weight, balanced once empty.
            assert targets[partition] == 0.0
            weight = central.partition_weights[partition]
            factor = central.imbalance_factor(partition)
            assert factor == (1.0 if weight == 0.0 else math.inf)


def test_weighted_imbalance_zero_target_semantics():
    assert weighted_imbalance(0.0, 0.0) == 1.0
    assert weighted_imbalance(3.0, 0.0) == math.inf
    assert weighted_imbalance(6.0, 3.0) == 2.0
    assert capacity_targets(10.0, [0.0, 0.0]) == [0.0, 0.0]
    assert capacity_targets(12.0, [1.0, 2.0, 1.0]) == [3.0, 6.0, 3.0]
