"""Bad input to the cluster's write and membership calls changes nothing.

Every public call that takes outside input runs its checks before any
layer changes: ``add_vertex`` (id, its record fit, and weight), ``add_edge`` (endpoints,
self-loop, duplicate), ``add_server`` (capacity), ``decay_weights``
(factor and floor), ``read_vertex`` (start) and ``traverse`` (start and
depth).  A bad call raises a typed :class:`HermesError` and
leaves the catalog, the stores, the auxiliary data, the membership and
the clock as they were, so the auditor stays quiet and a later good call
(here a forced rebalance) still succeeds.

``test_drawn_bad_input_raises_typed_and_changes_nothing`` takes its
``max_examples`` from the profile; CI sweeps it at 2000
(``--hypothesis-profile sweep``).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hermes import HermesCluster
from repro.exceptions import ClusterError, HermesError
from repro.partitioning.hashing import HashPartitioner
from repro.simtest.invariants import InvariantAuditor
from tests.conftest import make_random_graph

VERTICES = 12
SERVERS = 3

NAN, INF = float("nan"), float("inf")
BAD_WEIGHTS = (NAN, INF, -INF, -1.0, -1e-9, "heavy", None)
BAD_CAPACITIES = (NAN, INF, -INF, -1.0, -1e-9)


def loaded(durability=False):
    graph = make_random_graph(VERTICES, 20, seed=3)
    cluster = HermesCluster.from_graph(
        graph.copy(),
        num_servers=SERVERS,
        partitioner=HashPartitioner(salt=3),
        durability=durability,
    )
    return cluster, graph


def observables(cluster):
    """What a bad call must leave as it was."""
    return {
        "vertices": len(cluster.catalog),
        "edges": cluster.aux.num_edges,
        "total_weight": cluster.aux.total_weight(),
        "partition_weights": list(cluster.aux.partition_weights),
        "servers": cluster.num_servers,
        "members": len(cluster.servers),
        "partitions": cluster.aux.num_partitions,
        "network": cluster.network.num_servers,
        "now": cluster.now,
    }


def assert_unchanged(cluster, reference, before):
    assert observables(cluster) == before
    cluster.validate()
    assert InvariantAuditor().audit(cluster, reference) == []


# ----------------------------------------------------------------------
# Regressions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [-1.0, NAN])
def test_a_bad_capacity_join_registers_nothing(capacity):
    """The join used to append and register the server everywhere, then
    fail in the auxiliary data: two bad calls left two JOINING servers,
    and every later rebalance raised on the partition-count mismatch."""
    cluster, graph = loaded()
    before = observables(cluster)
    for _ in range(2):
        with pytest.raises(ClusterError, match="capacity"):
            cluster.add_server(capacity=capacity)
    assert_unchanged(cluster, graph, before)
    assert cluster.rebalance(force=True) is not None
    cluster.validate()


@pytest.mark.parametrize("weight", [NAN, INF, -1.0])
def test_a_bad_vertex_weight_is_refused_before_any_layer_changes(weight):
    cluster, graph = loaded()
    before = observables(cluster)
    with pytest.raises(ClusterError, match="weight"):
        cluster.add_vertex(VERTICES, weight=weight)
    assert VERTICES not in cluster.catalog
    assert_unchanged(cluster, graph, before)
    cluster.add_vertex(VERTICES, weight=2.0)
    assert cluster.aux.total_weight() == before["total_weight"] + 2.0


@pytest.mark.parametrize("floor", [NAN, INF, -1.0])
def test_a_bad_decay_floor_is_refused(floor):
    cluster, graph = loaded()
    before = observables(cluster)
    with pytest.raises(ClusterError, match="floor"):
        cluster.decay_weights(0.5, floor=floor)
    assert_unchanged(cluster, graph, before)
    assert math.isfinite(cluster.imbalance())


@pytest.mark.parametrize("hops", [True, False])
def test_a_bool_depth_is_refused(hops):
    """``traverse(0, True)`` used to run a 1-hop and report ``hops=True``,
    while a bool vertex id was already refused."""
    cluster, graph = loaded()
    before = observables(cluster)
    with pytest.raises(ClusterError, match="hops"):
        cluster.traverse(0, hops)
    assert_unchanged(cluster, graph, before)


# ----------------------------------------------------------------------
# Drawn bad input
# ----------------------------------------------------------------------
known = st.integers(0, VERTICES - 1)
not_an_id = st.sampled_from([True, False, 1.0, 2.5, "3", None])
#: a query start of each kind that is not a vertex id: bool, float, str, None
not_a_start = st.sampled_from([True, False, 1.0, 0.0, "1", None])
unstorable = st.sampled_from([2**63, -(2**63) - 1, 2**70])


@st.composite
def bad_calls(draw, edges):
    """One call that must fail: ``(method name, args, kwargs)``."""
    kind = draw(
        st.sampled_from(
            [
                "vertex_id",
                "duplicate_vertex",
                "vertex_weight",
                "edge_id",
                "self_loop",
                "duplicate_edge",
                "unknown_endpoint",
                "capacity",
                "decay",
                "depth",
                "start",
            ]
        )
    )
    if kind == "vertex_id":
        return "add_vertex", (draw(not_an_id | unstorable),), {}
    if kind == "duplicate_vertex":
        return "add_vertex", (draw(known),), {}
    if kind == "vertex_weight":
        fresh = draw(st.integers(VERTICES, 10**6))
        return "add_vertex", (fresh,), {"weight": draw(st.sampled_from(BAD_WEIGHTS))}
    if kind == "edge_id":
        ends = [draw(not_an_id), draw(known)]
        if draw(st.booleans()):
            ends.reverse()
        return "add_edge", tuple(ends), {}
    if kind == "self_loop":
        vertex = draw(known)
        return "add_edge", (vertex, vertex), {}
    if kind == "duplicate_edge":
        u, v = draw(st.sampled_from(edges))
        return "add_edge", (v, u) if draw(st.booleans()) else (u, v), {}
    if kind == "unknown_endpoint":
        ends = [draw(st.integers(VERTICES, 10**6)), draw(known)]
        if draw(st.booleans()):
            ends.reverse()
        return "add_edge", tuple(ends), {}
    if kind == "capacity":
        capacity = draw(st.sampled_from(BAD_CAPACITIES))
        return "add_server", (), {"capacity": capacity, "reshard": draw(st.booleans())}
    if kind == "depth":
        hops = draw(st.sampled_from([True, False, -1, 1.5, NAN, "2", None]))
        return "traverse", (draw(known), hops), {}
    if kind == "start":
        if draw(st.booleans()):
            return "read_vertex", (draw(not_a_start),), {}
        return "traverse", (draw(not_a_start), draw(st.integers(0, 2))), {}
    if draw(st.booleans()):
        factor = draw(st.sampled_from([0.0, -0.5, 1.5, NAN, INF]))
        return "decay_weights", (factor,), {}
    return "decay_weights", (0.5,), {"floor": draw(st.sampled_from(BAD_WEIGHTS[:5]))}


EDGES = sorted(make_random_graph(VERTICES, 20, seed=3).edges())


@settings(deadline=None)
@given(st.lists(bad_calls(EDGES), min_size=1, max_size=8), st.booleans())
def test_drawn_bad_input_raises_typed_and_changes_nothing(calls, durability):
    cluster, graph = loaded(durability=durability)
    before = observables(cluster)
    for name, args, kwargs in calls:
        with pytest.raises(HermesError):
            getattr(cluster, name)(*args, **kwargs)
    assert_unchanged(cluster, graph, before)
