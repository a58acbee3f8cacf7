"""Property-based tests (hypothesis) on whole-cluster invariants.

Three properties the simulation harness leans on, checked here in
isolation over hypothesis-driven random inputs:

* **traversal reference model** — on any graph/placement (fault-free) a
  k-hop traversal returns exactly the k-ball of its start vertex in the
  logical graph, and its cost is the closed-form per-entry model minus
  the round trips batching amortized;
* **serial = drained generator** — ``execute(plan)`` and a hand-drained
  ``migrate_steps(plan)`` from identical start states leave identical
  stores, catalog, auxiliary data, report and telemetry;
* **rollback atomicity** — wherever an injected fault lands inside
  ``migrate()`` (a downed link, or a crash that opens inside a
  (source, target) pair after some of its copies landed), the abort path
  must restore byte-identical store, catalog and auxiliary state, and the
  same plan must succeed verbatim once the fault clears.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultPlan
from repro.cluster.hermes import HermesCluster
from repro.cluster.network import (
    BATCH_ENTRY,
    REMOTE_HOP,
    REMOTE_SERVICE,
)
from repro.core.migration import build_migration_plan
from repro.exceptions import MigrationAbortedError
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning
from tests.conftest import (
    crash_plan,
    deep_snapshot,
    drain,
    link_down_plan,
    per_entry_model,
    telemetry_snapshot,
)


@st.composite
def placed_graph(draw):
    """A random small graph plus a random total placement."""
    num_vertices = draw(st.integers(min_value=4, max_value=20))
    num_servers = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    graph = SocialGraph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, weight=rng.choice([1.0, 1.0, 2.0]))
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < 0.3:
                graph.add_edge(u, v)
    placement = Partitioning(num_servers)
    for vertex in range(num_vertices):
        placement.assign(vertex, rng.randrange(num_servers))
    return graph, placement, num_servers, seed


def k_ball(graph, start, hops):
    """Vertices within ``hops`` edges of ``start`` (plain BFS)."""
    seen = {start}
    frontier = [start]
    for _ in range(hops):
        reached = []
        for vertex in frontier:
            for neighbor in graph.neighbors(vertex):
                if neighbor not in seen:
                    seen.add(neighbor)
                    reached.append(neighbor)
        frontier = reached
    return seen


@given(placed_graph())
@settings(max_examples=40, deadline=None)
def test_traversal_matches_reference_ball_and_cost_model(data):
    graph, placement, num_servers, seed = data
    cluster = HermesCluster.from_graph(
        graph.copy(), num_servers=num_servers, partitioning=placement
    )
    rng = random.Random(seed)
    for _ in range(6):
        start = rng.randrange(graph.num_vertices)
        hops = rng.choice([1, 2, 3])
        messages_before = cluster.network.stats.messages
        result = cluster.traverse(start, hops=hops)
        messages = cluster.network.stats.messages - messages_before
        assert set(result.response) == k_ball(graph, start, hops)
        assert result.failed_partitions == ()
        amortized = (result.remote_hops - messages) * (
            REMOTE_HOP + REMOTE_SERVICE
        )
        assert amortized >= 0
        assert result.cost == pytest.approx(
            per_entry_model(result)
            - amortized
            + result.remote_hops * BATCH_ENTRY
        )


def random_moves(cluster, graph, num_servers, rng):
    """A random multi-vertex plan with at least one genuine move."""
    moves = {}
    for vertex in sorted(graph.vertices()):
        if rng.random() < 0.4:
            source = cluster.catalog.lookup(vertex)
            target = rng.randrange(num_servers)
            if source != target:
                moves[vertex] = (source, target)
    if not moves:
        vertex = sorted(graph.vertices())[0]
        source = cluster.catalog.lookup(vertex)
        moves[vertex] = (source, (source + 1) % num_servers)
    return moves


@given(placed_graph())
@settings(max_examples=30, deadline=None)
def test_execute_equals_hand_drained_migrate_steps(data):
    graph, placement, num_servers, seed = data
    outcomes = []
    for drain_by_hand in (False, True):
        cluster = HermesCluster.from_graph(
            graph.copy(), num_servers=num_servers, partitioning=placement
        )
        moves = random_moves(cluster, graph, num_servers, random.Random(seed))
        for vertex, (_, target) in moves.items():
            cluster.aux.apply_move(vertex, target, cluster.graph.neighbors(vertex))
        plan = build_migration_plan(moves)
        if drain_by_hand:
            _, report = drain(cluster._executor.migrate_steps(plan))
        else:
            report = cluster._executor.execute(plan)
        cluster.validate()
        outcomes.append(
            (
                report,
                deep_snapshot(cluster),
                telemetry_snapshot(cluster),
                cluster.network.stats,
            )
        )
    assert outcomes[0] == outcomes[1]


@given(placed_graph())
@settings(max_examples=max(30, settings.default.max_examples), deadline=None)
def test_aborted_migration_restores_state_exactly(data):
    graph, placement, num_servers, seed = data
    cluster = HermesCluster.from_graph(
        graph.copy(), num_servers=num_servers, partitioning=placement
    )
    rng = random.Random(seed)
    moves = random_moves(cluster, graph, num_servers, rng)

    before = deep_snapshot(cluster)
    # Fail a random copy direction used by the plan: any transfer along
    # the downed link aborts the migration at a random interior point.
    source, target = rng.choice(sorted(moves.values()))
    cluster.attach_faults(link_down_plan(source, target))
    for vertex, (_, move_target) in moves.items():
        cluster.aux.apply_move(vertex, move_target, cluster.graph.neighbors(vertex))
    with pytest.raises(MigrationAbortedError):
        cluster._executor.execute(build_migration_plan(moves))
    for vertex, (move_source, _) in moves.items():
        cluster.aux.apply_move(vertex, move_source, cluster.graph.neighbors(vertex))
    cluster.attach_faults(None)

    assert deep_snapshot(cluster) == before
    cluster.validate()

    # The identical plan succeeds once the fault clears (idempotence).
    for vertex, (_, move_target) in moves.items():
        cluster.aux.apply_move(vertex, move_target, cluster.graph.neighbors(vertex))
    report = cluster._executor.execute(build_migration_plan(moves))
    assert report.vertices_moved == len(moves)
    for vertex, (_, move_target) in moves.items():
        assert cluster.catalog.lookup(vertex) == move_target
    cluster.validate()


@given(placed_graph(), st.data())
@settings(max_examples=max(30, settings.default.max_examples), deadline=None)
def test_a_migration_aborted_inside_a_pair_restores_state_exactly(data, draws):
    """The copy step fails at an interior vertex of a (source, target)
    pair: a crash window on the target opens after that pair's earlier
    transfers.  The pair's earlier copies land and are rolled back with
    the rest; the state is restored exactly and the plan then succeeds."""
    graph, placement, num_servers, seed = data
    clusters = [
        HermesCluster.from_graph(graph.copy(), num_servers=num_servers, partitioning=placement)
        for _ in range(2)
    ]
    moves = random_moves(clusters[0], graph, num_servers, random.Random(seed))
    plan = build_migration_plan(moves)
    pairs = [pair for pair in plan.by_pair().values() if len(pair) > 1]
    assume(pairs)
    # A fault-free run with an injector attached clocks every transfer.
    timing, before = clusters
    injector = timing.attach_faults(FaultPlan())
    clocked = []
    transfer = timing.network.transfer

    def clocking_transfer(src, dst, size):
        clocked.append(injector.now())
        return transfer(src, dst, size)

    timing.network.transfer = clocking_transfer
    for vertex, (_, target) in moves.items():
        timing.aux.apply_move(vertex, target, timing.graph.neighbors(vertex))
    timing._executor.execute(plan)
    pair = draws.draw(st.sampled_from(pairs))
    failing = plan.moves.index(pair[draws.draw(st.integers(1, len(pair) - 1))])

    cluster = before
    snapshot = deep_snapshot(cluster)
    cluster.attach_faults(crash_plan(pair[0].target, start=clocked[failing]))
    for vertex, (_, target) in moves.items():
        cluster.aux.apply_move(vertex, target, cluster.graph.neighbors(vertex))
    with pytest.raises(MigrationAbortedError) as aborted:
        cluster._executor.execute(plan)
    # Every transfer before the failing one landed, this pair's too.
    assert aborted.value.report.vertices_moved == failing
    for vertex, (source, _) in moves.items():
        cluster.aux.apply_move(vertex, source, cluster.graph.neighbors(vertex))
    cluster.attach_faults(None)
    assert deep_snapshot(cluster) == snapshot
    cluster.validate()

    for vertex, (_, target) in moves.items():
        cluster.aux.apply_move(vertex, target, cluster.graph.neighbors(vertex))
    report = cluster._executor.execute(plan)
    assert report.vertices_moved == len(moves)
    for vertex, (_, target) in moves.items():
        assert cluster.catalog.lookup(vertex) == target
    cluster.validate()
