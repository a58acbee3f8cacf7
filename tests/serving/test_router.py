"""Router: load-aware replica reads, primary resolution, stale blocking."""

import pytest

from repro.cluster.hermes import HermesCluster
from repro.partitioning.base import Partitioning
from repro.serving import (
    GraphRouter,
    QueryQueue,
    ReplicaIndex,
    ReplicaSynchronizer,
)
from repro.serving.config import ServingConfig
from tests.conftest import crash_plan, make_random_graph


def make_router(config=None):
    """Two servers, vertices 0/1 cut edge: each has a replica across."""
    graph = make_random_graph(2, 0)
    graph.add_edge(0, 1)
    cluster = HermesCluster.from_graph(
        graph,
        num_servers=2,
        partitioning=Partitioning.from_mapping({0: 0, 1: 1}),
    )
    config = config or ServingConfig()
    index = ReplicaIndex(cluster)
    sync = ReplicaSynchronizer(
        cluster, index, config, telemetry=cluster.telemetry
    )
    queue = QueryQueue(2, config, telemetry=cluster.telemetry)
    router = GraphRouter(
        cluster, index, sync, queue, config, telemetry=cluster.telemetry
    )
    return cluster, router, sync, queue


class TestPrimaryResolution:
    def test_fresh_cache_no_forwarding(self):
        _, router, _, _ = make_router()
        host, forward = router.primary_of(0)
        assert host == 0
        assert forward == 0.0

    def test_stale_cache_pays_one_forwarding_hop_then_learns(self):
        cluster, router, _, _ = make_router()
        router.primary_of(0)  # warm the front-door cache
        from tests.conftest import migrate_moves

        migrate_moves(cluster, {0: (0, 1)})
        host, forward = router.primary_of(0)
        assert host == 1
        assert forward > 0.0
        assert router._forwards.value == 1
        # Learned: the next lookup is direct.
        host, forward = router.primary_of(0)
        assert (host, forward) == (1, 0.0)


class TestReadRouting:
    def test_ties_prefer_primary(self):
        _, router, _, _ = make_router()
        decision = router.route_read(0, now=0)
        assert decision.host == decision.primary == 0
        assert not decision.replica_read
        assert router._replica_misses.value == 1

    def test_loaded_primary_offloads_to_replica(self):
        _, router, _, queue = make_router()
        queue.add_backlog(0, now=0, cost=1_000_000)
        decision = router.route_read(0, now=0)
        assert decision.replica_read
        assert decision.host == 1
        assert decision.primary == 0
        assert router._replica_hits.value == 1

    def test_replica_reads_disabled_always_primary(self):
        _, router, _, queue = make_router(ServingConfig(replica_reads=False))
        queue.add_backlog(0, now=0, cost=1_000_000)
        decision = router.route_read(0, now=0)
        assert not decision.replica_read
        assert decision.host == 0

    def test_stale_replica_blocked_back_to_primary(self):
        _, router, sync, queue = make_router(
            ServingConfig(replica_lag=10e-3, max_staleness=1e-3)
        )
        queue.add_backlog(0, now=0, cost=1_000_000)
        sync.record_write([0], now=0)
        decision = router.route_read(0, now=5_000_000)  # pending, past the bound
        assert not decision.replica_read
        assert decision.host == 0
        assert router._stale_blocked.value == 1
        # After the lag window the replica serves again.
        queue.add_backlog(0, now=20_000_000, cost=1_000_000)
        decision = router.route_read(0, now=20_000_000)
        assert decision.replica_read


class TestReplicaExecution:
    def test_replica_read_charges_replica_host(self):
        cluster, router, sync, queue = make_router()
        queue.add_backlog(0, now=0, cost=1_000_000)
        decision = router.route_read(0, now=0)
        assert decision.replica_read
        busy_before = cluster.servers[1].busy_counter.value
        reads_before = cluster.servers[1].reads_counter.value
        properties, cost, staleness, degraded = router.serve_replica_read(
            0, decision, now=0
        )
        assert not degraded
        assert cost > 0
        assert staleness == 0
        assert cluster.servers[1].busy_counter.value > busy_before
        assert cluster.servers[1].reads_counter.value == reads_before + 1

    def test_served_staleness_recorded(self):
        cluster, router, sync, queue = make_router(
            ServingConfig(replica_lag=10e-3, max_staleness=1.0)
        )
        sync.record_write([0], now=0)
        queue.add_backlog(0, now=2_000_000, cost=1_000_000)
        decision = router.route_read(0, now=2_000_000)
        assert decision.replica_read
        _, _, staleness, _ = router.serve_replica_read(0, decision, now=2_000_000)
        assert staleness == 2_000_000
        assert sync.max_served_staleness == 2_000_000

    def test_crashed_replica_host_degrades(self):
        cluster, router, _, queue = make_router()
        queue.add_backlog(0, now=0, cost=1_000_000)
        decision = router.route_read(0, now=0)
        assert decision.host == 1
        cluster.attach_faults(crash_plan(1))
        properties, cost, _, degraded = router.serve_replica_read(
            0, decision, now=0.0
        )
        assert degraded
        assert properties == {}
        assert cost > 0.0
