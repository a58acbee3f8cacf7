"""The replica index (a view of the auxiliary data) and the
replica-update staleness model."""

import pytest

from repro.cluster.clients import ClientPool
from repro.cluster.hermes import HermesCluster
from repro.cluster.network import LOCAL_VISIT, TRANSFER_BASE, TRANSFER_BYTE
from repro.concurrency.engine import ConcurrentExecutor
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.serving import ReplicaIndex, ReplicaSynchronizer, ServingFrontend
from repro.serving.config import ServingConfig
from repro.serving.frontend import COMPLETED
from repro.serving.replicas import REPLICA_UPDATE_BYTES
from repro.telemetry import Telemetry
from repro.telemetry.conservation import registry_conservation_violations
from repro.workloads.queries import Traversal
from tests.conftest import (
    build_placed_cluster,
    link_down_plan,
    make_random_graph,
    migrate_moves,
    oracle_placements,
    view_placements,
)


def cut_pair_cluster():
    """Two servers, one cut edge: vertex 0 on server 0, vertex 1 on 1."""
    graph = make_random_graph(2, 0)
    graph.add_edge(0, 1)
    return HermesCluster.from_graph(
        graph,
        num_servers=2,
        partitioning=Partitioning.from_mapping({0: 0, 1: 1}),
    )


class TestReplicaIndex:
    def test_cut_edge_places_replicas_both_sides(self):
        cluster = cut_pair_cluster()
        index = ReplicaIndex(cluster)
        assert index.replicas_of(0) == {1}
        assert index.replicas_of(1) == {0}

    def test_internal_vertex_has_no_replicas(self):
        graph = make_random_graph(3, 0)
        graph.add_edge(0, 1)
        cluster = HermesCluster.from_graph(
            graph,
            num_servers=2,
            partitioning=Partitioning.from_mapping({0: 0, 1: 0, 2: 1}),
        )
        index = ReplicaIndex(cluster)
        assert index.replicas_of(0) == frozenset()
        assert index.replicas_of(2) == frozenset()

    def test_graph_growth_is_visible(self):
        cluster = cut_pair_cluster()
        index = ReplicaIndex(cluster)
        assert index.replicas_of(0) == {1}
        cluster.add_vertex(2)
        cluster.add_edge(0, 2)
        home_2 = cluster.catalog.lookup(2)
        if home_2 != 0:
            assert home_2 in index.replicas_of(0)
        assert index.replicas_of(2) == ({0} if home_2 != 0 else frozenset())

    def test_migration_is_visible_without_notification(self):
        cluster = cut_pair_cluster()
        index = ReplicaIndex(cluster)
        assert index.replicas_of(0) == {1}
        # Move vertex 1 onto server 0: the edge is now internal.  The
        # vertex and edge counts did not change and nobody tells the
        # index — it reads the auxiliary data the migration retargeted.
        migrate_moves(cluster, {1: (1, 0)})
        assert index.replicas_of(0) == frozenset()
        assert index.replicas_of(1) == frozenset()

    def test_unknown_vertex_has_no_replicas(self):
        assert ReplicaIndex(cut_pair_cluster()).replicas_of(99) == frozenset()


class TestPlacementChangesBehindTheFrontDoor:
    """Placement changes that never go through ``frontend.rebalance``
    (each left the parent's cached index stale)."""

    def make_frontend(self):
        # Half the vertices on server 0: the imbalance trigger fires.
        graph = make_random_graph(60, 150, seed=3)
        skewed = {v: 0 if v < 30 else 1 + v % 3 for v in range(60)}
        cluster = HermesCluster.from_graph(
            graph,
            num_servers=4,
            partitioning=Partitioning.from_mapping(skewed, num_partitions=4),
        )
        frontend = ServingFrontend(cluster)
        cluster.serving = frontend
        assert view_placements(frontend) == oracle_placements(cluster)
        return cluster, frontend

    def test_direct_cluster_rebalance(self):
        cluster, frontend = self.make_frontend()
        result, _ = cluster.rebalance()
        assert result.vertices_moved > 0
        assert view_placements(frontend) == oracle_placements(cluster)

    def test_repartition_static(self):
        cluster, frontend = self.make_frontend()
        report = cluster.repartition_static(HashPartitioner(salt=11))
        assert report.vertices_moved > 0
        assert view_placements(frontend) == oracle_placements(cluster)

    def test_client_pool_periodic_rebalance(self):
        cluster, frontend = self.make_frontend()
        before = dict(cluster.partitioning().items())
        trace = [Traversal(start=v, hops=1) for v in range(40)]
        ClientPool(cluster, num_clients=2).run(trace, rebalance_every=10)
        assert dict(cluster.partitioning().items()) != before
        assert view_placements(frontend) == oracle_placements(cluster)


def test_front_door_writes_never_recompute_the_placement(monkeypatch):
    """Count guard (no timing): the O(|E|)-per-write path — one
    ``OneHopReplicator.placements`` over a ``catalog.snapshot()`` per
    front-door write — must not come back unnoticed."""
    graph = make_random_graph(40, 80, seed=2)
    cluster = HermesCluster.from_graph(
        graph, num_servers=4, telemetry=Telemetry(record=True)
    )
    frontend = ServingFrontend(cluster)
    cluster.serving = frontend
    snapshots = []
    real_snapshot = cluster.catalog.snapshot
    monkeypatch.setattr(
        cluster.catalog, "snapshot", lambda: snapshots.append(1) or real_snapshot()
    )
    shipped_before = cluster.telemetry.registry.total("replica_updates_total")
    for new in range(40, 60):
        arrival = frontend.now + 1.0
        assert frontend.submit("add_vertex", new, now=arrival).status == COMPLETED
        outcome = frontend.submit("add_edge", new, new - 40, now=arrival + 0.5)
        assert outcome.status == COMPLETED
    registry = cluster.telemetry.registry
    assert registry.total("replica_updates_total") > shipped_before
    assert registry.total("replication_placements_total") == 0
    assert registry.total("replication_copies_total") == 0
    assert snapshots == []


class TestSynchronizer:
    def make_sync(self, cluster, **overrides):
        config = ServingConfig(**overrides)
        index = ReplicaIndex(cluster)
        sync = ReplicaSynchronizer(
            cluster, index, config, telemetry=cluster.telemetry
        )
        return sync, config

    def test_staleness_timeline(self):
        cluster = cut_pair_cluster()
        sync, config = self.make_sync(cluster, replica_lag=1e-3)
        assert sync.staleness(0, now=5_000_000_000) == 0  # never written
        sync.record_write([0], now=1_000_000_000)
        assert sync.staleness(0, now=1_000_400_000) == 400_000
        # Past the lag the update has applied everywhere: fresh again.
        assert sync.staleness(0, now=1_001_000_000) == 0

    def test_fresh_respects_bound(self):
        cluster = cut_pair_cluster()
        sync, config = self.make_sync(cluster, replica_lag=10e-3, max_staleness=2e-3)
        sync.record_write([0], now=0)
        assert sync.fresh(0, now=1_000_000)
        assert not sync.fresh(0, now=5_000_000)  # pending and past the bound

    def test_update_ships_bytes_with_link_conservation(self):
        cluster = cut_pair_cluster()
        sync, config = self.make_sync(cluster)
        before = cluster.network.stats.bytes_sent
        costs = sync.record_write([0], now=0)
        assert set(costs) == {1}
        assert costs[1] > 0
        assert (
            cluster.network.stats.bytes_sent
            == before + REPLICA_UPDATE_BYTES
        )
        assert (
            registry_conservation_violations(cluster.telemetry, cluster.network)
            == []
        )

    def test_update_charges_replica_host_not_caller(self):
        cluster = cut_pair_cluster()
        sync, _ = self.make_sync(cluster)
        busy_before = cluster.servers[1].busy_counter.value
        sync.record_write([0], now=0)
        assert cluster.servers[1].busy_counter.value > busy_before

    def test_lost_update_counts_failure_but_still_stamps(self):
        cluster = cut_pair_cluster()
        sync, config = self.make_sync(cluster)
        cluster.attach_faults(link_down_plan(0, 1))
        costs = sync.record_write([0], now=0)
        assert costs == {}
        assert sync._update_failures.value >= 1
        # The write is still stamped: reads observe staleness regardless.
        assert sync.staleness(0, now=500_000) > 0  # inside the 1 ms lag

    def test_note_served_tracks_maximum(self):
        cluster = cut_pair_cluster()
        sync, _ = self.make_sync(cluster, replica_lag=10e-3, max_staleness=1.0)
        sync.record_write([0], now=0)
        sync.note_served(0, now=1_000_000)
        sync.note_served(0, now=4_000_000)
        sync.note_served(0, now=2_000_000)
        assert sync.max_served_staleness == 4_000_000


class TestDeliveryEvents:
    """With an engine attached, a front-door write's replica updates ride
    one delivery event that occupies every replica host it reached."""

    #: one update's wire time plus its apply on the replica host
    APPLY = TRANSFER_BASE + REPLICA_UPDATE_BYTES * TRANSFER_BYTE + LOCAL_VISIT

    def make_frontend(self):
        """Vertex 0 on server 0 with neighbours on servers 1 and 2; vertex
        3 on server 0 with a neighbour there too."""
        graph = SocialGraph.from_edges([(0, 1), (0, 2), (3, 4)])
        cluster = build_placed_cluster(graph, {0: 0, 1: 1, 2: 2, 3: 0, 4: 0})
        frontend = ServingFrontend(cluster)
        cluster.serving = frontend
        engine = ConcurrentExecutor(cluster)
        frontend.attach_engine(engine)
        return cluster, frontend, engine.scheduler

    def deliveries(self, frontend, scheduler):
        """Submit ``add_edge(0, 3)`` and run its delivery event; returns
        the write's finish and its ``(task, server, start, finish)``
        records."""
        outcome = frontend.submit("add_edge", 0, 3, now=1.0)
        assert outcome.status == COMPLETED
        assert len(scheduler.handles) == 1
        scheduler.run()
        records = [
            (record.task, record.server, record.start, record.finish)
            for record in scheduler.records
            if record.kind == "replica-update"
        ]
        return outcome.arrival + outcome.latency, records

    def test_a_write_spawns_one_task_with_one_record_per_replica_host(self):
        cluster, frontend, scheduler = self.make_frontend()
        finish, records = self.deliveries(frontend, scheduler)
        apply = self.APPLY
        assert records == [
            (0, 1, finish, finish + apply),
            (0, 2, finish, finish + apply),
        ]
        assert frontend.queue.free_at[1:] == [finish + apply] * 2
        assert cluster.telemetry.registry.total("replica_updates_total") == 2

    def test_a_faulted_link_loses_only_its_own_update(self):
        cluster, frontend, scheduler = self.make_frontend()
        cluster.attach_faults(link_down_plan(0, 2))
        sent = list(cluster.network.link_messages[0])
        finish, records = self.deliveries(frontend, scheduler)
        apply = self.APPLY
        assert records == [(0, 1, finish, finish + apply)]
        assert frontend.queue.free_at[1:] == [finish + apply, 0]
        registry = cluster.telemetry.registry
        assert registry.total("replica_updates_total") == 1
        assert registry.total("replica_update_failures_total") == 1
        assert cluster.network.link_messages[0] == [sent[0], sent[1] + 1, sent[2]]
        assert (
            registry_conservation_violations(cluster.telemetry, cluster.network)
            == []
        )
