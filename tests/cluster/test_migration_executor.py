"""Tests for the two-step physical migration protocol, including the
tricky relationship-role cases (ghost/primary reassignment)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hermes import HermesCluster
from repro.core.migration import MigrationPlan, VertexMove, build_migration_plan
from repro.exceptions import ClusterError, PartitioningError
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.telemetry import Telemetry
from tests.conftest import (
    build_placed_cluster as build_cluster,
    deep_snapshot,
    make_random_graph,
    migrate_moves as migrate,
)


class TestSingleMoves:
    def test_move_isolated_vertex(self):
        graph = SocialGraph()
        for v in range(3):
            graph.add_vertex(v)
        cluster = build_cluster(graph, {0: 0, 1: 1, 2: 2})
        report = migrate(cluster, {0: (0, 1)})
        assert report.vertices_moved == 1
        assert cluster.catalog.lookup(0) == 1
        assert cluster.servers[1].store.has_node(0)
        assert not cluster.servers[0].store.has_node(0)
        cluster.validate()

    def test_local_edge_becomes_cross_partition(self):
        """Moving one endpoint away must leave a counterpart record for
        the staying endpoint and create the right ghost/primary roles."""
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 0})
        migrate(cluster, {0: (0, 1)})
        # src (vertex 0) now lives on server 1 -> primary there, ghost on 0.
        cluster.validate()
        assert cluster.servers[1].store.neighbors(0) == [1]
        assert cluster.servers[0].store.neighbors(1) == [0]

    def test_cross_partition_edge_collapses_to_local(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1})
        migrate(cluster, {0: (0, 1)})
        cluster.validate()
        store = cluster.servers[1].store
        assert store.neighbors(0) == [1]
        assert store.neighbors(1) == [0]
        # A single, non-ghost record remains.
        entry = next(iter(store.neighbor_entries(0)))
        assert not entry.ghost

    def test_third_party_endpoint_untouched(self):
        """Edge (0, 1) with 1 on server C; 0 moves A -> B; C keeps its
        counterpart and the rel ID is stable everywhere."""
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 2})
        rel_before = cluster.servers[2].store.neighbor_entries(1)
        rel_id_before = next(iter(rel_before)).rel_id
        migrate(cluster, {0: (0, 1)})
        cluster.validate()
        entries = list(cluster.servers[2].store.neighbor_entries(1))
        assert entries[0].rel_id == rel_id_before

    def test_properties_travel_with_primary(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 0})
        host = cluster.servers[0].store
        rel_id = next(iter(host.neighbor_entries(0))).rel_id
        host.set_relationship_property(rel_id, "since", 2015)
        migrate(cluster, {0: (0, 1)})
        # vertex 0 is the src: the primary (with properties) moved with it.
        assert (
            cluster.servers[1].store.get_relationship_property(rel_id, "since")
            == 2015
        )
        # The stayer's copy is a ghost with no properties.
        assert cluster.servers[0].store.relationship(rel_id).ghost

    def test_node_properties_travel(self):
        graph = SocialGraph()
        graph.add_vertex(0)
        graph.add_vertex(1)
        cluster = build_cluster(graph, {0: 0, 1: 1})
        cluster.servers[0].store.set_node_property(0, "name", "zero")
        migrate(cluster, {0: (0, 2)})
        assert cluster.servers[2].store.node_properties(0) == {"name": "zero"}


class TestConcurrentMoves:
    def test_both_endpoints_move_to_same_server(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1})
        migrate(cluster, {0: (0, 2), 1: (1, 2)})
        cluster.validate()
        store = cluster.servers[2].store
        assert store.neighbors(0) == [1]
        assert store.neighbors(1) == [0]

    def test_both_endpoints_move_to_same_server_with_properties(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1})
        host = cluster.servers[0].store
        rel_id = next(iter(host.neighbor_entries(0))).rel_id
        host.set_relationship_property(rel_id, "since", 2015)
        migrate(cluster, {0: (0, 2), 1: (1, 2)})
        cluster.validate()
        assert (
            cluster.servers[2].store.get_relationship_property(rel_id, "since")
            == 2015
        )

    def test_endpoints_swap_servers(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1})
        migrate(cluster, {0: (0, 1), 1: (1, 0)})
        cluster.validate()

    def test_chain_of_moves_same_source(self):
        graph = SocialGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        cluster = build_cluster(graph, {0: 0, 1: 0, 2: 0})
        migrate(cluster, {0: (0, 1), 1: (0, 2)})
        cluster.validate()

    def test_empty_plan(self):
        graph = SocialGraph()
        graph.add_vertex(0)
        cluster = build_cluster(graph, {0: 0})
        report = migrate(cluster, {})
        assert report.vertices_moved == 0
        assert report.total_cost == 0.0


class TestFailureAndEdgePaths:
    def test_empty_plan_direct_through_executor(self):
        graph = SocialGraph()
        graph.add_vertex(0)
        cluster = build_cluster(graph, {0: 0})
        before = cluster.network.stats.messages
        report = cluster._executor.execute(MigrationPlan())
        assert report.vertices_moved == 0
        assert report.total_cost == 0.0
        assert report.per_target == {}
        # No barrier broadcast, no transfers: the network saw nothing.
        assert cluster.network.stats.messages == before

    def test_noop_move_rejected_at_planning(self):
        with pytest.raises(PartitioningError):
            build_migration_plan({0: (1, 1)})

    def test_missing_vertex_raises_cluster_error(self):
        graph = SocialGraph()
        graph.add_vertex(0)
        cluster = build_cluster(graph, {0: 0})
        plan = MigrationPlan(moves=[VertexMove(vertex=99, source=0, target=1)])
        with pytest.raises(ClusterError, match="does not host vertex 99"):
            cluster._executor.execute(plan)

    def test_wrong_source_raises_cluster_error(self):
        """A stale plan naming a server that no longer hosts the vertex."""
        graph = SocialGraph()
        graph.add_vertex(0)
        cluster = build_cluster(graph, {0: 0})
        plan = MigrationPlan(moves=[VertexMove(vertex=0, source=2, target=1)])
        with pytest.raises(ClusterError):
            cluster._executor.execute(plan)

    def test_a_stale_move_part_way_through_a_pair_rolls_the_pair_back(self):
        """A copy step moves a whole (source, target) pair; when its third
        copy fails, the two that landed are retired too."""
        graph = SocialGraph.from_edges([(0, 1), (1, 2), (2, 5), (0, 5)])
        cluster = build_cluster(graph, {0: 0, 1: 0, 2: 0, 5: 2})
        before = deep_snapshot(cluster)
        plan = MigrationPlan(
            moves=[VertexMove(vertex=v, source=0, target=1) for v in (0, 1, 5)]
        )
        assert list(plan.by_pair()) == [(0, 1)]
        with pytest.raises(ClusterError, match="does not host vertex 5") as raised:
            cluster._executor.execute(plan)
        assert raised.value.report.vertices_moved == 2
        assert deep_snapshot(cluster) == before
        assert not cluster._executor.window_open
        cluster.validate()

    def test_ghost_fixup_when_dst_endpoint_moves(self):
        """Edge (0, 1) local on server 0; the *dst* endpoint moves away.

        The primary record must stay with src's host and the mover's new
        server must end up with a ghost — the remove step has to flip the
        roles it would get wrong by copying alone.
        """
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 0})
        migrate(cluster, {1: (0, 2)})
        cluster.validate()
        rel_id = next(iter(cluster.servers[0].store.neighbor_entries(0))).rel_id
        assert not cluster.servers[0].store.relationship(rel_id).ghost
        assert cluster.servers[2].store.relationship(rel_id).ghost

    def test_ghost_counterpart_follows_mover(self):
        """Cross-partition edge: the ghost side moves to a third server and
        must still be a ghost there (src stayed put)."""
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1})
        migrate(cluster, {1: (1, 2)})
        cluster.validate()
        rel_id = next(iter(cluster.servers[0].store.neighbor_entries(0))).rel_id
        assert not cluster.servers[0].store.relationship(rel_id).ghost
        assert cluster.servers[2].store.relationship(rel_id).ghost
        assert not cluster.servers[1].store.has_relationship(rel_id)

    def test_telemetry_counters_match_report(self):
        hub = Telemetry()
        graph = SocialGraph.from_edges([(0, 1), (0, 2)])
        partitioning = Partitioning.from_mapping(
            {0: 0, 1: 0, 2: 0}, num_partitions=3
        )
        cluster = HermesCluster.from_graph(
            graph, num_servers=3, partitioning=partitioning, telemetry=hub
        )
        report = migrate(cluster, {0: (0, 1)})
        registry = hub.registry
        mine = {"cluster": cluster.cluster_id}
        assert registry.total("migration_vertices_moved_total", **mine) == 1
        assert (
            registry.total("migration_bytes_total", **mine)
            == report.bytes_transferred
        )
        assert (
            registry.total("migration_relationships_transferred_total", **mine)
            == report.relationships_transferred
        )
        phase_sum = sum(
            registry.value("migration_phase_seconds_total", phase=phase, **mine)
            for phase in ("copy", "barrier", "remove")
        )
        assert phase_sum == pytest.approx(report.total_cost / 1e9)


class TestReporting:
    def test_report_counts(self):
        graph = SocialGraph.from_edges([(0, 1), (0, 2)])
        cluster = build_cluster(graph, {0: 0, 1: 0, 2: 0})
        report = migrate(cluster, {0: (0, 1)})
        assert report.vertices_moved == 1
        assert report.relationships_transferred == 2
        assert report.bytes_transferred > 0
        assert report.copy_cost > 0
        assert report.barrier_cost > 0
        assert report.per_target == {1: 1}


@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_random_migrations_keep_cluster_consistent(seed, num_servers):
    """Random graphs + random move sets must always pass the deep
    cross-layer validation."""
    rng = random.Random(seed)
    graph = make_random_graph(14, 24, seed=seed % 1000)
    cluster = HermesCluster.from_graph(
        graph,
        num_servers=num_servers,
        partitioner=HashPartitioner(salt=seed % 7),
    )
    moves = {}
    for vertex in list(graph.vertices()):
        if rng.random() < 0.4:
            source = cluster.catalog.lookup(vertex)
            target = rng.randrange(num_servers)
            if target != source:
                moves[vertex] = (source, target)
    migrate(cluster, moves)
    cluster.validate()
