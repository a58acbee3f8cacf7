"""Tests for the SPAR-style one-hop replicator."""

import pytest

from repro.cluster.replication import OneHopReplicator
from repro.graph.adjacency import SocialGraph
from repro.graph.generators import community_graph
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.telemetry import Telemetry


@pytest.fixture
def replicator():
    return OneHopReplicator()


class TestPlacements:
    def test_internal_edges_need_no_replicas(self, replicator):
        graph = SocialGraph.from_edges([(0, 1), (1, 2)])
        partitioning = Partitioning.from_mapping(
            {0: 0, 1: 0, 2: 0}, num_partitions=2
        )
        placements = replicator.placements(graph, partitioning)
        assert all(not parts for parts in placements.values())

    def test_cut_edge_replicates_both_sides(self, replicator):
        graph = SocialGraph.from_edges([(0, 1)])
        partitioning = Partitioning.from_mapping({0: 0, 1: 1})
        placements = replicator.placements(graph, partitioning)
        assert placements[0] == {1}
        assert placements[1] == {0}

    def test_one_hop_always_local(self, replicator):
        """Every neighbor of every vertex is present (primary or replica)
        on the vertex's partition — SPAR's defining guarantee."""
        graph = community_graph(120, seed=19)
        partitioning = HashPartitioner().partition(graph, 3)
        placements = replicator.placements(graph, partitioning)
        for vertex in graph.vertices():
            home = partitioning.partition_of(vertex)
            for nbr in graph.neighbors(vertex):
                nbr_home = partitioning.partition_of(nbr)
                assert nbr_home == home or home in placements[nbr]


class TestStats:
    def test_replication_factor_grows_with_cut(self, replicator):
        graph = community_graph(200, seed=20)
        good = MultilevelPartitioner(seed=20).partition(graph, 4)
        bad = HashPartitioner().partition(graph, 4)
        good_stats = replicator.stats(graph, good)
        bad_stats = replicator.stats(graph, bad)
        assert bad_stats.replication_factor > good_stats.replication_factor
        assert good_stats.replication_factor >= 1.0

    def test_write_amplification_equals_copies(self, replicator):
        graph = SocialGraph.from_edges([(0, 1)])
        partitioning = Partitioning.from_mapping({0: 0, 1: 1})
        stats = replicator.stats(graph, partitioning)
        # Each vertex has its primary + one replica: 2 copies per write.
        assert stats.write_amplification == pytest.approx(2.0)
        assert stats.replication_factor == pytest.approx(2.0)

    def test_records_per_partition_counts_replicas(self, replicator):
        graph = SocialGraph.from_edges([(0, 1)])
        partitioning = Partitioning.from_mapping({0: 0, 1: 1})
        stats = replicator.stats(graph, partitioning)
        assert stats.records_per_partition == [2, 2]

    def test_two_hop_not_fully_local(self, replicator):
        """Replicas do not carry their own adjacency: on any partitioned
        graph with cut edges, some 2-hop expansion leaves the partition."""
        graph = community_graph(150, seed=21)
        partitioning = HashPartitioner().partition(graph, 3)
        stats = replicator.stats(graph, partitioning)
        assert stats.one_hop_local_fraction == 1.0
        assert stats.two_hop_local_fraction < 1.0

    def test_empty_graph(self, replicator):
        graph = SocialGraph()
        stats = replicator.stats(graph, Partitioning(2))
        assert stats.replication_factor == 0.0
        assert stats.two_hop_local_fraction == 1.0


class TestTelemetry:
    def make_instrumented(self):
        hub = Telemetry()
        return OneHopReplicator(telemetry=hub), hub

    def test_placements_counts_computations_and_copies(self):
        replicator, hub = self.make_instrumented()
        graph = SocialGraph.from_edges([(0, 1)])
        partitioning = Partitioning.from_mapping({0: 0, 1: 1})
        replicator.placements(graph, partitioning)
        assert replicator._placements_counter.value == 1
        # One cut edge: each endpoint gets one replica across the cut.
        assert replicator._copies_counter.value == 2
        replicator.placements(graph, partitioning)
        assert replicator._placements_counter.value == 2
        assert replicator._copies_counter.value == 4

    def test_stats_exports_tradeoff_gauges(self):
        replicator, hub = self.make_instrumented()
        graph = SocialGraph.from_edges([(0, 1)])
        partitioning = Partitioning.from_mapping({0: 0, 1: 1})
        stats = replicator.stats(graph, partitioning)
        snapshot = {
            sample["name"]: sample["value"]
            for sample in hub.registry.snapshot()
            if "value" in sample
        }
        assert snapshot["replication_factor"] == pytest.approx(
            stats.replication_factor
        )
        assert snapshot["replication_total_replicas"] == 2
        assert snapshot["replication_write_amplification"] == pytest.approx(
            stats.write_amplification
        )

    def test_a_replicator_without_a_hub_counts(self):
        replicator = OneHopReplicator()
        graph = SocialGraph.from_edges([(0, 1)])
        partitioning = Partitioning.from_mapping({0: 0, 1: 1})
        replicator.placements(graph, partitioning)
        registry = replicator.telemetry.registry
        assert registry.value("replication_placements_total") == 1
