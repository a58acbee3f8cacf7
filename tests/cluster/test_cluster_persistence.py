"""Tests for whole-cluster save/load (stores as the source of truth)."""

import pytest

from repro.cluster import ClientPool, HermesCluster
from repro.core import AuxiliaryData, RepartitionerConfig
from repro.graph.generators import community_graph
from repro.partitioning import MultilevelPartitioner
from repro.workloads import mixed_trace


def looped_aux(cluster):
    """Auxiliary data built one record at a time from the stores: one
    ``add_vertex`` per available node, in store order, then one
    ``add_edge`` per primary relationship record."""
    aux = AuxiliaryData(cluster.num_servers)
    for server in cluster.servers:
        for node_id in server.store.node_ids():
            node = server.store.node(node_id)
            if node.available:
                aux.add_vertex(node_id, server.server_id, node.weight)
    seen = set()
    for server in cluster.servers:
        for record in server.store.relationships.records():
            if not record.ghost and record.rel_id not in seen:
                seen.add(record.rel_id)
                aux.add_edge(record.src, record.dst)
    return aux


def aux_image(aux, vertices):
    """Rows, counts and ``repr`` of every weight and of the partition
    weights."""
    return (
        [
            (v, aux._locate(v), aux.neighbor_counts(v), repr(aux.weight_of(v)))
            for v in vertices
        ],
        repr(aux.partition_weights),
    )


@pytest.fixture
def cluster():
    graph = community_graph(150, seed=41)
    return HermesCluster.from_graph(
        graph,
        num_servers=3,
        partitioner=MultilevelPartitioner(seed=41),
        repartitioner=RepartitionerConfig(epsilon=1.1, k=2),
    )


class TestClusterSaveLoad:
    def test_roundtrip_preserves_everything(self, cluster, tmp_path):
        cluster.rebalance(force=True)
        directory = str(tmp_path / "cluster")
        cluster.save(directory)
        reloaded = HermesCluster.load_cluster(directory)
        reloaded.validate()
        assert reloaded.graph.num_vertices == cluster.graph.num_vertices
        assert reloaded.graph.num_edges == cluster.graph.num_edges
        assert reloaded.edge_cut() == cluster.edge_cut()
        assert reloaded.catalog.as_mapping() == cluster.catalog.as_mapping()
        for vertex in list(cluster.graph.vertices())[:10]:
            assert reloaded.graph.weight(vertex) == pytest.approx(
                cluster.graph.weight(vertex)
            )

    def test_reloaded_cluster_serves_traffic(self, cluster, tmp_path):
        directory = str(tmp_path / "cluster")
        cluster.save(directory)
        reloaded = HermesCluster.load_cluster(directory)
        pool = ClientPool(reloaded, num_clients=4)
        report = pool.run(
            mixed_trace(reloaded.graph, 50, write_fraction=0.2, seed=1)
        )
        assert report.operations == 50
        reloaded.validate()

    def test_reloaded_cluster_can_repartition(self, cluster, tmp_path):
        directory = str(tmp_path / "cluster")
        cluster.save(directory)
        reloaded = HermesCluster.load_cluster(directory)
        for vertex in list(reloaded.catalog.vertices_on(0)):
            reloaded.aux.set_weight(vertex, 10.0)
        outcome = reloaded.rebalance()
        assert outcome is not None
        reloaded.validate()

    def test_reopened_aux_is_the_per_record_build(self, tmp_path):
        """Reopening bootstraps the auxiliary data in one pass; it must
        equal the per-record build bit for bit, and start from the stored
        weights: popularity gathered before the save is soft state."""
        graph = community_graph(150, seed=41)
        for vertex in graph.vertices():
            graph.set_weight(vertex, 1.0 + (vertex % 7) / 10)
        cluster = HermesCluster.from_graph(
            graph, num_servers=3, partitioner=MultilevelPartitioner(seed=41)
        )
        cluster.rebalance(force=True)
        for vertex in sorted(cluster.graph.vertices())[:40]:
            cluster.traverse(vertex, 1)
        cluster.servers[1].store.create_node(10**6, available=False)
        directory = str(tmp_path / "cluster")
        cluster.save(directory)
        reloaded = HermesCluster.load_cluster(directory)
        vertices = list(reloaded.graph.vertices())
        assert aux_image(reloaded.aux, vertices) == aux_image(
            looped_aux(reloaded), vertices
        )
        for vertex in vertices:
            assert reloaded.aux.weight_of(vertex) == graph.weight(vertex)
        reloaded.validate()

    def test_mid_migration_unavailable_replicas_excluded(self, cluster, tmp_path):
        """A node that was marked unavailable (a crashed remove step)
        must not be treated as a second home after reload."""
        vertex = next(iter(cluster.catalog.vertices_on(0)))
        # Simulate a stale unavailable replica on another server.
        cluster.servers[1].store.create_node(vertex + 10**6, available=False)
        directory = str(tmp_path / "cluster")
        cluster.save(directory)
        reloaded = HermesCluster.load_cluster(directory)
        assert (vertex + 10**6) not in reloaded.catalog
