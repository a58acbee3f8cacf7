"""End-to-end life-cycle test: the full Hermes story in one scenario.

Load -> serve traffic -> hotspot -> trigger -> logical repartition ->
physical migration -> keep serving -> graph evolution -> repartition
again -> persist every server -> reload -> verify.
"""

import os

import pytest

from repro.cluster import ClientPool, HermesCluster
from repro.core import RepartitionerConfig
from repro.graph import dblp_like
from repro.partitioning import MultilevelPartitioner
from repro.storage import GraphStore
from repro.workloads import TraceConfig, hotspot_trace, mixed_trace


@pytest.fixture(scope="module")
def scenario():
    dataset = dblp_like(n=300, seed=21)
    cluster = HermesCluster.from_graph(
        dataset.graph,
        num_servers=4,
        partitioner=MultilevelPartitioner(seed=21),
        repartitioner=RepartitionerConfig(epsilon=1.1, k=3),
    )
    return cluster


def test_full_lifecycle(scenario, tmp_path_factory):
    cluster = scenario
    pool = ClientPool(cluster, num_clients=8)
    vertices = list(cluster.graph.vertices())
    hot = sorted(cluster.catalog.vertices_on(0))

    # 1. Serve skewed read traffic until the trigger fires.
    report = pool.run(
        hotspot_trace(vertices, hot, TraceConfig(num_queries=250, hops=1, seed=1))
    )
    assert report.processed_vertices > 0
    assert cluster.imbalance() > 1.0

    # 2. Repartition (forced, in case the skew was mild this seed).
    outcome = cluster.rebalance(force=True)
    assert outcome is not None
    result, migration = outcome
    cluster.validate()
    assert migration.vertices_moved == result.vertices_moved

    # 3. Traffic keeps flowing against the migrated layout.
    report2 = pool.run(
        hotspot_trace(vertices, hot, TraceConfig(num_queries=100, hops=2, seed=2))
    )
    assert report2.processed_vertices > 0

    # 4. The graph evolves under mixed traffic.
    before_vertices = cluster.graph.num_vertices
    pool.run(mixed_trace(cluster.graph, 150, write_fraction=0.4, seed=3))
    assert cluster.graph.num_vertices >= before_vertices
    cluster.validate()

    # 5. Repartition the evolved graph, then run pure reads.
    cluster.rebalance(force=True)
    cluster.validate()
    final = pool.run(
        mixed_trace(cluster.graph, 100, write_fraction=0.0, seed=4)
    )
    assert final.processed_vertices > 0
    assert cluster.imbalance() < 1.6

    # 6. Persist every server's stores and reload them.
    base = tmp_path_factory.mktemp("stores")
    for server in cluster.servers:
        directory = os.path.join(str(base), f"server-{server.server_id}")
        server.store.save(directory)
        reloaded = GraphStore.load(directory)
        assert len(reloaded.nodes) == len(server.store.nodes)
        assert len(reloaded.relationships) == len(server.store.relationships)
        # Spot-check adjacency equality for a few nodes.
        for node_id in list(reloaded.node_ids())[:5]:
            assert sorted(reloaded.neighbors(node_id)) == sorted(
                server.store.neighbors(node_id)
            )


def test_throughput_accounting_consistency(scenario):
    """Busy time never exceeds what the visits could have consumed, and
    the measured makespan sits between the hottest server's busy time and
    the summed cost of every operation."""
    cluster = scenario
    pool = ClientPool(cluster, num_clients=4)
    vertices = list(cluster.graph.vertices())
    report = pool.run(
        hotspot_trace(
            vertices,
            vertices[:10],
            TraceConfig(num_queries=60, hops=1, seed=5),
        )
    )
    assert report.wall_time >= report.max_server_busy
    assert report.wall_time <= report.total_cost
    assert sum(report.server_busy.values()) > 0
