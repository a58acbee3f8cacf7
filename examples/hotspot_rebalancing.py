"""Hotspot rebalancing on a full simulated cluster (the Figure 9 story).

Loads a Twitter-like graph into an 8-server Hermes cluster, drives the
paper's skewed 1-hop traversal workload (one partition's users selected
twice as often), lets the imbalance trigger fire, physically migrates the
chosen vertices with the two-step copy/remove protocol, and compares
throughput before and after.

Run with::

    python examples/hotspot_rebalancing.py
"""

from repro.cluster import ClientPool, HermesCluster
from repro.cluster.network import seconds
from repro.core import RepartitionerConfig
from repro.graph import twitter_like
from repro.partitioning import MultilevelPartitioner
from repro.workloads import TraceConfig, hotspot_trace


def main() -> None:
    dataset = twitter_like(n=800, seed=7)
    cluster = HermesCluster.from_graph(
        dataset.graph,
        num_servers=8,
        partitioner=MultilevelPartitioner(seed=7),
        repartitioner=RepartitionerConfig(epsilon=1.1, k=4),
    )
    print(f"loaded: {cluster}")

    vertices = list(cluster.graph.vertices())
    hot_users = sorted(cluster.catalog.vertices_on(0))
    pool = ClientPool(cluster, num_clients=32)

    def skewed_trace(num_queries: int, seed: int):
        return hotspot_trace(
            vertices,
            hot_users,
            TraceConfig(num_queries=num_queries, hops=1, seed=seed),
            hot_multiplier=2.0,
        )

    # Phase 1: the skew shifts load onto partition 0.
    before = pool.run(skewed_trace(600, seed=1))
    print(
        f"under skew: {before.processed_vertices:,} vertices visited, "
        f"{before.remote_hops:,} remote hops, "
        f"imbalance {cluster.imbalance():.3f}"
    )

    # Phase 2: the trigger fires; phase-1 logical migration picks the
    # moves, phase-2 physically copies records and removes the originals.
    decision = cluster.check_trigger()
    print(
        f"trigger: overloaded={decision.overloaded} "
        f"underloaded={decision.underloaded}"
    )
    outcome = cluster.rebalance(force=True)
    assert outcome is not None
    result, migration = outcome
    print(
        f"repartitioner: {result.iterations} iterations, "
        f"{result.vertices_moved} vertices moved, "
        f"edge-cut {result.initial_edge_cut} -> {result.final_edge_cut}"
    )
    print(
        f"physical migration: {migration.relationships_transferred} relationship "
        f"records shipped, {migration.bytes_transferred:,} bytes, "
        f"{seconds(migration.total_cost) * 1000:.1f} ms simulated"
    )
    cluster.validate()  # deep cross-layer consistency check

    # Phase 3: same workload again — higher locality, better balance.
    after = pool.run(skewed_trace(600, seed=2))
    print(
        f"after rebalancing: {after.processed_vertices:,} vertices visited, "
        f"{after.remote_hops:,} remote hops, imbalance {cluster.imbalance():.3f}"
    )
    speedup = (
        after.throughput_vertices_per_second
        / before.throughput_vertices_per_second
    )
    print(f"throughput change: {speedup:.2f}x")


if __name__ == "__main__":
    main()
