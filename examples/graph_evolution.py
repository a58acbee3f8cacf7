"""Graph evolution under mixed read/write traffic (the Figure 10 story).

A DBLP-like co-authorship network grows while being queried: new authors
join, new collaborations form (mostly by triadic closure), and the
lightweight repartitioner periodically restores partition quality after
the inserts.

Run with::

    python examples/graph_evolution.py
"""

from repro.cluster import ClientPool, HermesCluster
from repro.core import RepartitionerConfig
from repro.graph import dblp_like
from repro.partitioning import MultilevelPartitioner
from repro.workloads import mixed_trace


def main() -> None:
    dataset = dblp_like(n=600, seed=11)
    cluster = HermesCluster.from_graph(
        dataset.graph,
        num_servers=4,
        partitioner=MultilevelPartitioner(seed=11),
        repartitioner=RepartitionerConfig(epsilon=1.1, k=4),
    )
    pool = ClientPool(cluster, num_clients=16)
    print(f"loaded: {cluster}")
    print(f"initial edge-cut: {cluster.edge_cut_fraction():.1%}")

    for epoch, write_fraction in enumerate((0.1, 0.2, 0.3), start=1):
        trace = mixed_trace(
            cluster.graph,
            num_operations=400,
            write_fraction=write_fraction,
            hops=1,
            seed=epoch,
        )
        report = pool.run(trace)
        print(
            f"epoch {epoch}: {write_fraction:.0%} writes -> "
            f"{report.writes} inserts, "
            f"{report.throughput_vertices_per_second:,.0f} vertices/s, "
            f"edge-cut now {cluster.edge_cut_fraction():.1%}"
        )
        # New records landed by hash placement; the repartitioner is run
        # "to improve the quality of partitioning after records are
        # inserted" (paper Section 5.3.3).
        outcome = cluster.rebalance(force=True)
        if outcome is not None:
            result, _ = outcome
            print(
                f"  repartitioner: {result.vertices_moved} moves, "
                f"edge-cut {cluster.edge_cut_fraction():.1%}, "
                f"imbalance {cluster.imbalance():.3f}"
            )
        cluster.validate()

    # Read popularity lives in the auxiliary data, not in the mirror graph.
    print(
        f"final graph: {cluster.graph.num_vertices} vertices, "
        f"{cluster.graph.num_edges} edges, "
        f"total popularity {cluster.aux.total_weight():g}"
    )


if __name__ == "__main__":
    main()
