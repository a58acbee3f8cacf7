"""ConcurrentExecutor: interleaved operations against a real cluster."""

import dataclasses

import pytest

from repro.concurrency import ConcurrencyConfig
from repro.concurrency.engine import ConcurrentExecutor
from repro.exceptions import ClusterError
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning
from repro.cluster.hermes import HermesCluster
from repro.workloads.queries import InsertEdge, InsertVertex, ReadVertex, Traversal

from tests.conftest import make_random_graph


def build_cluster(n=40, edges=80, servers=3, seed=5, **kwargs):
    graph = make_random_graph(n, edges, seed=seed)
    return HermesCluster.from_graph(
        graph,
        num_servers=servers,
        **kwargs,
    )


class TestConfig:
    def test_config_round_trips(self):
        config = ConcurrencyConfig(check_window_coherence=False)
        assert ConcurrencyConfig.from_dict(dataclasses.asdict(config)) == config

    def test_from_dict_ignores_retired_keys(self):
        # Old replay artifacts and the e2e benchmark adapter may still
        # carry keys of options that no longer exist.
        config = ConcurrencyConfig.from_dict(
            {"enabled": True, "online_migration": False}
        )
        assert config == ConcurrencyConfig()
        config = ConcurrencyConfig.from_dict(
            {"enabled": False, "check_window_coherence": False}
        )
        assert config == ConcurrencyConfig(check_window_coherence=False)


class TestClockParity:
    """Each task folds its step costs into the cluster clock exactly as
    the serial path charges the whole operation at once."""

    @pytest.mark.parametrize(
        "operation",
        [
            Traversal(start=0, hops=2),
            ReadVertex(3),
            InsertVertex(1000),
            InsertEdge(0, 39),
        ],
    )
    def test_single_operation_advances_clock_like_serial(self, operation):
        serial = build_cluster()
        concurrent = build_cluster()

        if isinstance(operation, Traversal):
            serial.traverse(operation.start, hops=operation.hops)
        elif isinstance(operation, ReadVertex):
            serial.read_vertex(operation.vertex)
        elif isinstance(operation, InsertVertex):
            serial.add_vertex(operation.vertex)
        else:
            serial.add_edge(operation.u, operation.v)

        engine = ConcurrentExecutor(concurrent)
        handle = engine.submit_operation(operation)
        engine.run()
        assert handle.ok, handle.error
        assert concurrent.now_ns == serial.now_ns
        _, cost = handle.result
        assert cost == serial.now_ns

    def test_batch_costs_sum_identically(self):
        serial = build_cluster()
        concurrent = build_cluster()
        operations = [Traversal(start=v, hops=1) for v in range(0, 20, 4)]
        for op in operations:
            serial.traverse(op.start, hops=op.hops)
        engine = ConcurrentExecutor(concurrent)
        for op in operations:
            engine.submit_operation(op)
        engine.run()
        # Interleaving changes the *event timeline*, never the summed
        # execution cost: weight-bump order is commutative here because
        # the traversal starts are disjoint 1-hop neighborhoods or not --
        # the clock is a pure sum of per-step costs either way.
        assert concurrent.now_ns == serial.now_ns

    def test_traversal_pauses_between_depths(self):
        cluster = build_cluster()
        engine = ConcurrentExecutor(cluster)
        handle = engine.submit_operation(Traversal(start=0, hops=2))
        engine.run()
        # dispatch + one event per depth, at minimum
        assert handle.steps >= 2

    def test_makespan_below_serial_sum_with_many_clients(self):
        cluster = build_cluster(n=60, edges=120)
        engine = ConcurrentExecutor(cluster)
        handles = [
            engine.submit_operation(Traversal(start=v, hops=1))
            for v in range(0, 60, 3)
        ]
        makespan = engine.run()
        total = sum(handle.result[1] for handle in handles)
        assert makespan < total  # genuine overlap across servers


class TestFailureHandling:
    def test_failed_operation_recorded_not_raised(self):
        cluster = build_cluster()
        engine = ConcurrentExecutor(cluster)
        bad = engine.submit_operation(ReadVertex(10**9))
        good = engine.submit_operation(ReadVertex(0))
        engine.run()
        assert bad in engine.failures()
        assert good.ok

    @pytest.mark.parametrize("hops", [-1, 1.5])
    def test_invalid_hops_fails_the_task_before_anything_is_charged(self, hops):
        """The dispatch step used to be yielded (clock charged, span
        opened) before ``range(hops + 1)`` raised a bare TypeError."""
        cluster = build_cluster()
        cluster.start_tracing()
        engine = ConcurrentExecutor(cluster)
        bad = engine.submit_operation(Traversal(start=0, hops=hops))
        engine.run()
        assert isinstance(bad.error, ClusterError) and bad.steps == 0
        assert cluster.now == 0.0
        tracer = cluster.telemetry.tracer
        assert not tracer._stack
        assert not [span for span in tracer.spans if span["name"] == "traversal"]
        assert (
            cluster.telemetry.registry.total(
                "traversals_total", cluster=cluster.cluster_id
            )
            == 0
        )

    def test_clean_run_has_no_violations(self):
        cluster = build_cluster()
        engine = ConcurrentExecutor(cluster)
        for v in range(0, 12, 3):
            engine.submit_operation(Traversal(start=v, hops=1))
        engine.run()
        assert engine.monotonicity_violations() == []
        assert engine.coherence_violations == []
        cluster.validate()


class TestStaleFrontierRefresh:
    """Satellite regression: a traversal paused across a migration
    commit must re-resolve its frontier instead of hopping to the
    vertex's old (now record-less) home."""

    def build_line_cluster(self):
        # 0 -- 1 -- 2 on three servers; traversal 0 ->(1) ->(2).
        graph = SocialGraph.from_edges([(0, 1), (1, 2)])
        placement = Partitioning.from_mapping(
            {0: 0, 1: 1, 2: 2}, num_partitions=3
        )
        return HermesCluster.from_graph(
            graph,
            num_servers=3,
            partitioning=placement,
        )

    def move_vertex(self, cluster, vertex, target):
        source = cluster.catalog.lookup(vertex)
        moves = {vertex: (source, target)}
        cluster.aux.apply_move(
            vertex, target, cluster.graph.neighbors(vertex)
        )
        cluster._apply_moves(moves)

    def test_commit_bumps_topology_epoch(self):
        cluster = self.build_line_cluster()
        epoch = cluster._engine.topology_epoch
        self.move_vertex(cluster, 2, 0)
        assert cluster._engine.topology_epoch == epoch + 1

    def run_paused_migration_scenario(self, cluster, target):
        """Pause after depth 1, move vertex 2 to ``target``, resume."""
        steps = cluster._engine.traverse_steps(0, 2)
        for step in steps:
            if step.kind == "hop" and step.depth == 1:
                # Depth-2 frontier (vertex 2 @ server 2) is now stale.
                self.move_vertex(cluster, 2, target)
                break
        depth2 = next(steps)
        assert depth2.depth == 2
        for _ in steps:
            pass
        cluster.validate()
        return depth2

    def test_paused_traversal_follows_migrated_vertex(self):
        # The discovering server (1) participates in the migration, so
        # its location cache already knows the new home --
        # the refreshed frontier must skip server 2 entirely instead of
        # paying a forwarding hop against the stale host.
        cluster = self.build_line_cluster()
        depth2 = self.run_paused_migration_scenario(cluster, target=1)
        assert 2 not in depth2.busy
        assert 1 in depth2.busy

    def test_without_migration_frontier_is_untouched(self):
        cluster = self.build_line_cluster()
        result = cluster.traverse(0, hops=2)
        assert sorted(result.response) == [0, 1, 2]
