"""Tests for mixed read/write traces and the client pool."""

import pytest

from repro.cluster.clients import ClientPool
from repro.cluster.faults import FaultPlan
from repro.cluster.network import seconds
from repro.cluster.server import HermesServer
from repro.exceptions import WorkloadError
from repro.graph.generators import community_graph
from repro.cluster.hermes import HermesCluster
from repro.partitioning.hashing import HashPartitioner
from repro.workloads.mixed import mixed_trace
from repro.workloads.queries import InsertEdge, InsertVertex, ReadVertex, Traversal
from tests.conftest import crash_plan, make_random_graph


class TestMixedTrace:
    def test_write_fraction_respected(self):
        graph = make_random_graph(50, 100, seed=1)
        ops = list(mixed_trace(graph, 2000, write_fraction=0.3, seed=2))
        writes = sum(1 for op in ops if isinstance(op, (InsertEdge, InsertVertex)))
        assert 0.25 < writes / len(ops) < 0.35

    def test_pure_reads(self):
        graph = make_random_graph(20, 30, seed=3)
        ops = list(mixed_trace(graph, 100, write_fraction=0.0, seed=4))
        assert all(isinstance(op, Traversal) for op in ops)

    def test_validation(self):
        graph = make_random_graph(10, 10, seed=5)
        with pytest.raises(WorkloadError):
            list(mixed_trace(graph, 10, write_fraction=1.5))
        with pytest.raises(WorkloadError):
            list(mixed_trace(graph, -1, write_fraction=0.1))


class TestClientPool:
    @pytest.fixture
    def cluster(self):
        graph = community_graph(80, seed=6)
        return HermesCluster.from_graph(
            graph, num_servers=3, partitioner=HashPartitioner()
        )

    def test_runs_full_trace(self, cluster):
        pool = ClientPool(cluster, num_clients=4)
        trace = mixed_trace(cluster.graph, 50, write_fraction=0.2, seed=7)
        report = pool.run(trace)
        assert report.operations == 50
        assert report.traversals + report.writes == 50
        assert report.total_cost > 0
        # The engine runs a depth's per-server demands in parallel, so
        # the makespan may fall below total_cost / clients; it is bounded
        # by the hottest server and by running everything back to back.
        assert report.max_server_busy <= report.wall_time <= report.total_cost
        cluster.validate()

    def test_duration_budget_stops_early(self, cluster):
        pool = ClientPool(cluster, num_clients=4)
        trace = mixed_trace(cluster.graph, 10**6, write_fraction=0.0, seed=8)
        report = pool.run(trace, duration=0.001)
        assert report.operations < 10**6
        assert report.wall_time >= 0.001

    def test_max_operations(self, cluster):
        pool = ClientPool(cluster, num_clients=4)
        trace = mixed_trace(cluster.graph, 10**6, write_fraction=0.0, seed=9)
        report = pool.run(trace, max_operations=7)
        assert report.operations == 7

    def test_read_vertex_operation(self, cluster):
        pool = ClientPool(cluster, num_clients=1)
        vertex = next(iter(cluster.graph.vertices()))
        report = pool.run([ReadVertex(vertex)])
        assert report.reads == 1
        assert report.processed_vertices == 1

    def test_throughput_metric(self, cluster):
        pool = ClientPool(cluster, num_clients=2)
        trace = mixed_trace(cluster.graph, 40, write_fraction=0.0, seed=10)
        report = pool.run(trace)
        assert report.throughput_vertices_per_second > 0
        assert 0 < report.response_processed_ratio <= 1.0

    def test_invalid_clients(self, cluster):
        with pytest.raises(WorkloadError):
            ClientPool(cluster, num_clients=0)

    def test_unknown_operation_rejected(self, cluster):
        pool = ClientPool(cluster, num_clients=1)
        with pytest.raises(WorkloadError):
            pool.run(["not-an-operation"])

    def test_empty_report_properties(self, cluster):
        pool = ClientPool(cluster, num_clients=2)
        report = pool.run([])
        assert report.wall_time == 0.0
        assert report.throughput_vertices_per_second == 0.0
        assert report.response_processed_ratio == 0.0

    def test_run_reports_engine_makespan(self, cluster):
        pool = ClientPool(cluster, num_clients=2)
        assert pool.last_engine is None
        report = pool.run(mixed_trace(cluster.graph, 10, 0.0, seed=11))
        assert report.wall_time > 0
        assert report.wall_time == pool.last_engine.scheduler.now
        handles = pool.last_engine.scheduler.handles.values()
        assert [handle.label for handle in handles] == pool.client_ids

    def test_trace_is_drawn_lazily_round_robin(self, cluster):
        """An endless trace is drawn only as far as the clients get, and
        the i-th operation still belongs to client i % clients."""
        drawn = []

        def endless():
            vertices = sorted(cluster.graph.vertices())
            index = 0
            while True:
                drawn.append(index)
                yield ReadVertex(vertices[index % len(vertices)])
                index += 1

        pool = ClientPool(cluster, num_clients=3)
        report = pool.run(endless(), duration=0.002)
        # A client out of time draws nothing; one still running may have
        # drawn ahead for the others (fewer than one per client).
        assert 0 < report.operations <= len(drawn)
        assert len(drawn) < report.operations + pool.num_clients
        per_client = [report.client_operations[c] for c in pool.client_ids]
        assert max(per_client) - min(per_client) <= 1


def run_inline(cluster, trace):
    """Each operation to completion through the cluster's inline entry
    points, one after another; returns ``(counts by type, total cost in
    ns)``."""
    counts, total = {}, 0
    for operation in trace:
        if isinstance(operation, Traversal):
            total += cluster.traverse(operation.start, operation.hops).cost
        elif isinstance(operation, ReadVertex):
            total += cluster.read_vertex(operation.vertex)[1]
        elif isinstance(operation, InsertVertex):
            total += cluster.add_vertex(
                operation.vertex, weight=operation.weight
            )
        else:
            total += cluster.add_edge(operation.u, operation.v)
        kind = type(operation).__name__
        counts[kind] = counts.get(kind, 0) + 1
    return counts, total


class TestClientPoolConcurrent:
    """The trace through the event scheduler: the totals of running it
    inline, measured (overlapped) wall time, failures recorded not
    raised."""

    def build(self):
        graph = community_graph(80, seed=6)
        return HermesCluster.from_graph(
            graph, num_servers=3, partitioner=HashPartitioner()
        )

    def test_concurrent_run_matches_serial_totals(self):
        serial_cluster = self.build()
        concurrent_cluster = self.build()
        trace = list(
            mixed_trace(serial_cluster.graph, 60, write_fraction=0.2, seed=12)
        )
        counts, serial_cost = run_inline(serial_cluster, trace)
        concurrent = ClientPool(concurrent_cluster, num_clients=4).run(
            list(trace)
        )
        assert concurrent.operations == len(trace)
        assert concurrent.traversals == counts.get("Traversal", 0)
        assert concurrent.reads == counts.get("ReadVertex", 0)
        assert concurrent.writes == (
            counts.get("InsertVertex", 0) + counts.get("InsertEdge", 0)
        )
        assert concurrent.writes > 0
        assert concurrent.total_cost == seconds(serial_cost)
        assert concurrent.failed_operations == 0
        concurrent_cluster.validate()

    def test_measured_wall_time_reflects_overlap(self):
        cluster = self.build()
        pool = ClientPool(cluster, num_clients=8)
        report = pool.run(
            mixed_trace(cluster.graph, 80, write_fraction=0.0, seed=13)
        )
        # Eight clients over three servers: the makespan sits strictly
        # between perfect server-parallelism and the serial sum.
        assert report.wall_time < report.total_cost
        assert report.wall_time >= report.max_server_busy
        assert pool.last_engine is not None
        assert pool.last_engine.monotonicity_violations() == []

    def test_failed_operation_counted_and_trace_continues(self):
        cluster = self.build()
        pool = ClientPool(cluster, num_clients=1)
        vertex = next(iter(cluster.graph.vertices()))
        report = pool.run(
            [ReadVertex(10**9), ReadVertex(vertex), ReadVertex(vertex)]
        )
        assert report.failed_operations == 1
        assert report.operations == 2
        assert report.reads == 2


class TestFailedOperationAccounting:
    """A cluster error fails one operation, not the run: it is counted
    and its client moves on."""

    def build(self):
        return HermesCluster.from_graph(
            community_graph(80, seed=6),
            num_servers=3,
            partitioner=HashPartitioner(),
        )

    def test_serial_failed_operation_counted_and_trace_continues(self):
        """One client runs its operations one after another: a failure
        in the middle of its trace is counted and the operations after
        it still run."""
        cluster = self.build()
        pool = ClientPool(cluster, num_clients=1)
        vertex = next(iter(cluster.graph.vertices()))
        report = pool.run(
            [ReadVertex(vertex), ReadVertex(10**9), ReadVertex(vertex)]
        )
        assert report.failed_operations == 1
        assert report.operations == 2
        assert report.reads == 2
        assert report.client_operations[pool.client_ids[0]] == 2
        cluster.validate()

    def test_crashed_placement_target_fails_one_insert_only(self):
        cluster = self.build()
        new_vertex = 10**6
        cluster.attach_faults(crash_plan(cluster.placement_target(new_vertex)))
        survivor = next(
            v
            for v in sorted(cluster.graph.vertices())
            if not cluster.faults.is_down(cluster.catalog.lookup(v))
        )
        pool = ClientPool(cluster, num_clients=2)
        report = pool.run(
            [ReadVertex(survivor), InsertVertex(new_vertex), ReadVertex(survivor)]
        )
        assert report.failed_operations == 1
        assert report.operations == 2
        assert report.reads == 2 and report.writes == 0
        assert new_vertex not in cluster.catalog
        # Clients keep their round-robin slots: the failed insert was
        # client-1's, both reads were client-0's.
        assert report.client_operations == {"client-0": 2}
        cluster.attach_faults(None)
        cluster.validate()

    def test_aborted_periodic_rebalance_does_not_end_the_run(self):
        cluster = self.build()
        for vertex in list(cluster.catalog.vertices_on(0)):
            cluster.aux.add_weight(vertex, 50.0)
        assert cluster.check_trigger().should_repartition
        # Every link is dead: each triggered rebalance aborts and rolls
        # back; single-record reads never cross a link and keep flowing.
        cluster.attach_faults(FaultPlan(loss_rate=1.0))
        vertices = sorted(cluster.graph.vertices())[:6]
        report = ClientPool(cluster, num_clients=1).run(
            [ReadVertex(v) for v in vertices], rebalance_every=2
        )
        assert report.operations == 6
        assert report.failed_operations == 0
        registry = cluster.telemetry.registry
        assert registry.value("rebalance_aborts_total", cluster=cluster.cluster_id) == 3
        cluster.attach_faults(None)
        cluster.validate()

    def test_malformed_trace_is_not_a_failed_operation(self):
        cluster = self.build()
        pool = ClientPool(cluster, num_clients=2)
        vertex = next(iter(cluster.graph.vertices()))
        with pytest.raises(WorkloadError):
            pool.run([ReadVertex(vertex), "not-an-operation"])


class TestMidRunServerRegistration:
    """Satellite regression: a server registered after the run starts
    (elastic scale-out) must be baselined at first observation — its
    pre-join busy time must not be double-counted into the report's
    ``max_server_busy``, nor raise a KeyError."""

    def make_cluster(self):
        graph = community_graph(60, seed=14)
        return HermesCluster.from_graph(
            graph, num_servers=3, partitioner=HashPartitioner()
        )

    def join_busy_server(self, cluster, busy=100.0):
        # Stripe the new server's id allocator over the grown fleet so
        # its own id is a valid stripe.
        server = HermesServer(
            len(cluster.servers),
            len(cluster.servers) + 1,
            telemetry=cluster.telemetry,
        )
        server.busy_counter.inc(busy)
        cluster.servers.append(server)
        return server

    def test_prejoin_busy_time_is_not_double_counted(self):
        cluster = self.make_cluster()
        pool = ClientPool(cluster, num_clients=2)

        class JoinMidRun:
            """Trace that registers a hot server after the first op."""

            def __init__(self, ops, hook):
                self.ops, self.hook = ops, hook

            def __iter__(self):
                for index, op in enumerate(self.ops):
                    if index == 1:
                        self.hook()
                    yield op

        ops = list(mixed_trace(cluster.graph, 30, 0.0, seed=15))
        trace = JoinMidRun(ops, lambda: self.join_busy_server(cluster))
        report = pool.run(trace, duration=10**9)
        joined_id = len(cluster.servers) - 1
        # The late server did no work during the run: its delta is zero,
        # and the hottest-server bound comes from the original three.
        assert report.server_busy[joined_id] == pytest.approx(0.0)
        assert report.max_server_busy < 100.0
        assert report.max_server_busy == pytest.approx(
            max(
                delta
                for server_id, delta in report.server_busy.items()
                if server_id != joined_id
            )
        )
