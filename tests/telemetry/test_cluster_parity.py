"""End-to-end parity: the exported JSONL must agree exactly with the
live instruments and the network's ledger (the acceptance criterion for
the telemetry subsystem).

A real cluster runs a mixed workload (traversals, point reads, writes,
one forced rebalance); the JSONL aggregate visit counts, message counts
and byte counts must equal the ``HermesServer`` instruments and the
``NetworkStats`` numbers to the last unit.
"""

import pytest

from repro.cluster.hermes import HermesCluster
from repro.core.config import RepartitionerConfig
from repro.partitioning.hashing import HashPartitioner
from repro.telemetry import Telemetry, metric_total, read_jsonl
from tests.conftest import make_random_graph


@pytest.fixture(scope="module")
def run():
    """One instrumented workload run, exported to JSONL."""
    graph = make_random_graph(60, 150, seed=9)
    hub = Telemetry(record=True)
    cluster = HermesCluster.from_graph(
        graph,
        num_servers=3,
        partitioner=HashPartitioner(salt=3),
        repartitioner=RepartitionerConfig(k=2, max_iterations=10),
        telemetry=hub,
    )
    for start in range(0, 60, 5):
        cluster.traverse(start, hops=2)
    for vertex in range(10):
        cluster.read_vertex(vertex)
    cluster.add_vertex(1000)
    cluster.add_edge(1000, 0)
    cluster.rebalance(force=True)
    return cluster


@pytest.fixture(scope="module")
def records(run, tmp_path_factory):
    path = tmp_path_factory.mktemp("telemetry") / "run.jsonl"
    lines = run.export_telemetry(str(path), meta={"workload": "parity"})
    loaded = read_jsonl(str(path))
    assert len(loaded) == lines
    return loaded


class TestMetricParity:
    def test_visits_match_server_counters(self, run, records):
        assert metric_total(records, "server_visits_total") == sum(
            server.visits_counter.value for server in run.servers
        )

    def test_per_server_visits(self, run, records):
        for server in run.servers:
            assert (
                metric_total(
                    records,
                    "server_visits_total",
                    server=server.server_id,
                    cluster=run.cluster_id,
                )
                == server.visits_counter.value
            )

    def test_reads_and_writes_match(self, run, records):
        assert metric_total(records, "server_reads_total") == sum(
            server.reads_counter.value for server in run.servers
        )
        assert metric_total(records, "server_writes_total") == sum(
            server.writes_counter.value for server in run.servers
        )

    def test_busy_seconds_match(self, run, records):
        assert metric_total(records, "server_busy_ns_total") == sum(
            server.busy_counter.value for server in run.servers
        )

    def test_messages_match_network_stats(self, run, records):
        assert (
            metric_total(records, "network_messages_total")
            == run.network.stats.messages
        )

    def test_bytes_match_network_stats(self, run, records):
        assert (
            metric_total(records, "network_bytes_total")
            == run.network.stats.bytes_sent
        )

    def test_per_link_gauges_match(self, run, records):
        for (src, dst), link in run.network.stats.per_link.items():
            labels = {"src": src, "dst": dst, "cluster": run.cluster_id}
            assert (
                metric_total(records, "network_link_messages", **labels)
                == link.messages
            )
            assert (
                metric_total(records, "network_link_bytes", **labels)
                == link.bytes
            )

    def test_migration_counters_nonzero(self, records):
        assert metric_total(records, "migration_vertices_moved_total") > 0
        assert metric_total(records, "migration_bytes_total") > 0
        assert metric_total(records, "rebalances_total") == 1

    def test_registry_agrees_before_export(self, run):
        """The live registry (not just the export) carries the same totals."""
        registry = run.telemetry.registry
        assert registry.total("server_visits_total") == sum(
            server.visits_counter.value for server in run.servers
        )
        assert registry.total("network_messages_total") == run.network.stats.messages


class TestTraceShape:
    def test_expected_span_kinds_present(self, records):
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {
            "traversal",
            "hop",
            "rebalance",
            "repartition.phase1",
            "repartition.iteration",
            "migration",
            "migration.copy",
            "migration.barrier",
            "migration.remove",
        } <= names

    def test_migration_phases_line_up(self, records):
        spans = [r for r in records if r["type"] == "span"]
        by_id = {span["span_id"]: span for span in spans}
        copy = next(s for s in spans if s["name"] == "migration.copy")
        barrier = next(s for s in spans if s["name"] == "migration.barrier")
        remove = next(s for s in spans if s["name"] == "migration.remove")
        parent = by_id[copy["parent_id"]]
        assert parent["name"] == "migration"
        assert barrier["start"] == pytest.approx(copy["end"])
        assert remove["start"] == pytest.approx(barrier["end"])
        assert parent["end"] == pytest.approx(remove["end"])

    def test_events_present(self, records):
        kinds = {r["kind"] for r in records if r["type"] == "event"}
        assert "trigger_decision" in kinds
        assert "rebalance" in kinds
        assert "repartition_iteration" in kinds

    def test_summary_renders(self, run):
        text = run.telemetry_summary()
        assert "server_visits_total" in text
        assert "Busiest network links" in text


class TestDefaults:
    def test_cluster_without_hub_keeps_legacy_counters(self):
        graph = make_random_graph(30, 60, seed=4)
        cluster = HermesCluster.from_graph(
            graph, num_servers=3, partitioner=HashPartitioner()
        )
        cluster.traverse(0, hops=2)
        assert sum(server.visits_counter.value for server in cluster.servers) > 0
        # Metrics are on, recording is off.
        assert not cluster.telemetry.recording
        assert cluster.telemetry.tracer.spans == []

    def test_start_tracing_flips_recording(self):
        graph = make_random_graph(20, 40, seed=5)
        cluster = HermesCluster.from_graph(
            graph, num_servers=2, partitioner=HashPartitioner()
        )
        cluster.start_tracing()
        cluster.traverse(0, hops=1)
        assert any(
            span["name"] == "traversal"
            for span in cluster.telemetry.tracer.spans
        )


class TestSharedHub:
    """Two clusters on one hub each read their own traversal, location
    cache and migration series: every one carries the cluster label."""

    def build(self, hub, salt):
        return HermesCluster.from_graph(
            make_random_graph(60, 150, seed=9),
            num_servers=3,
            partitioner=HashPartitioner(salt=salt),
            repartitioner=RepartitionerConfig(k=2, max_iterations=10),
            telemetry=hub,
        )

    def drive(self, cluster, starts):
        for start in starts:
            cluster.traverse(start, hops=1)

    def test_each_cluster_counts_its_own_rebalance(self):
        """The rebalance, phase-1 and trigger series carry the cluster
        label too: two clusters on one hub, one forced rebalance each."""
        shared = Telemetry()
        clusters = [self.build(shared, salt) for salt in (3, 5)]
        results = [cluster.rebalance(force=True)[0] for cluster in clusters]
        assert results[0].history[-1].edge_cut != results[1].history[-1].edge_cut
        for cluster, result in zip(clusters, results):
            mine = {"cluster": cluster.cluster_id}
            registry = shared.registry
            assert registry.total("rebalances_total", **mine) == 1
            assert registry.value("repartitioner_edge_cut", **mine) == (
                result.history[-1].edge_cut
            )
            assert registry.value("repartitioner_imbalance", **mine) == (
                result.history[-1].max_imbalance
            )
            assert registry.total(
                "repartitioner_logical_migrations_total", **mine
            ) == sum(stats.migrations for stats in result.history)
            assert registry.total("trigger_checks_total", **mine) == 1
            cluster.check_trigger()
            assert registry.total("trigger_checks_total", **mine) == 2

    def test_each_cluster_reads_its_own_counts(self):
        shared = Telemetry()
        workloads = ((3, range(30)), (5, range(30, 60)))
        clusters = [self.build(shared, salt) for salt, _ in workloads]
        for cluster, (_, starts) in zip(clusters, workloads):
            self.drive(cluster, starts)
        clusters[1].rebalance(force=True)
        names = (
            "traversals_total",
            "traversal_processed_total",
            "traversal_remote_hops_total",
            "location_cache_misses_total",
            "location_cache_hits_total",
            "migration_vertices_moved_total",
        )
        for cluster, (salt, starts) in zip(clusters, workloads):
            # The same cluster on a hub of its own gives the expected counts.
            alone = self.build(Telemetry(), salt)
            self.drive(alone, starts)
            if cluster is clusters[1]:
                alone.rebalance(force=True)
            mine = {"cluster": cluster.cluster_id}
            assert shared.registry.total("traversals_total", **mine) == 30
            for name in names:
                assert shared.registry.total(
                    name, **mine
                ) == alone.telemetry.registry.total(name), name
        assert shared.registry.total(
            "location_cache_misses_total", cluster=clusters[0].cluster_id
        ) > 0
