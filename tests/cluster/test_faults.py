"""Fault injection, retry and migration rollback tests.

The heart of this module is the rollback invariant: a migration that
fails mid-copy must leave every server's stores, the catalog and the
auxiliary data exactly as they were before the attempt, and a subsequent
retry of the same plan must succeed (idempotence).
"""

import pytest

from repro.cluster.faults import CrashWindow, FaultInjector, FaultPlan, RetryPolicy
from repro.cluster.hermes import HermesCluster
from repro.cluster.network import (
    BATCH_BASE_BYTES,
    BATCH_ENTRY_BYTES,
    FAULT_TIMEOUT,
    LinkStats,
    SimulatedNetwork,
)
from repro.core.migration import build_migration_plan
from repro.exceptions import (
    ClusterError,
    FaultInjectedError,
    MessageLossError,
    MigrationAbortedError,
    PartitioningError,
    ServerDownError,
)
from repro.graph.adjacency import SocialGraph
from repro.partitioning.hashing import HashPartitioner
from repro.telemetry import Telemetry
from repro.telemetry.conservation import registry_conservation_violations
from tests.conftest import (
    FixedPartitioner,
    build_placed_cluster as build_cluster,
    crash_plan,
    deep_snapshot,
    link_down_plan,
    make_random_graph,
)


# ======================================================================
# FaultPlan / CrashWindow
# ======================================================================
class TestFaultPlan:
    def test_crash_window_validation(self):
        with pytest.raises(PartitioningError):
            CrashWindow(server=0, start=2_000, end=1_000)

    def test_rate_validation(self):
        with pytest.raises(PartitioningError):
            FaultPlan(loss_rate=1.5)
        with pytest.raises(PartitioningError):
            FaultPlan(link_loss={(0, 1): -0.1})

    def test_down_at(self):
        plan = FaultPlan(crash_windows=(CrashWindow(server=1, start=1_000, end=2_000),))
        assert not plan.down_at(1, 500)
        assert plan.down_at(1, 1_000)
        assert plan.down_at(1, 1_999)
        assert not plan.down_at(1, 2_000)
        assert not plan.down_at(0, 1_500)

    def test_link_loss_overrides_default(self):
        plan = FaultPlan(loss_rate=0.1, link_loss={(0, 1): 0.9})
        assert plan.loss_for(0, 1) == 0.9
        assert plan.loss_for(1, 0) == 0.1

    def test_deterministic_fault_sequence(self):
        plan = FaultPlan(seed=5, loss_rate=0.5)

        def outcomes():
            injector = FaultInjector(plan)
            results = []
            for _ in range(50):
                try:
                    injector.check_message(0, 1, cost=1_000_000)
                    results.append("ok")
                except FaultInjectedError as exc:
                    results.append(type(exc).__name__)
            return results

        first, second = outcomes(), outcomes()
        assert first == second
        assert "MessageLossError" in first
        assert "ok" in first


class TestFaultInjector:
    def test_crash_window_tracks_inflight_time(self):
        plan = FaultPlan(crash_windows=(CrashWindow(server=0, start=1_000, end=2_000),))
        injector = FaultInjector(plan)
        assert not injector.is_down(0)
        injector.advance(1_500)
        assert injector.is_down(0)
        injector.advance(1_000)  # past the restart
        assert not injector.is_down(0)
        injector.reset()
        assert not injector.is_down(0)

    def test_check_server_charges_cost(self):
        plan = FaultPlan(crash_windows=(CrashWindow(server=0, start=0, end=9_000),))
        injector = FaultInjector(plan)
        with pytest.raises(ServerDownError) as info:
            injector.check_server(0, cost=250)
        assert info.value.cost == 250
        assert injector.inflight == 250


# ======================================================================
# RetryPolicy
# ======================================================================
class TestRetryPolicy:
    def test_backoff_is_bounded(self):
        assert RetryPolicy.backoff(1) == 2_000_000
        assert RetryPolicy.backoff(2) == 4_000_000
        assert RetryPolicy.backoff(6) == 64_000_000
        assert RetryPolicy.backoff(7) == 100_000_000
        assert RetryPolicy.backoff(9) == 100_000_000

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def op():
            calls["n"] += 1
            if calls["n"] < 3:
                raise MessageLossError(0, 1, cost=100_000_000)
            return "done"

        result, wasted = RetryPolicy.call(op)
        assert result == "done"
        assert calls["n"] == 3
        # Two failed attempts (100 ms each) plus two backoff pauses.
        assert wasted == 100_000_000 + 2_000_000 + 100_000_000 + 4_000_000

    def test_exhaustion_reraises_with_cumulative_cost(self):
        def op():
            raise MessageLossError(0, 1, cost=100_000_000)

        with pytest.raises(MessageLossError) as info:
            RetryPolicy.call(op)
        # Four attempt timeouts plus the three pauses between them.
        assert RetryPolicy.MAX_ATTEMPTS == 4
        assert info.value.cost == 400_000_000 + 2_000_000 + 4_000_000 + 8_000_000

    def test_retry_advances_injector_and_notifies(self):
        injector = FaultInjector(FaultPlan())
        seen = []

        def op():
            if not seen:
                raise MessageLossError(0, 1, cost=0)
            return 1

        result, _ = RetryPolicy.call(
            op, injector=injector, on_retry=lambda exc, pause: seen.append(pause)
        )
        assert result == 1
        assert seen == [2_000_000]
        assert injector.inflight == 2_000_000

    def test_non_fault_errors_propagate_immediately(self):
        calls = {"n": 0}

        def op():
            calls["n"] += 1
            raise ClusterError("not injected")

        with pytest.raises(ClusterError):
            RetryPolicy.call(op)
        assert calls["n"] == 1


# ======================================================================
# Network / server fault paths
# ======================================================================
class TestNetworkFaults:
    def test_lossy_link_raises_and_charges_timeout(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1}, num_servers=2)
        cluster.attach_faults(link_down_plan())
        messages_before = cluster.network.stats.messages
        with pytest.raises(MessageLossError) as info:
            cluster.network.remote_hop(0, 1)
        # A lost message is never accounted as delivered traffic.
        assert cluster.network.stats.messages == messages_before
        assert info.value.cost == FAULT_TIMEOUT

    def test_downed_server_rejects_requests(self):
        graph = SocialGraph()
        graph.add_vertex(0)
        cluster = build_cluster(graph, {0: 0}, num_servers=2)
        cluster.attach_faults(
            crash_plan(0)
        )
        with pytest.raises(ServerDownError):
            cluster.servers[0].check_up()
        cluster.servers[1].check_up()
        # The cluster's read body degrades against the crashed host.
        properties, _ = cluster.read_vertex(0)
        assert properties == {}

    def test_detach_restores_zero_fault_behavior(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1}, num_servers=2)
        cluster.attach_faults(link_down_plan())
        with pytest.raises(MessageLossError):
            cluster.network.remote_hop(0, 1)
        cluster.attach_faults(None)
        assert cluster.network.remote_hop(0, 1) > 0
        assert cluster.faults is None


# ======================================================================
# Traversal degradation
# ======================================================================
class TestTraversalDegradation:
    def crashed(self, server):
        return FaultPlan(
            crash_windows=(CrashWindow(server=server, start=0, end=10**18),)
        )

    def test_partial_result_when_remote_host_down(self):
        graph = SocialGraph.from_edges([(0, 1), (0, 2)])
        cluster = build_cluster(graph, {0: 0, 1: 1, 2: 0}, num_servers=2)
        cluster.attach_faults(self.crashed(1))
        result = cluster.traverse(0, hops=1)
        assert result.partial
        assert result.failed_partitions == (1,)
        # Reachable vertices are still served.
        assert set(result.response) == {0, 2}
        assert result.cost > 0

    def test_empty_partial_result_when_home_down(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1}, num_servers=2)
        cluster.attach_faults(self.crashed(0))
        result = cluster.traverse(0, hops=1)
        assert result.partial
        assert result.failed_partitions == (0,)
        assert result.response == ()
        assert result.processed == 0

    def test_zero_fault_traversal_unchanged(self):
        graph = SocialGraph.from_edges([(0, 1), (1, 2)])
        baseline = build_cluster(graph.copy(), {0: 0, 1: 1, 2: 0}, num_servers=2)
        attached = build_cluster(graph.copy(), {0: 0, 1: 1, 2: 0}, num_servers=2)
        attached.attach_faults(FaultPlan())  # all rates zero, no windows
        res_a = baseline.traverse(0, hops=2)
        res_b = attached.traverse(0, hops=2)
        assert res_a.response == res_b.response
        assert res_a.cost == res_b.cost
        assert not res_b.partial

    def test_lossy_hop_retries_then_succeeds(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1}, num_servers=2)
        # Loss rate low enough that four attempts practically always win.
        cluster.attach_faults(FaultPlan(seed=3, loss_rate=0.3))
        results = [cluster.traverse(0, hops=1) for _ in range(20)]
        complete = [r for r in results if not r.partial]
        assert complete, "expected most traversals to survive retries"
        for result in complete:
            assert set(result.response) == {0, 1}


# ======================================================================
# Migration rollback invariant
# ======================================================================
def build_rich_cluster():
    """Three servers, mixed local/cross edges, node + rel properties."""
    graph = SocialGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
    cluster = build_cluster(graph, {0: 0, 1: 1, 2: 0, 3: 2})
    store0 = cluster.servers[0].store
    store0.set_node_property(0, "name", "zero")
    rel_local = next(
        e.rel_id for e in store0.neighbor_entries(0) if e.neighbor == 2
    )
    store0.set_relationship_property(rel_local, "since", 2015)
    return cluster


class TestMigrationRollback:
    def test_abort_error_shape(self):
        cluster = build_rich_cluster()
        cluster.attach_faults(link_down_plan())
        with pytest.raises(MigrationAbortedError) as info:
            cluster.repartition_static(FixedPartitioner({0: 1, 1: 1, 2: 0, 3: 2}))
        error = info.value
        assert isinstance(error, ClusterError)
        assert isinstance(error.cause, FaultInjectedError)
        assert error.report.total_cost > 0

    def test_rollback_restores_every_layer(self):
        cluster = build_rich_cluster()
        before = deep_snapshot(cluster)
        now_before = cluster.now
        cluster.attach_faults(link_down_plan())
        with pytest.raises(MigrationAbortedError):
            cluster.repartition_static(FixedPartitioner({0: 1, 1: 1, 2: 0, 3: 2}))
        assert deep_snapshot(cluster) == before
        cluster.validate()
        # The failed attempt still consumed simulated time.
        assert cluster.now > now_before

    def test_rollback_with_multi_target_plan(self):
        """Transfers to one target succeed before another target's fail:
        the successful imports must be rolled back too."""
        cluster = build_rich_cluster()
        before = deep_snapshot(cluster)
        cluster.attach_faults(link_down_plan())
        with pytest.raises(MigrationAbortedError):
            # 3 -> 0 uses a healthy link; 0 -> 1 always fails.
            cluster.repartition_static(FixedPartitioner({0: 1, 1: 1, 2: 0, 3: 0}))
        assert deep_snapshot(cluster) == before
        cluster.validate()

    def test_retry_after_rollback_is_idempotent(self):
        cluster = build_rich_cluster()
        target = FixedPartitioner({0: 1, 1: 1, 2: 0, 3: 2})
        cluster.attach_faults(link_down_plan())
        with pytest.raises(MigrationAbortedError):
            cluster.repartition_static(target)
        # Fault cleared (link repaired): the identical plan goes through.
        cluster.attach_faults(None)
        report = cluster.repartition_static(target)
        assert report.vertices_moved == 1
        assert cluster.catalog.lookup(0) == 1
        cluster.validate()
        # Properties survived the abort + retry round trip.
        assert cluster.servers[1].store.node_properties(0) == {"name": "zero"}

    def test_abort_on_barrier_failure_rolls_back(self):
        cluster = build_rich_cluster()
        before = deep_snapshot(cluster)
        # Copy path (0 -> 1) is healthy; the sync barrier from the source
        # to server 2 cannot get through.
        cluster.attach_faults(FaultPlan(link_loss={(0, 2): 1.0}))
        with pytest.raises(MigrationAbortedError):
            cluster.repartition_static(FixedPartitioner({0: 1, 1: 1, 2: 0, 3: 2}))
        assert deep_snapshot(cluster) == before
        cluster.validate()

    def test_abort_increments_telemetry(self):
        cluster = build_rich_cluster()
        cluster.attach_faults(link_down_plan())
        with pytest.raises(MigrationAbortedError):
            cluster.repartition_static(FixedPartitioner({0: 1, 1: 1, 2: 0, 3: 2}))
        registry = cluster.telemetry.registry
        assert (
            registry.total("migration_aborts_total", cluster=cluster.cluster_id)
            == 1
        )
        assert registry.total("faults_injected_total") >= 4

    def test_executor_abort_leaves_catalog_untouched(self):
        cluster = build_rich_cluster()
        cluster.attach_faults(link_down_plan())
        plan = build_migration_plan({0: (0, 1)})
        with pytest.raises(MigrationAbortedError):
            cluster._executor.execute(plan)
        assert cluster.catalog.lookup(0) == 0
        assert cluster.servers[0].store.is_available(0)
        assert not cluster.servers[1].store.has_node(0)


# ======================================================================
# Fault-window conservation
# ======================================================================
class TestFaultConservation:
    """A lost message is counted in neither the ledger nor the registry.

    ``check_message`` runs before the network's per-link ledger is
    charged in every send path (remote_hop, batched_hop(s), transfer),
    and the registry's network counters are charged only for messages
    that went out, so a faulted message is charged nowhere and the
    ledger equals the registry at every instant — including inside fault
    windows.  These tests pin that ordering so a refactor that charges
    before checking (leaking counts for dropped traffic) fails loudly.
    """

    @staticmethod
    def lossy_network(plan):
        hub = Telemetry()
        net = SimulatedNetwork(3, telemetry=hub)
        net.attach_faults(FaultInjector(plan))
        return net, hub.registry

    def test_lost_batch_leaves_all_counters_untouched(self):
        net, registry = self.lossy_network(link_down_plan())
        with pytest.raises(FaultInjectedError):
            net.batched_hop(0, 1, count=10)
        assert net.stats.messages == 0
        assert net.stats.bytes_sent == 0
        assert net.stats.per_link == {}
        assert registry.total("network_messages_total") == 0
        assert registry.total("network_bytes_total") == 0
        assert registry.histogram("network_batch_entries").count == 0
        assert registry_conservation_violations(net.telemetry, net) == []

    def test_lost_single_hop_and_transfer_also_unaccounted(self):
        net, registry = self.lossy_network(link_down_plan())
        for send in (
            lambda: net.remote_hop(0, 1),
            lambda: net.transfer(0, 1, size=4096),
        ):
            with pytest.raises(FaultInjectedError):
                send()
        assert net.stats.messages == 0
        assert registry.total("network_messages_total") == 0
        assert registry_conservation_violations(net.telemetry, net) == []

    def test_a_lost_batch_mid_call_keeps_the_batches_before_it(self):
        """One ``batched_hops`` call ships its links in order: the batch
        ahead of the lost one is charged to its link and to the registry,
        the lost one and those behind it to neither."""
        net, registry = self.lossy_network(link_down_plan())
        with pytest.raises(FaultInjectedError):
            net.batched_hops({(0, 2): 3, (0, 1): 10, (1, 2): 2})
        size = BATCH_BASE_BYTES + 3 * BATCH_ENTRY_BYTES
        assert net.stats.per_link == {(0, 2): LinkStats(1, size)}
        assert registry.total("network_messages_total") == 1
        assert registry.total("network_bytes_total") == size
        assert registry.histogram("network_batch_entries").sum == 3
        assert registry_conservation_violations(net.telemetry, net) == []

    def test_partial_loss_conserves_the_delivered_remainder(self):
        """Interleaved delivered and dropped batches: the delivered ones
        are in the ledger and the registry alike, the dropped ones in
        neither."""
        net, registry = self.lossy_network(FaultPlan(seed=7, loss_rate=0.5))
        delivered = 0
        for count in range(1, 40):
            try:
                net.batched_hop(0, 1, count=count)
                delivered += 1
            except FaultInjectedError:
                pass
        assert 0 < delivered < 39  # the plan actually dropped some
        assert net.stats.messages == delivered
        assert registry.total("network_messages_total") == delivered
        assert registry.histogram("network_batch_entries").count == delivered
        assert registry_conservation_violations(net.telemetry, net) == []

    def test_traversals_under_loss_and_crashes_conserve(self):
        """End-to-end: aggressive loss plus a crash window, the engine
        keeps the ledger equal to the registry."""
        graph = make_random_graph(num_vertices=80, num_edges=300, seed=23)
        placement = HashPartitioner(salt=23).partition(graph, 3)
        cluster = HermesCluster.from_graph(
            graph, num_servers=3, partitioning=placement
        )
        cluster.attach_faults(
            FaultPlan(
                seed=5,
                loss_rate=0.3,
                crash_windows=(CrashWindow(server=1, start=500_000_000, end=2_000_000_000),),
            )
        )
        partials = 0
        for start in sorted(graph.vertices())[:40]:
            result = cluster.traverse(start, hops=2)
            partials += bool(result.partial)
        assert partials > 0, "fault plan should have degraded some traversals"
        assert (
            registry_conservation_violations(cluster.telemetry, cluster.network)
            == []
        )

    def test_aborted_migration_conserves(self):
        cluster = build_rich_cluster()
        cluster.attach_faults(link_down_plan())
        with pytest.raises(MigrationAbortedError):
            cluster.repartition_static(FixedPartitioner({0: 1, 1: 1, 2: 0, 3: 2}))
        assert (
            registry_conservation_violations(cluster.telemetry, cluster.network)
            == []
        )


class TestRebalanceAbort:
    def test_forced_rebalance_rolls_back_aux_on_abort(self):
        graph = SocialGraph.from_edges(
            [(i, j) for i in range(6) for j in range(i + 1, 6)]
        )
        placement = {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
        cluster = build_cluster(graph, placement, num_servers=2)
        before = deep_snapshot(cluster)
        # Every link is dead: any physical move attempt must abort.
        cluster.attach_faults(FaultPlan(loss_rate=1.0))
        with pytest.raises(MigrationAbortedError):
            cluster.rebalance(force=True)
        assert deep_snapshot(cluster) == before
        cluster.validate()
        registry = cluster.telemetry.registry
        assert registry.total("rebalance_aborts_total") == 1
        # After repairs the same rebalance succeeds.
        cluster.attach_faults(None)
        outcome = cluster.rebalance(force=True)
        assert outcome is not None
        cluster.validate()
