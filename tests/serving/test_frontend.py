"""End-to-end front-door pipeline: route, admit, execute, account."""

import pytest

from repro.cluster.hermes import HermesCluster
from repro.exceptions import ClusterError
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.serving import (
    COMPLETED,
    DEGRADED,
    SHED,
    Priority,
    ServingConfig,
    ServingFrontend,
)
from repro.simtest.invariants import InvariantAuditor
from repro.telemetry import Telemetry, install, installed
from tests.conftest import crash_plan, make_random_graph


def make_frontend(config=None, n=30, servers=3):
    graph = make_random_graph(n, 2 * n, seed=5)
    cluster = HermesCluster.from_graph(
        graph, num_servers=servers, partitioner=HashPartitioner()
    )
    return ServingFrontend(cluster, config=config or ServingConfig())


def check_conservation(frontend):
    snap = frontend.conservation()
    assert snap["submitted"] == snap["admitted"] + snap["shed"]
    assert snap["admitted"] == snap["completed"] + snap["in_flight"]
    assert sum(snap["shed_by_reason"].values()) == snap["shed"]
    return snap


class TestPipeline:
    def test_read_completes_with_latency_decomposition(self):
        frontend = make_frontend()
        outcome = frontend.submit("read", 0, client="c0", now=1.0)
        assert outcome.status == COMPLETED
        assert outcome.admitted
        assert outcome.latency == pytest.approx(outcome.wait + outcome.cost)
        assert outcome.served_by is not None
        assert frontend.snapshot()["tenants"]["c0"]["admitted"] == 1
        check_conservation(frontend)

    def test_all_op_kinds_complete(self):
        frontend = make_frontend()
        n = frontend.cluster.graph.num_vertices
        assert frontend.submit("traverse", 0, hops=2).status == COMPLETED
        assert frontend.submit("add_vertex", n, now=0.1).status == COMPLETED
        assert frontend.submit("add_edge", n, 0, now=0.2).status == COMPLETED
        assert frontend.submit("read", n, now=0.3).status == COMPLETED
        snap = check_conservation(frontend)
        assert snap["admitted"] == 4

    def test_unknown_op_rejected(self):
        frontend = make_frontend()
        with pytest.raises(ValueError):
            frontend.submit("drop_table", 0)

    def test_clock_never_runs_backwards(self):
        frontend = make_frontend()
        frontend.submit("read", 0, now=5.0)
        frontend.submit("read", 1, now=1.0)
        assert frontend.now == 5.0

    def test_writes_ship_replica_updates_to_backlogs(self):
        frontend = make_frontend()
        updates_before = frontend.sync._updates.value
        free_before = list(frontend.queue.free_at)
        # A burst of edges across partitions must ship replica updates.
        n = frontend.cluster.graph.num_vertices
        frontend.submit("add_vertex", n, now=0.0)
        for i in range(8):
            frontend.submit("add_edge", n, i, now=0.0)
        assert frontend.sync._updates.value > updates_before
        assert frontend.queue.free_at != free_before
        check_conservation(frontend)


class TestShedding:
    def test_overload_sheds_with_reason_and_accounts(self):
        config = ServingConfig(max_queue_delay=0.5e-3)
        frontend = make_frontend(config)
        shed = 0
        for i in range(60):
            outcome = frontend.submit(
                "traverse", i % 20, hops=2, client="c0", priority=Priority.BATCH
            )
            shed += outcome.status == SHED
        assert shed > 0
        snap = check_conservation(frontend)
        assert snap["shed"] == shed
        assert frontend.snapshot()["tenants"]["c0"]["shed"] == shed
        assert frontend.queue.admission.state != "accepting"

    def test_interactive_survives_longer_than_batch(self):
        config = ServingConfig(max_queue_delay=0.5e-3)
        frontend = make_frontend(config)
        outcomes = {Priority.BATCH: 0, Priority.INTERACTIVE: 0}
        for i in range(40):
            for priority in outcomes:
                outcome = frontend.submit("read", i % 20, priority=priority)
                outcomes[priority] += outcome.status != SHED
        assert outcomes[Priority.INTERACTIVE] >= outcomes[Priority.BATCH]

    def test_credit_exhaustion_sheds_before_queue(self):
        config = ServingConfig(tenant_credits=3.0)
        frontend = make_frontend(config)
        outcomes = [
            frontend.submit("read", i, client="t", now=i * 1.0) for i in range(5)
        ]
        assert [o.status for o in outcomes[:3]] == [COMPLETED] * 3
        assert [o.status for o in outcomes[3:]] == [SHED] * 2
        assert all(o.reason == "insufficient_credits" for o in outcomes[3:])
        snap = check_conservation(frontend)
        assert snap["shed_by_reason"]["insufficient_credits"] == 2
        assert frontend.snapshot()["tenants"]["t"]["credits"] == 0.0


class TestValidation:
    """Invalid operations are rejected before admission, so a failed
    submission can never break queue conservation."""

    def test_unknown_read_vertex_raises_before_admission(self):
        frontend = make_frontend()
        with pytest.raises(ClusterError):
            frontend.submit("read", 10**6)
        snap = check_conservation(frontend)
        assert snap["submitted"] == 0

    @pytest.mark.parametrize("hops", [-1, 1.5])
    def test_invalid_hops_raises_before_admission(self, hops):
        frontend = make_frontend()
        frontend.submit("traverse", 0, hops=1)
        now = frontend.cluster.now
        with pytest.raises(ClusterError, match="hops"):
            frontend.submit("traverse", 0, hops=hops)
        with pytest.raises(ClusterError, match="hops"):
            frontend.submit("traverse", 0, hops)
        snap = check_conservation(frontend)
        assert snap["submitted"] == snap["admitted"] == 1
        assert frontend.cluster.now == now

    def test_duplicate_add_vertex_raises_before_admission(self):
        frontend = make_frontend()
        with pytest.raises(ClusterError):
            frontend.submit("add_vertex", 0)
        assert frontend.conservation()["submitted"] == 0

    def test_add_edge_missing_endpoint_raises_before_admission(self):
        frontend = make_frontend()
        with pytest.raises(ClusterError):
            frontend.submit("add_edge", 0, 10**6)
        assert frontend.conservation()["submitted"] == 0

    def test_self_loop_raises_before_admission(self):
        """A self-loop used to be admitted and then rejected by the store
        (StorageError): admitted 1 != completed 0 + in_flight 0."""
        frontend = make_frontend()
        frontend.cluster.serving = frontend
        with pytest.raises(ClusterError, match="self-loop"):
            frontend.submit("add_edge", 3, 3)
        assert check_conservation(frontend)["submitted"] == 0
        assert InvariantAuditor().audit(frontend.cluster) == []

    def test_duplicate_edge_raises_before_admission(self):
        frontend = make_frontend()
        u, v = next(iter(frontend.cluster.graph.edges()))
        with pytest.raises(ClusterError):
            frontend.submit("add_edge", u, v)
        assert frontend.conservation()["submitted"] == 0


class TestFaults:
    def test_crashed_server_degrades_but_conserves(self):
        graph = make_random_graph(4, 3, seed=3)
        cluster = HermesCluster.from_graph(
            graph,
            num_servers=2,
            partitioning=Partitioning.from_mapping({0: 0, 1: 0, 2: 1, 3: 1}),
        )
        frontend = ServingFrontend(cluster)
        cluster.attach_faults(crash_plan(1))
        outcome = frontend.submit("read", 2)
        assert outcome.status == DEGRADED
        assert outcome.admitted
        snap = check_conservation(frontend)
        assert snap["admitted"] == 1


class TestTopology:
    def test_rebalance_refreshes_replica_index(self):
        frontend = make_frontend()
        result = frontend.rebalance(force=True)
        if result is None:
            pytest.skip("repartitioner declined to move anything")
        # The index recomputed against the new partitioning: it must
        # match a from-scratch placement.
        from repro.cluster.replication import OneHopReplicator

        fresh = OneHopReplicator().placements(
            frontend.cluster.graph, frontend.cluster.partitioning()
        )
        assert {
            v: set(p) for v, p in frontend.index.placements().items() if p
        } == {v: set(p) for v, p in fresh.items() if p}

    def test_snapshot_is_json_able(self):
        import json

        frontend = make_frontend()
        frontend.submit("read", 0, client="c1")
        snapshot = frontend.snapshot()
        json.dumps(snapshot)
        assert snapshot["queue"]["admitted"] == 1
        assert "c1" in snapshot["tenants"]


#: every series family a front door binds; each must carry its cluster
SERVING_FAMILIES = (
    "serving_submitted_total",
    "serving_admitted_total",
    "serving_completed_total",
    "serving_shed_total",
    "serving_queue_depth",
    "serving_queue_wait_seconds",
    "serving_latency_seconds",
    "serving_admission_transitions_total",
    "serving_admission_state",
    "replica_read_hits_total",
    "replica_read_misses_total",
    "replica_reads_stale_blocked_total",
    "router_forwards_total",
    "replica_updates_total",
    "replica_update_bytes_total",
    "replica_update_failures_total",
    "location_cache_hits_total",
    "location_cache_misses_total",
    "location_cache_stale_hits_total",
    "location_cache_invalidations_total",
    "tenant_ops_total",
    "tenant_cost_seconds_total",
    "tenant_replica_reads_total",
    "tenant_credits_remaining",
)


def shared_hub_pair(config=None):
    """Two front doors on clusters built under one installed hub (the
    runner's ``--telemetry-out``)."""
    previous = installed()
    install(Telemetry())
    try:
        first, second = make_frontend(config), make_frontend(config)
    finally:
        install(previous)
    assert first.telemetry is second.telemetry
    return first, second


def series_of(frontend, name):
    """The registry records of one family that belong to ``frontend``."""
    cluster = str(frontend.cluster.cluster_id)
    return [
        record
        for record in frontend.telemetry.registry.snapshot()
        if record["name"] == name and record["labels"].get("cluster") == cluster
    ]


class TestSharedHub:
    def test_front_doors_sharing_an_installed_hub_keep_their_own_books(self):
        """The queue's counts live in the registry, labelled with the
        cluster, so two front doors on one hub never count each other's
        operations."""
        first, second = shared_hub_pair()
        for step in range(30):
            now = step * 1e-4
            first.submit("read", step % 30, now=now)
            second.submit("traverse", step % 30, hops=1, now=now)
        for frontend in (first, second):
            snap = check_conservation(frontend)
            assert snap["submitted"] == 30

    def test_every_serving_series_carries_its_cluster(self):
        """Each door binds its own series of every serving family; none
        is pooled.  The front door's location cache is told apart from
        the servers' by ``cache="front_door"``."""
        first, second = shared_hub_pair(ServingConfig(tenant_credits=100.0))
        n = second.cluster.graph.num_vertices
        for step in range(30):
            now = step * 1e-4
            first.submit("read", step % 30, client="t", now=now)
            second.submit("traverse", step % 30, hops=1, client="t", now=now)
        second.submit("add_vertex", n, client="t", now=1.0)
        second.submit("add_edge", n, 0, client="t", now=1.0)
        records = first.telemetry.registry.snapshot()
        doors = {str(first.cluster.cluster_id), str(second.cluster.cluster_id)}
        for name in SERVING_FAMILIES:
            labels = [r["labels"] for r in records if r["name"] == name]
            if name.startswith("location_cache_"):
                labels = [l for l in labels if l.get("cache") == "front_door"]
            assert {l.get("cluster") for l in labels} == doors, name

        def total(frontend, name):
            return sum(
                r["count"] if "count" in r else r["value"]
                for r in series_of(frontend, name)
            )

        for frontend, lookups in ((first, 30), (second, 31)):
            admitted = frontend.conservation()["admitted"]
            for name in ("serving_latency_seconds", "serving_queue_wait_seconds"):
                assert total(frontend, name) == admitted, name
            assert total(frontend, "serving_queue_depth") == frontend.queue.depth
            tenant = frontend.snapshot()["tenants"]["t"]
            assert tenant["admitted"] == admitted
            assert total(frontend, "tenant_credits_remaining") == tenant["credits"]
            assert total(frontend, "location_cache_hits_total") + total(
                frontend, "location_cache_misses_total"
            ) == lookups
        assert total(first, "replica_read_hits_total") + total(
            first, "replica_read_misses_total"
        ) == 30
        assert total(second, "replica_read_hits_total") + total(
            second, "replica_read_misses_total"
        ) == 0
        assert total(first, "replica_updates_total") == 0
        assert total(second, "replica_updates_total") > 0

    def test_each_door_gates_its_tenant_credits_on_its_own(self):
        """One tenant spending its balance at one door leaves its
        balance at the other untouched."""
        first, second = shared_hub_pair(ServingConfig(tenant_credits=2.0))
        outcomes = [
            first.submit("read", i, client="t", now=i * 1.0) for i in range(3)
        ]
        assert [o.status for o in outcomes] == [COMPLETED, COMPLETED, SHED]
        assert second.submit("read", 0, client="t", now=5.0).status == COMPLETED
        registry = first.telemetry.registry
        for frontend, balance in ((first, 0.0), (second, 1.0)):
            assert registry.value(
                "tenant_credits_remaining",
                cluster=frontend.cluster.cluster_id,
                tenant="t",
            ) == balance
        assert second.conservation()["shed"] == 0
