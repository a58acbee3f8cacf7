"""Per-tenant metering and credit gating, through the front door.

A tenant's counts live only in its cluster-labelled registry series:
``ServingFrontend.submit`` meters, attributes and gates through them,
and ``snapshot()["tenants"]`` reads them back.
"""

import json

from repro.cluster.hermes import HermesCluster
from repro.partitioning.base import Partitioning
from repro.serving import (
    COMPLETED,
    SHED,
    SHED_REASONS,
    Priority,
    ServingConfig,
    ServingFrontend,
)
from tests.serving.test_frontend import check_conservation, make_frontend
from tests.conftest import make_random_graph


def make_pair_frontend(config=None):
    """Two servers, an edge 0-1 across them: each vertex has a replica."""
    graph = make_random_graph(2, 0)
    graph.add_edge(0, 1)
    cluster = HermesCluster.from_graph(
        graph,
        num_servers=2,
        partitioning=Partitioning.from_mapping({0: 0, 1: 1}),
    )
    return ServingFrontend(cluster, config=config or ServingConfig())


def tenant_series(frontend, name, tenant, **labels):
    """One of a tenant's registry series, labelled as its front door
    labels it (0.0 when the series does not exist)."""
    return frontend.telemetry.registry.value(
        name, cluster=frontend.cluster.cluster_id, tenant=tenant, **labels
    )


class TestMetering:
    def test_usage_accumulates_per_tenant(self):
        frontend = make_frontend()
        costs = {"alpha": 0.0, "beta": 0.0}
        for i, client in enumerate(["alpha", "alpha", "beta"]):
            outcome = frontend.submit("read", i, client=client, now=i * 1.0)
            assert outcome.status == COMPLETED
            costs[client] += outcome.cost
        tenants = frontend.snapshot()["tenants"]
        assert tenants["alpha"]["admitted"] == 2
        assert tenants["beta"]["admitted"] == 1
        assert tenants["alpha"]["cost_seconds"] == costs["alpha"]
        assert tenants["beta"]["cost_seconds"] == costs["beta"]
        assert tenant_series(
            frontend, "tenant_ops_total", "alpha", outcome="admitted"
        ) == 2
        assert tenant_series(
            frontend, "tenant_cost_seconds_total", "beta"
        ) == costs["beta"]

    def test_replica_reads_are_attributed_to_their_tenant(self):
        frontend = make_pair_frontend()
        frontend.queue.add_backlog(0, now=0.0, cost=1e-3)
        offloaded = frontend.submit("read", 0, client="alpha", now=0.0)
        direct = frontend.submit("read", 1, client="beta", now=0.0)
        assert offloaded.replica_read and not direct.replica_read
        tenants = frontend.snapshot()["tenants"]
        assert tenants["alpha"]["replica_reads"] == 1
        assert tenants["beta"]["replica_reads"] == 0
        assert tenant_series(frontend, "tenant_replica_reads_total", "alpha") == 1

    def test_sheds_are_counted_per_tenant_and_reason(self):
        config = ServingConfig(max_queue_delay=0.5e-3, tenant_credits=2.0)
        frontend = make_frontend(config)
        # A back-to-back burst overloads the queue; two later reads spend
        # the credit the burst left and then find none.
        outcomes = [
            frontend.submit(
                "traverse", i, hops=2, client="c0", priority=Priority.BATCH
            )
            for i in range(20)
        ] + [
            frontend.submit(
                "read", i, client="c0", priority=Priority.INTERACTIVE, now=now
            )
            for i, now in ((0, 1.0), (1, 2.0))
        ]
        reasons = {}
        for outcome in outcomes:
            if outcome.status == SHED:
                reasons[outcome.reason] = reasons.get(outcome.reason, 0) + 1
        frontend.submit("read", 0, client="c1", now=3.0)
        assert reasons == {"overload_shed": 19, "insufficient_credits": 1}
        for reason in SHED_REASONS:
            assert tenant_series(
                frontend, "tenant_ops_total", "c0", outcome="shed", reason=reason
            ) == reasons.get(reason, 0)
        tenants = frontend.snapshot()["tenants"]
        assert tenants["c0"]["shed"] == sum(reasons.values())
        assert tenants["c1"]["shed"] == 0
        check_conservation(frontend)

    def test_totals_snapshot_is_sorted_and_plain(self):
        frontend = make_frontend()
        cost = frontend.submit("read", 0, client="b").cost
        frontend.submit("read", 1, client="a")
        tenants = frontend.snapshot()["tenants"]
        assert list(tenants) == ["a", "b"]
        assert tenants["b"] == {
            "admitted": 1,
            "shed": 0,
            "cost_seconds": cost,
            "replica_reads": 0,
            "credits": None,  # gating disabled
        }
        assert json.loads(json.dumps(tenants)) == tenants

    def test_metering_without_credits_never_sheds(self):
        frontend = make_frontend(ServingConfig(tenant_credits=None))
        for i in range(100):
            outcome = frontend.submit("read", i % 30, client="t", now=i * 1.0)
            assert outcome.status == COMPLETED
        assert frontend.snapshot()["tenants"]["t"]["admitted"] == 100
        registry = frontend.telemetry.registry
        assert "tenant_credits_remaining" not in {
            family.name for family in registry.families()
        }


class TestCreditGating:
    def test_balance_depletes_and_gates(self):
        config = ServingConfig(tenant_credits=2.0, credit_per_op=1.0)
        frontend = make_frontend(config)
        outcomes = [
            frontend.submit("read", i, client="t", now=i * 1.0) for i in range(3)
        ]
        assert [o.status for o in outcomes] == [COMPLETED, COMPLETED, SHED]
        assert outcomes[2].reason == "insufficient_credits"
        assert tenant_series(frontend, "tenant_credits_remaining", "t") == 0.0
        snap = check_conservation(frontend)
        assert snap["shed_by_reason"]["insufficient_credits"] == 1

    def test_cost_proportional_debit(self):
        config = ServingConfig(
            tenant_credits=10.0, credit_per_op=1.0, credits_per_cost_second=1000.0
        )
        frontend = make_frontend(config)
        outcome = frontend.submit("traverse", 0, hops=2, client="t")
        expected = 10.0 - (1.0 + outcome.cost * 1000.0)
        assert expected < 9.0
        assert frontend.snapshot()["tenants"]["t"]["credits"] == expected
        assert tenant_series(frontend, "tenant_credits_remaining", "t") == expected

    def test_tenants_are_isolated(self):
        config = ServingConfig(tenant_credits=1.0, credit_per_op=1.0)
        frontend = make_frontend(config)
        assert frontend.submit("read", 0, client="poor", now=0.0).admitted
        shed = frontend.submit("read", 1, client="poor", now=1.0)
        assert shed.reason == "insufficient_credits"
        assert frontend.submit("read", 2, client="rich", now=2.0).admitted
        tenants = frontend.snapshot()["tenants"]
        assert tenants["poor"]["shed"] == 1
        assert tenants["rich"]["shed"] == 0
