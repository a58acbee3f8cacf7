"""End-to-end front-door pipeline: route, admit, execute, account."""

from inspect import signature

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hermes import HermesCluster
from repro.exceptions import ClusterError
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.serving import (
    COMPLETED,
    DEGRADED,
    SERVING_OPS,
    SHED,
    Priority,
    ServingConfig,
    ServingFrontend,
)
from repro.serving.frontend import SERVING_METHODS
from repro.simtest.invariants import InvariantAuditor
from repro.telemetry import Telemetry, install, installed
from tests.conftest import crash_plan, make_random_graph, telemetry_snapshot


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


VERTICES = 30
#: an id no vertex of ``make_frontend``'s graph has
FRESH = VERTICES
EDGES = set(make_random_graph(VERTICES, 2 * VERTICES, seed=5).edges())
#: two vertices of that graph with no edge between them
NON_EDGE = next(
    (u, v)
    for u in range(VERTICES)
    for v in range(u + 1, VERTICES)
    if (u, v) not in EDGES and (v, u) not in EDGES
)


def front_door_state(frontend):
    """What a refused submission must leave as it was."""
    cluster = frontend.cluster
    return {
        "queue": check_conservation(frontend),
        "telemetry": telemetry_snapshot(cluster),
        "now": (frontend.now, cluster.now),
        "vertices": len(cluster.catalog),
        "edges": cluster.aux.num_edges,
        "weight": cluster.aux.total_weight(),
    }


@st.composite
def call_shapes(draw):
    """A call of any shape, valid or not: ``(op, args, kwargs)``, each
    value drawn so that repeated shapes carry different values."""
    op = draw(st.sampled_from(SERVING_OPS))
    names = ["vertex", "start", "hops", "weight", "properties", "u", "v", "colour"]
    value = st.integers(-3, 3) | st.none()
    args = tuple(draw(st.lists(value, max_size=4)))
    keywords = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    return op, args, {name: draw(value) for name in keywords}


@st.composite
def bad_submissions(draw):
    """One submission the front door must refuse: ``(op, args, kwargs)``."""
    known = st.integers(0, VERTICES - 1)
    unknown = st.integers(VERTICES, 10**6) | st.sampled_from(["3", None])
    kind = draw(st.sampled_from([
        "surplus", "missing", "keyword", "twice", "hops", "properties",
        "unknown", "weight", "duplicate_vertex", "vertex_id", "self_loop",
        "duplicate_edge", "start",
    ]))
    if kind == "surplus":
        return draw(st.sampled_from([
            ("read", (1, 2), {}), ("traverse", (1, 1, 1), {}),
            ("add_vertex", (FRESH, 1.0, None, 0), {}),
            ("add_edge", NON_EDGE + (None, 0), {}),
        ]))
    if kind == "missing":
        return draw(st.sampled_from([
            ("read", (), {}), ("traverse", (), {}), ("add_vertex", (), {}),
            ("add_edge", NON_EDGE[:1], {}), ("add_edge", (), {"v": NON_EDGE[1]}),
        ]))
    if kind == "keyword":
        op, args = draw(st.sampled_from([
            ("read", (1,)), ("traverse", (1,)), ("add_vertex", (FRESH,)),
            ("add_edge", NON_EDGE),
        ]))
        name = draw(st.sampled_from(["colour", "depth", "server", "start_vertex"]))
        return op, args, {name: draw(st.integers(0, 3))}
    if kind == "twice":
        return draw(st.sampled_from([
            ("read", (1,), {"vertex": 1}), ("traverse", (1, 2), {"hops": 1}),
            ("add_vertex", (FRESH, 1.0), {"weight": 2.0}),
            ("add_edge", NON_EDGE, {"u": NON_EDGE[0]}),
        ]))
    if kind == "hops":
        hops = draw(st.sampled_from([-1, 1.5, True, False, "2", None, float("nan")]))
        if draw(st.booleans()):
            return "traverse", (draw(known), hops), {}
        return "traverse", (draw(known),), {"hops": hops}
    if kind == "properties":
        properties = draw(st.sampled_from(
            [{"w": object()}, {"w": "\ud800"}, {7: "x"}, ["w"], "w", 5]
        ))
        if draw(st.booleans()):
            return "add_vertex", (FRESH,), {"properties": properties}
        return "add_edge", NON_EDGE, {"properties": properties}
    if kind == "unknown":
        op = draw(st.sampled_from(["read", "traverse", "add_edge"]))
        args = (draw(unknown),) if op != "add_edge" else (draw(unknown), draw(known))
        return op, args, {}
    if kind == "weight":
        weight = draw(st.sampled_from([float("nan"), float("inf"), -1.0, "heavy", None]))
        return "add_vertex", (FRESH,), {"weight": weight}
    if kind == "duplicate_vertex":
        return "add_vertex", (draw(known),), {}
    if kind == "vertex_id":
        vertex = draw(st.sampled_from([True, 1.0, "31", None, 2**70]))
        if draw(st.booleans()):
            return "add_vertex", (vertex,), {}
        return "add_edge", (NON_EDGE[0], vertex), {}
    if kind == "self_loop":
        vertex = draw(known)
        return "add_edge", (vertex, vertex), {}
    if kind == "start":
        # A start of each kind that is not a vertex id: bool, float, str, None.
        start = draw(st.sampled_from([True, False, 1.0, 0.0, "1", None]))
        if draw(st.booleans()):
            return "read", (start,), {}
        return "traverse", (start, draw(st.integers(0, 2))), {}
    u, v = draw(st.sampled_from(sorted(EDGES)))
    return "add_edge", (v, u) if draw(st.booleans()) else (u, v), {}


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

    def test_unstorable_add_vertex_raises_before_admission(self):
        """An id too wide for a record used to be admitted and then
        rejected by the store (StorageError): admitted 1 != completed 0 +
        in_flight 0."""
        frontend = make_frontend()
        frontend.cluster.serving = frontend
        with pytest.raises(ClusterError, match="cannot be stored"):
            frontend.submit("add_vertex", 2**70)
        assert check_conservation(frontend)["submitted"] == 0
        assert InvariantAuditor().audit(frontend.cluster) == []

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
    def test_bad_weight_add_vertex_raises_before_admission(self, weight):
        frontend = make_frontend()
        n = frontend.cluster.graph.num_vertices
        total = frontend.cluster.aux.total_weight()
        with pytest.raises(ClusterError, match="weight"):
            frontend.submit("add_vertex", n, weight=weight)
        with pytest.raises(ClusterError, match="weight"):
            frontend.submit("add_vertex", n, weight)
        assert frontend.conservation()["submitted"] == 0
        assert n not in frontend.cluster.catalog
        assert frontend.cluster.aux.total_weight() == total

    def test_duplicate_edge_raises_before_admission(self):
        frontend = make_frontend()
        u, v = next(iter(frontend.cluster.graph.edges()))
        with pytest.raises(ClusterError):
            frontend.submit("add_edge", u, v)
        assert frontend.conservation()["submitted"] == 0

    @pytest.mark.parametrize(
        "op, args, kwargs",
        [
            ("add_vertex", (FRESH,), {"colour": "red"}),
            ("add_edge", NON_EDGE, {"colour": "red"}),
            ("traverse", (1,), {"hops": 1, "depth": 3}),
            ("traverse", (1, 2), {"hops": 3}),
            ("read", (1, 2), {}),
            ("add_edge", NON_EDGE[:1], {}),
        ],
        ids=["vertex-keyword", "edge-keyword", "traverse-keyword", "hops-twice",
             "read-surplus", "edge-missing"],
    )
    def test_a_call_the_cluster_method_would_refuse_raises_before_admission(
        self, op, args, kwargs
    ):
        """An unknown keyword used to be admitted and then raise TypeError
        in the cluster (admitted 1 != completed 0 + in_flight 0), and a
        surplus argument was quietly dropped."""
        frontend = make_frontend()
        before = front_door_state(frontend)
        with pytest.raises(ClusterError):
            frontend.submit(op, *args, **kwargs)
        assert front_door_state(frontend) == before

    @pytest.mark.parametrize(
        "properties",
        [{"w": object()}, {"w": "\ud800"}, {7: "x"}, ["w"], "w"],
        ids=["value", "surrogate", "key", "list", "str"],
    )
    def test_unstorable_properties_raise_before_admission(self, properties):
        """Properties a store cannot encode used to be admitted and then
        raise StorageError (or AttributeError) in the cluster."""
        frontend = make_frontend()
        before = front_door_state(frontend)
        with pytest.raises(ClusterError, match="properties"):
            frontend.submit("add_vertex", FRESH, properties=properties)
        with pytest.raises(ClusterError, match="properties"):
            frontend.submit("add_edge", *NON_EDGE, properties)
        assert front_door_state(frontend) == before
        assert frontend.submit("add_vertex", FRESH, properties={"w": 1}).admitted
        assert frontend.submit("add_edge", *NON_EDGE, properties={"w": 1}).admitted
        frontend.cluster.validate()

    @settings(deadline=None)
    @given(st.lists(bad_submissions(), min_size=1, max_size=5))
    def test_drawn_bad_submission_is_refused_before_admission(self, calls):
        frontend = make_frontend()
        before = front_door_state(frontend)
        for op, args, kwargs in calls:
            with pytest.raises(ClusterError):
                frontend.submit(op, *args, **kwargs)
        assert front_door_state(frontend) == before
        assert InvariantAuditor().audit(frontend.cluster) == []
        assert frontend.submit("add_edge", *NON_EDGE).status == COMPLETED

    @settings(deadline=None)
    @given(st.lists(call_shapes(), min_size=1, max_size=8))
    def test_a_call_binds_as_the_cluster_signature_binds(self, calls):
        """Bindings are kept per call shape: every call of a shape, first
        or repeated, gets its own values, and a shape ``bind`` refuses
        with TypeError is a ClusterError on every call."""
        frontend = make_frontend()
        for op, args, kwargs in calls:
            method = signature(getattr(frontend.cluster, SERVING_METHODS[op]))
            try:
                bound = method.bind(*args, **kwargs)
            except TypeError:
                with pytest.raises(ClusterError):
                    frontend._bind(op, args, kwargs)
                continue
            bound.apply_defaults()
            assert frontend._bind(op, args, kwargs) == tuple(bound.arguments.values())


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
)


def shared_hub_pair():
    """Two front doors on clusters built under one installed hub (the
    runner's ``--telemetry-out``)."""
    previous = installed()
    install(Telemetry())
    try:
        first, second = make_frontend(), make_frontend()
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
        first, second = shared_hub_pair()
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
            # The servers' location cache carries the cluster label too.
            return sum(
                r["count"] if "count" in r else r["value"]
                for r in series_of(frontend, name)
                if not name.startswith("location_cache_")
                or r["labels"].get("cache") == "front_door"
            )

        for frontend, lookups in ((first, 30), (second, 31)):
            admitted = frontend.conservation()["admitted"]
            for name in ("serving_latency_seconds", "serving_queue_wait_seconds"):
                assert total(frontend, name) == admitted, name
            assert total(frontend, "serving_queue_depth") == frontend.queue.depth
            tenant = frontend.snapshot()["tenants"]["t"]
            assert tenant["admitted"] == admitted
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
