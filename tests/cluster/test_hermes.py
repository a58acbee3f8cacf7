"""Integration tests for the HermesCluster facade."""

import pytest

from repro.cluster.faults import FaultPlan
from repro.cluster.hermes import HermesCluster
from repro.core.config import RepartitionerConfig
from repro.exceptions import ClusterError, StorageError
from repro.graph.adjacency import SocialGraph
from repro.graph.generators import community_graph, make_dataset
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.simtest.invariants import InvariantAuditor
from repro.storage.graph_store import GraphStore
from repro.storage.records import NULL_REF
from tests.conftest import make_random_graph, store_state, telemetry_snapshot


class TestLoading:
    def test_load_is_consistent(self, small_cluster):
        small_cluster.validate()
        assert small_cluster.graph.num_vertices == 20

    def test_double_load_rejected(self, small_cluster, small_graph):
        with pytest.raises(ClusterError):
            small_cluster.load(small_graph, HashPartitioner().partition(small_graph, 3))

    @staticmethod
    def assert_empty(cluster):
        assert list(cluster.catalog.vertices()) == []
        assert all(
            server.store.num_nodes == 0 and len(server.store.relationships) == 0
            for server in cluster.servers
        )
        assert cluster.graph.num_vertices == 0
        assert cluster.aux.num_vertices == 0
        assert cluster.aux.partition_weights == [0.0, 0.0]

    @pytest.mark.parametrize(
        "placement, first_bad",
        [({0: 0, 1: 1, 2: 2}, 2), ({0: 0, 1: 1}, 2), ({0: 0, 1: 2}, 1)],
        ids=[
            "partition-out-of-range",
            "vertex-without-partition",
            "out-of-range-before-missing",
        ],
    )
    def test_bad_placement_is_a_typed_error_and_loads_nothing(
        self, triangle_graph, placement, first_bad
    ):
        """Vertices 0 and 1 used to be written before vertex 2 raised a
        bare ``IndexError`` / ``VertexNotFoundError``, and every retry
        then failed with "cluster already loaded".  The error names the
        first vertex, in graph order, without a valid partition."""
        cluster = HermesCluster(2, durability=True)
        partitioning = Partitioning.from_mapping(placement, num_partitions=3)
        with pytest.raises(ClusterError, match=f"vertex {first_bad} "):
            cluster.load(triangle_graph, partitioning)
        self.assert_empty(cluster)
        corrected = Partitioning.from_mapping({0: 0, 1: 1, 2: 1}, num_partitions=2)
        cluster.load(triangle_graph, corrected)
        cluster.validate()

    def test_an_unstorable_vertex_is_a_typed_error_and_loads_nothing(self):
        """A vertex id beyond int64 used to raise ``StorageError`` from a
        store's bulk load after the catalog had registered every vertex,
        the network had carried the ghosts and server 0 had written a
        node, so the corrected graph then failed with "cluster already
        loaded"."""

        def path(last):
            graph = SocialGraph()
            for vertex in (0, 1, last):
                graph.add_vertex(vertex)
            graph.add_edge(0, 1)
            graph.add_edge(1, last)
            placement = Partitioning.from_mapping({0: 0, 1: 1, last: 0}, num_partitions=2)
            return graph, placement

        cluster = HermesCluster(2)
        with pytest.raises(ClusterError, match=f"vertex {2**70} "):
            cluster.load(*path(2**70))
        self.assert_empty(cluster)
        assert cluster.network.stats.messages == 0
        assert [server.store.allocator_state() for server in cluster.servers] == [
            GraphStore(server, 2).allocator_state() for server in (0, 1)
        ]
        cluster.load(*path(2))
        cluster.validate()
        assert sorted(cluster.graph.neighbors(1)) == [0, 2]

    def test_load_under_a_fault_plan_is_refused(self, triangle_graph):
        """A bulk load is a fault-free, unlogged import; a fault in the
        middle of it used to leave a half-loaded cluster."""
        cluster = HermesCluster(2)
        cluster.attach_faults(FaultPlan())
        partitioning = Partitioning.from_mapping({0: 0, 1: 1, 2: 1}, num_partitions=2)
        with pytest.raises(ClusterError, match="fault plan"):
            cluster.load(triangle_graph, partitioning)
        self.assert_empty(cluster)
        assert cluster.network.stats.messages == 0
        cluster.attach_faults(None)
        cluster.load(triangle_graph, partitioning)
        cluster.validate()

    def test_ghosts_present_for_cut_edges(self, small_cluster):
        cut_edges = [
            (u, v)
            for u, v in small_cluster.graph.edges()
            if small_cluster.catalog.lookup(u) != small_cluster.catalog.lookup(v)
        ]
        assert cut_edges  # hash partitioning certainly cuts something
        u, v = cut_edges[0]
        host_u = small_cluster.catalog.lookup(u)
        host_v = small_cluster.catalog.lookup(v)
        assert v in small_cluster.servers[host_u].store.neighbors(u)
        assert u in small_cluster.servers[host_v].store.neighbors(v)


class TestReadPath:
    def test_traverse_updates_weights(self, small_cluster):
        start = next(iter(small_cluster.graph.vertices()))
        before = small_cluster.aux.weight_of(start)
        result = small_cluster.traverse(start, hops=1)
        assert start in result.response
        assert small_cluster.aux.weight_of(start) == before + 1.0
        small_cluster.validate()

    def test_read_vertex(self, small_cluster):
        vertex = next(iter(small_cluster.graph.vertices()))
        props, cost = small_cluster.read_vertex(vertex)
        assert props == {}
        assert cost > 0
        assert small_cluster.now_ns >= cost

    def test_clock_advances(self, small_cluster):
        before = small_cluster.now
        small_cluster.traverse(0, hops=1)
        assert small_cluster.now > before

    @pytest.mark.parametrize("hops", [-1, 1.5, "2", None])
    def test_invalid_hops_is_a_typed_error_with_nothing_charged(
        self, small_cluster, hops
    ):
        """``traverse(0, -1)`` used to "succeed" with an empty response and
        ``traverse(0, 1.5)`` died in ``range()`` after the dispatch."""
        small_cluster.start_tracing()
        small_cluster.traverse(0, hops=1)
        before = telemetry_snapshot(small_cluster)
        now = small_cluster.now
        tracer = small_cluster.telemetry.tracer
        spans = len(tracer.spans)
        with pytest.raises(ClusterError, match="hops"):
            small_cluster.traverse(0, hops)
        assert small_cluster.now == now
        assert telemetry_snapshot(small_cluster) == before
        assert len(tracer.spans) == spans and not tracer._stack


class TestWritePath:
    def test_add_vertex(self, small_cluster):
        cost = small_cluster.add_vertex(1000, weight=2.0)
        assert cost > 0
        assert 1000 in small_cluster.catalog
        home = small_cluster.catalog.lookup(1000)
        assert small_cluster.servers[home].store.has_node(1000)
        small_cluster.validate()

    def test_add_duplicate_vertex(self, small_cluster):
        with pytest.raises(ClusterError):
            small_cluster.add_vertex(0)

    def test_add_edge_local_and_remote(self, small_cluster):
        small_cluster.add_vertex(1000)
        small_cluster.add_vertex(1001)
        small_cluster.add_edge(1000, 1001)
        assert small_cluster.graph.has_edge(1000, 1001)
        small_cluster.validate()

    def test_add_duplicate_edge(self, small_cluster):
        u, v = next(iter(small_cluster.graph.edges()))
        with pytest.raises(ClusterError):
            small_cluster.add_edge(u, v)

    def test_writes_update_aux(self, small_cluster):
        small_cluster.add_vertex(1000)
        small_cluster.add_vertex(1001)
        small_cluster.add_edge(1000, 1001)
        home = small_cluster.catalog.lookup(1001)
        assert small_cluster.aux.neighbor_count(1000, home) == 1


def cluster_state(cluster):
    """Stores (pages, allocators, WAL frames), catalog, mirror, aux and
    clock of a durable cluster."""
    vertices = sorted(cluster.graph.vertices())
    aux = cluster.aux
    return {
        "stores": [
            store_state(server.store, server.journal) for server in cluster.servers
        ],
        "catalog": sorted((v, cluster.catalog.lookup(v)) for v in cluster.catalog.vertices()),
        "mirror": [(v, cluster.graph.weight(v), sorted(cluster.graph.neighbors(v))) for v in vertices],
        "aux": [(v, aux.partition_of(v), aux.neighbor_counts(v)) for v in vertices],
        "aux_weights": repr(aux.partition_weights),
        "now": cluster.now,
    }


def unconnected_pair(cluster, same_host):
    """The first two unconnected vertices on one host or on two hosts."""
    vertices = sorted(cluster.graph.vertices())
    for u in vertices:
        for v in vertices:
            if u != v and not cluster.graph.has_edge(u, v) and (
                cluster.catalog.lookup(u) == cluster.catalog.lookup(v)
            ) == same_host:
                return u, v
    raise AssertionError("no such pair")


class TestRejectedWrites:
    """A write with a property the store cannot encode is rejected before
    any layer moves.  It used to leave the node in a store but not in the
    catalog (every retry then failed with "already exists"), or the
    primary relationship record linked on one host, failing the next
    ``validate()``; a durable cluster logged the partial write."""

    @pytest.mark.parametrize(
        "bad, good",
        [
            (
                lambda c: c.add_vertex(1000, properties={"name": "x", "bad": object()}),
                lambda c: c.add_vertex(1000, properties={"name": "x"}),
            ),
            (
                lambda c: c.add_vertex(1000, properties={5: "five"}),
                lambda c: c.add_vertex(1000, properties={"5": "five"}),
            ),
            (
                lambda c: c.add_edge(*unconnected_pair(c, True), properties={"w": object()}),
                lambda c: c.add_edge(*unconnected_pair(c, True), properties={"w": 1}),
            ),
            (
                lambda c: c.add_edge(*unconnected_pair(c, False), properties={"w": object()}),
                lambda c: c.add_edge(*unconnected_pair(c, False), properties={"w": 1}),
            ),
        ],
        ids=["vertex-bad-value", "vertex-non-str-key", "local-edge", "cross-server-edge"],
    )
    def test_a_rejected_write_changes_nothing_and_a_retry_succeeds(
        self, small_graph, bad, good
    ):
        cluster = HermesCluster.from_graph(
            small_graph.copy(), num_servers=3, partitioner=HashPartitioner(), durability=True
        )
        before = cluster_state(cluster)
        frames = [len(server.journal.wal) for server in cluster.servers]
        with pytest.raises(StorageError):
            bad(cluster)
        assert [len(server.journal.wal) for server in cluster.servers] == frames
        assert cluster_state(cluster) == before
        cluster.validate()
        good(cluster)
        cluster.validate()
        assert cluster_state(cluster) != before


class TestWritePreChecks:
    """Every vertex and edge insert runs one cluster-owned pre-check
    (``check_new_vertex`` / ``check_new_edge``) before any layer moves,
    and the front door routes through the same checks.  ``add_vertex(True)``
    used to be accepted — the catalog and the store held ``True`` while
    the auxiliary data held row 1, so ``validate()`` raised
    VertexNotFoundError and the auditor crashed — and ``add_vertex("7")``
    raised a bare TypeError."""

    @pytest.mark.parametrize(
        "bad", [True, 1000.0, "1000"], ids=["bool", "float", "str"]
    )
    def test_a_non_integral_id_is_rejected_and_changes_nothing(
        self, small_graph, bad
    ):
        from repro.serving import ServingFrontend

        cluster = HermesCluster.from_graph(
            small_graph.copy(), num_servers=3, partitioner=HashPartitioner(),
            durability=True,
        )
        frontend = ServingFrontend(cluster)
        cluster.serving = frontend
        before = cluster_state(cluster), telemetry_snapshot(cluster)
        for write in (
            lambda: cluster.add_vertex(bad),
            lambda: cluster.add_edge(0, bad),
            lambda: cluster.add_edge(bad, 0),
            lambda: frontend.submit("add_vertex", bad),
            lambda: frontend.submit("add_edge", 0, bad),
        ):
            with pytest.raises(ClusterError, match="must be integers"):
                write()
        assert (cluster_state(cluster), telemetry_snapshot(cluster)) == before
        assert frontend.conservation()["submitted"] == 0
        cluster.validate()
        assert InvariantAuditor().audit(cluster) == []

    def test_a_self_loop_is_a_cluster_error_before_any_layer_moves(
        self, small_graph
    ):
        cluster = HermesCluster.from_graph(
            small_graph.copy(), num_servers=3, partitioner=HashPartitioner(),
            durability=True,
        )
        before = cluster_state(cluster), telemetry_snapshot(cluster)
        with pytest.raises(ClusterError, match="self-loop"):
            cluster.add_edge(4, 4)
        assert (cluster_state(cluster), telemetry_snapshot(cluster)) == before
        cluster.validate()


class TestRebalance:
    def test_trigger_fires_after_hotspot(self, small_cluster):
        assert not small_cluster.check_trigger().should_repartition or True
        for vertex in list(small_cluster.catalog.vertices_on(0)):
            small_cluster.aux.set_weight(vertex, 10.0)
        decision = small_cluster.check_trigger()
        assert decision.should_repartition
        assert 0 in decision.overloaded

    def test_rebalance_none_when_balanced(self):
        graph = make_random_graph(30, 60, seed=5)
        cluster = HermesCluster.from_graph(
            graph, num_servers=3, partitioner=MultilevelPartitioner(seed=1),
            repartitioner=RepartitionerConfig(k=2),
        )
        if not cluster.check_trigger().should_repartition:
            assert cluster.rebalance() is None

    def test_rebalance_restores_balance_and_consistency(self, small_cluster):
        for vertex in list(small_cluster.catalog.vertices_on(0)):
            small_cluster.aux.set_weight(vertex, 5.0)
        before = small_cluster.imbalance()
        outcome = small_cluster.rebalance()
        assert outcome is not None
        result, report = outcome
        assert small_cluster.imbalance() <= before
        assert report.vertices_moved == result.vertices_moved
        small_cluster.validate()

    def test_forced_rebalance_improves_cut(self):
        graph = community_graph(200, seed=6)
        cluster = HermesCluster.from_graph(
            graph,
            num_servers=4,
            partitioner=HashPartitioner(),
            repartitioner=RepartitionerConfig(k=3),
        )
        before = cluster.edge_cut()
        outcome = cluster.rebalance(force=True)
        assert outcome is not None
        assert cluster.edge_cut() < before
        cluster.validate()

    def test_repartition_static_matches_partitioner(self):
        graph = community_graph(150, seed=7)
        cluster = HermesCluster.from_graph(
            graph, num_servers=3, partitioner=HashPartitioner()
        )
        partitioner = MultilevelPartitioner(seed=2)
        expected = partitioner.partition(cluster.graph, 3)
        cluster.repartition_static(partitioner)
        assert cluster.partitioning() == expected
        cluster.validate()


class TestValidateChains:
    """``validate`` checks that every chain links back, so the auditor's
    ``mirror-consistency`` sees a wrong ``prev`` pointer that leaves every
    adjacency list intact."""

    def corrupt(self, position, prev):
        graph = make_dataset("orkut", 300, 3).graph
        cluster = HermesCluster.from_graph(
            graph, num_servers=4, partitioner=HashPartitioner()
        )
        rebalanced = cluster.rebalance(force=True)
        assert rebalanced is not None
        cluster.validate()
        vertex = max(sorted(graph.vertices()), key=graph.degree)
        store = cluster.servers[cluster.catalog.lookup(vertex)].store
        chain = [entry.rel_id for entry in store.neighbor_entries(vertex)]
        record = store.relationship(chain[position])
        store.relationships.write(record.with_prev_for(vertex, prev(chain)))
        return cluster, vertex

    @pytest.mark.parametrize(
        "position, prev",
        [
            (1, lambda chain: NULL_REF),
            (2, lambda chain: chain[0]),
            (0, lambda chain: chain[3]),
        ],
        ids=["second-null", "third-skips-back", "head-not-null"],
    )
    def test_a_wrong_prev_pointer_fails_validate_and_the_audit(self, position, prev):
        cluster, vertex = self.corrupt(position, prev)
        with pytest.raises(ClusterError, match=f"vertex {vertex}'s chain"):
            cluster.validate()
        (violation,) = InvariantAuditor().audit(cluster)
        assert violation.invariant == "mirror-consistency"


class TestMetrics:
    def test_edge_cut_fraction(self, small_cluster):
        fraction = small_cluster.edge_cut_fraction()
        assert 0.0 <= fraction <= 1.0
        assert small_cluster.edge_cut() == round(
            fraction * small_cluster.graph.num_edges
        )

    def test_storage_stats_per_server(self, small_cluster):
        stats = small_cluster.storage_stats()
        assert len(stats) == 3
        assert sum(s.num_nodes for s in stats) == 20

    def test_repr(self, small_cluster):
        assert "HermesCluster" in repr(small_cluster)

