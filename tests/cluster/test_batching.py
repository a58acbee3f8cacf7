"""Batched remote traversal, the location cache, and the PR's fault fixes.

Three concerns share this module because they share machinery:

* the batched RPC cost model (``SimulatedNetwork.batched_hop`` plus the
  per-depth aggregation in the traversal engine) is pinned against the
  closed-form per-entry model: one round trip per remote frontier entry
  is the baseline, and batching saves exactly the amortized round trips;
* the per-server location cache must stay correct across migrations:
  participants are updated at commit, everyone else resolves stale hints
  via one forwarding charge;
* regression tests for the fault-path bugs fixed alongside: same-host
  frontier entries landing on a crashed server, reads ignoring crash
  windows, and broadcasts abandoning destinations mid-loop.
"""

import pytest

from repro.cluster.catalog import LocationCache
from repro.cluster.faults import CrashWindow, FaultInjector, FaultPlan
from repro.cluster.hermes import HermesCluster
from repro.cluster.network import (
    BATCH_BASE_BYTES,
    BATCH_ENTRY_BYTES,
    BATCH_ENTRY,
    CLIENT_DISPATCH,
    FAULT_TIMEOUT,
    LOCAL_VISIT,
    REMOTE_HOP,
    REMOTE_SERVICE,
    SimulatedNetwork,
)
from repro.core.migration import build_migration_plan
from repro.exceptions import FaultInjectedError, MigrationAbortedError
from repro.graph.adjacency import SocialGraph
from repro.partitioning.hashing import HashPartitioner
from repro.simtest.invariants import InvariantAuditor
from tests.conftest import (
    build_placed_cluster as build_cluster,
    crash_plan,
    link_down_plan,
    make_random_graph,
    migrate_moves as migrate,
    per_entry_model,
)


# ======================================================================
# batched_hop cost model
# ======================================================================
class TestBatchedHop:
    def test_charges_one_round_trip_plus_marginals(self):
        net = SimulatedNetwork(3)
        cost = net.batched_hop(0, 1, count=5)
        expected = REMOTE_HOP + 5 * BATCH_ENTRY
        assert cost == pytest.approx(expected)
        assert net.stats.messages == 1
        assert net.stats.bytes_sent == BATCH_BASE_BYTES + 5 * BATCH_ENTRY_BYTES

    def test_local_or_empty_batches_are_free(self):
        net = SimulatedNetwork(3)
        assert net.batched_hop(1, 1, count=4) == 0.0
        assert net.batched_hop(0, 1, count=0) == 0.0
        assert net.stats.messages == 0

    def test_cheaper_than_per_entry_hops_beyond_one(self):
        net = SimulatedNetwork(2)
        batched = net.batched_hop(0, 1, count=8)
        per_entry = 8 * REMOTE_HOP
        assert batched < per_entry

    def test_faults_apply_once_per_message(self):
        net = SimulatedNetwork(2)
        injector = FaultInjector(link_down_plan())
        net.attach_faults(injector)
        with pytest.raises(FaultInjectedError) as excinfo:
            net.batched_hop(0, 1, count=10)
        # One timeout for the whole batch, not one per entry.
        assert excinfo.value.cost == pytest.approx(FAULT_TIMEOUT)


# ======================================================================
# closed-form cost model (zero faults, cold cache)
# ======================================================================
class TestCostModel:
    def build(self):
        graph = make_random_graph(num_vertices=120, num_edges=500, seed=11)
        placement = HashPartitioner(salt=11).partition(graph, 4)
        return HermesCluster.from_graph(graph, num_servers=4, partitioning=placement)

    def test_batching_saves_exactly_the_amortized_round_trips(self):
        """Per query: the per-entry model, minus one round trip + RPC
        dispatch for every entry that rode someone else's message, plus
        the per-entry marginal."""
        cluster = self.build()
        saved_any = False
        for start in sorted(cluster.graph.vertices())[:30]:
            messages_before = cluster.network.stats.messages
            result = cluster.traverse(start, hops=2)
            messages = cluster.network.stats.messages - messages_before
            assert not result.partial
            assert messages <= result.remote_hops
            saved_any |= messages < result.remote_hops
            expected = (
                per_entry_model(result)
                - (result.remote_hops - messages)
                * (REMOTE_HOP + REMOTE_SERVICE)
                + result.remote_hops * BATCH_ENTRY
            )
            assert result.cost == pytest.approx(expected)
        assert saved_any, "trace never put two entries on one link"

    def test_never_costlier_than_per_entry_without_the_marginal(self):
        cluster = self.build()
        for start in sorted(cluster.graph.vertices())[:30]:
            result = cluster.traverse(start, hops=2)
            batched = result.cost - result.remote_hops * BATCH_ENTRY
            assert batched <= per_entry_model(result) * (1 + 1e-9)

    def test_equals_per_entry_model_when_every_link_carries_one_entry(self):
        """A single cut edge: one entry on one link, nothing amortized —
        the batched cost is the per-entry model plus that entry's
        marginal."""
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1}, num_servers=2)
        result = cluster.traverse(0, hops=1)
        assert result.remote_hops == 1
        # the bulk load's ghost shipment + the query's one message
        assert cluster.network.stats.messages == 2
        assert result.cost == pytest.approx(per_entry_model(result) + BATCH_ENTRY)
        assert per_entry_model(result) == pytest.approx(
            CLIENT_DISPATCH
            + 2 * LOCAL_VISIT
            + REMOTE_HOP
            + REMOTE_SERVICE
        )


# ======================================================================
# Location cache
# ======================================================================
class TestLocationCache:
    def make(self, placement, num_servers=3):
        cluster = build_cluster(
            SocialGraph.from_edges([(0, 1), (1, 2)]), placement, num_servers
        )
        return cluster, LocationCache(cluster.catalog, num_servers)

    def test_miss_then_hit(self):
        cluster, cache = self.make({0: 0, 1: 1, 2: 2})
        assert cache.lookup_from(0, 1) == 1
        assert cache.entries_on(0) == {1: 1}
        # Second lookup is served from the per-server dict.
        assert cache.lookup_from(0, 1) == 1
        assert cache._hits.value == 1
        assert cache._misses.value == 1

    def test_on_moved_updates_participants_only(self):
        cluster, cache = self.make({0: 0, 1: 1, 2: 2})
        for server in range(3):
            cache.lookup_from(server, 1)
        cache.on_moved(1, source=1, target=2)
        assert cache.entries_on(1)[1] == 2
        assert cache.entries_on(2)[1] == 2
        # The non-participant keeps its stale view until it forwards.
        assert cache.entries_on(0)[1] == 1

    def test_learn_corrects_stale_entry(self):
        cluster, cache = self.make({0: 0, 1: 1, 2: 2})
        cache.lookup_from(0, 1)
        cache.learn(0, 1, 2)
        assert cache.entries_on(0)[1] == 2
        assert cache._stale.value == 1

    def test_on_removed_drops_every_view(self):
        cluster, cache = self.make({0: 0, 1: 1, 2: 2})
        cache.lookup_from(0, 1)
        cache.lookup_from(2, 1)
        cache.on_removed(1)
        assert 1 not in cache.entries_on(0)
        assert 1 not in cache.entries_on(2)


class TestHopPlans:
    """A server's plan of an expanded vertex: its neighbours grouped by
    the host that server's cache names, kept while the store's array is
    the one it was built from and dropped by every cache mutator that
    changes an entry it may have been built from."""

    def planned(self):
        """A cache with a plan of vertex 1 (neighbours 0 and 2) on every
        server, each built from a cache that knows neither neighbour."""
        cluster, cache = TestLocationCache().make({0: 0, 1: 1, 2: 2})
        neighbors = cluster.servers[1].store.read_frontier([1], True)[0]
        for server in range(3):
            cache.plan_from(server, 1, neighbors)
        return cluster, cache, neighbors

    def test_neighbours_are_grouped_by_host_in_first_seen_order(self):
        cluster = build_cluster(
            SocialGraph.from_edges([(0, 1), (0, 2), (0, 3)]),
            {0: 0, 1: 1, 2: 0, 3: 1},
            2,
        )
        cache = LocationCache(cluster.catalog, 2)
        neighbors = cluster.servers[0].store.read_frontier([0], True)[0]
        plan, misses = cache.plan_from(0, 0, neighbors)
        assert list(neighbors) == [3, 2, 1]  # chain order: newest first
        assert misses == 3
        assert plan.neighbors is neighbors and plan.hosts == [1, 0, 1]
        assert list(plan.groups.items()) == [(1, [3, 1]), (0, [2])]
        assert list(plan.counts.items()) == [(1, 2), (0, 1)]

    def test_a_kept_plan_serves_only_the_array_it_was_built_from(self):
        _, cache, neighbors = self.planned()
        plan = cache.plans_on(0)[1]
        assert cache.plan_from(0, 1, neighbors) == (plan, 0)
        assert cache.plan_from(0, 1, neighbors)[0] is plan
        rebuilt, misses = cache.plan_from(0, 1, type(neighbors)("i", neighbors))
        assert rebuilt is not plan and rebuilt.hosts == plan.hosts
        assert misses == 0  # the entries the first build learned

    def test_learn_drops_its_servers_plans(self):
        _, cache, _ = self.planned()
        cache.learn(0, 2, 1)
        assert [bool(cache.plans_on(s)) for s in range(3)] == [False, True, True]

    def test_on_moved_drops_the_source_and_target_plans(self):
        _, cache, _ = self.planned()
        cache.on_moved(2, source=1, target=0)
        assert [bool(cache.plans_on(s)) for s in range(3)] == [False, False, True]

    def test_a_plan_that_lists_a_moved_vertex_is_not_served_after_the_commit(self):
        """Plans built between a migration's copy steps and its commit name
        the moved vertices' old homes, and the record rewrites that drop
        their arrays come only with the remove steps: the commit itself
        must drop them (``on_moved``), or a traversal between the commit
        and the removes pays a stale forward."""
        graph = SocialGraph.from_edges([(0, 1), (0, 2), (3, 2)])
        cluster = build_cluster(graph, {0: 0, 1: 1, 2: 0, 3: 2})
        moves = {0: (0, 1), 3: (2, 0)}
        for vertex, (_, target) in moves.items():
            cluster.aux.apply_move(vertex, target, cluster.graph.neighbors(vertex))
        kinds = []
        for step in cluster._executor.migrate_steps(build_migration_plan(moves)):
            kinds.append(step.kind)
            stale = [
                violation
                for violation in InvariantAuditor().audit(cluster)
                if violation.invariant == "hop-plans-fresh"
            ]
            assert stale == []
            # 1 sits on 0's target, 2 on 0's source and 3's target.
            cluster.traverse(1, 1)
            cluster.traverse(2, 1)
        assert kinds == ["copy", "copy", "barrier", "remove", "remove"]
        assert cluster.telemetry.registry.total("location_cache_stale_hits_total") == 0

    @pytest.mark.parametrize(
        "mutate",
        [lambda cache: cache.purge_host(2), lambda cache: cache.on_removed(2)],
        ids=["purge_host", "on_removed"],
    )
    def test_purge_and_remove_drop_every_plan(self, mutate):
        _, cache, _ = self.planned()
        mutate(cache)
        assert [cache.plans_on(s) for s in range(3)] == [{}, {}, {}]

    def test_a_joining_server_starts_without_plans(self):
        _, cache, _ = self.planned()
        cache.add_server()
        assert cache.plans_on(3) == {} and len(cache.plans_on(0)) == 1


class TestCacheAfterMigration:
    def test_migration_updates_participants(self):
        graph = SocialGraph.from_edges([(0, 1), (2, 0)])
        cluster = build_cluster(graph, {0: 0, 1: 1, 2: 2})
        # Warm every server's view of vertex 0.
        for server in range(3):
            cluster.location_cache.lookup_from(server, 0)
        migrate(cluster, {0: (0, 1)})
        assert cluster.location_cache.entries_on(0)[0] == 1
        assert cluster.location_cache.entries_on(1)[0] == 1
        # Server 2 was not a participant: stale on purpose.
        assert cluster.location_cache.entries_on(2)[0] == 0

    def test_stale_hint_forwards_then_self_corrects(self):
        graph = SocialGraph.from_edges([(0, 1), (2, 0)])
        cluster = build_cluster(graph, {0: 0, 1: 1, 2: 2})
        # Warm server 2's cache with vertex 0's pre-migration home.
        first = cluster.traverse(2, hops=1)
        assert set(first.response) == {2, 0}
        migrate(cluster, {0: (0, 1)})
        stale_before = cluster.location_cache._stale.value
        old_home_busy = cluster.servers[0].busy_counter.value
        forwarded = cluster.traverse(2, hops=1)
        # The stale hint resolves via a forwarding hop: same response.
        assert set(forwarded.response) == {2, 0}
        assert not forwarded.partial
        assert cluster.location_cache._stale.value == stale_before + 1
        # The old home serves the batched message and the forward: one
        # RPC dispatch each.
        busy = cluster.servers[0].busy_counter.value
        assert busy - old_home_busy == pytest.approx(2 * REMOTE_SERVICE)
        # The corrected entry makes the next query cheaper (no forward).
        repeat = cluster.traverse(2, hops=1)
        assert set(repeat.response) == {2, 0}
        assert repeat.cost < forwarded.cost
        assert cluster.location_cache._stale.value == stale_before + 1

    def test_abort_mid_copy_leaves_cache_resolvable(self):
        """A migration aborted mid-copy must not leak post-move hints.

        The executor only touches the location cache after the commit
        barrier, so after a rollback every participant's cached entry for
        the vertex must still resolve to its (unchanged) home server.
        """
        graph = SocialGraph.from_edges([(0, 1), (2, 0)])
        cluster = build_cluster(graph, {0: 0, 1: 1, 2: 2})
        for server in range(3):
            cluster.location_cache.lookup_from(server, 0)
        cluster.attach_faults(link_down_plan(0, 1))
        cluster.aux.apply_move(0, 1, cluster.graph.neighbors(0))
        with pytest.raises(MigrationAbortedError):
            cluster._executor.execute(build_migration_plan({0: (0, 1)}))
        cluster.aux.apply_move(0, 0, cluster.graph.neighbors(0))
        cluster.attach_faults(None)
        # Every participant resolves the vertex to its true (old) home.
        for server in range(3):
            assert cluster.location_cache.lookup_from(server, 0) == 0
        assert cluster.catalog.lookup(0) == 0
        cluster.validate()

    def test_traversals_correct_after_forced_rebalance(self):
        graph = make_random_graph(num_vertices=80, num_edges=300, seed=5)
        placement = HashPartitioner(salt=5).partition(graph, 4)
        cluster = HermesCluster.from_graph(
            graph.copy(), num_servers=4, partitioning=placement
        )
        before = {
            start: cluster.traverse(start, hops=1).response
            for start in sorted(cluster.graph.vertices())[:20]
        }
        cluster.rebalance(force=True)
        for start, response in before.items():
            assert cluster.traverse(start, hops=1).response == response


# ======================================================================
# Fault-path regressions
# ======================================================================
class TestFaultRegressions:
    def test_same_host_entries_skip_crashed_server(self):
        """A server that crashes mid-query must stop serving *local*
        frontier entries too, not only remote ones.

        Server 1 hosts the start vertex and crashes 0.4 ms in.  The
        aggregated depth-1 message to server 0 advances the simulated
        clock past the window start before any depth-1 entry runs, so
        the first of v3/v4 to be expanded on server 1 hits the crash: it
        stays in the response, its expansions are lost, and the other —
        a same-host entry queued right behind it — must be dropped
        (before the fix it was visited on the crashed server and leaked
        into the response), as is every depth-2 entry hosted there.
        """
        graph = SocialGraph.from_edges(
            [(1, 3), (1, 4), (0, 1), (3, 9), (3, 8), (0, 5)]
        )
        cluster = build_cluster(
            graph, {0: 0, 1: 1, 3: 1, 4: 1, 5: 1, 8: 1, 9: 1}, num_servers=2
        )
        cluster.attach_faults(
            FaultPlan(
                crash_windows=(CrashWindow(server=1, start=400_000, end=10**18),)
            )
        )
        result = cluster.traverse(1, hops=3)
        assert result.partial
        assert result.failed_partitions == (1,)
        assert {0, 1} <= set(result.response)
        assert len({3, 4} & set(result.response)) == 1
        assert not {5, 8, 9} & set(result.response)

    def test_read_vertex_degraded_when_host_down(self):
        graph = SocialGraph.from_edges([(0, 1)])
        cluster = build_cluster(graph, {0: 0, 1: 1}, num_servers=2)
        cluster.attach_faults(
            crash_plan(1)
        )
        properties, cost = cluster.read_vertex(1)
        assert properties == {}
        assert cost == pytest.approx(CLIENT_DISPATCH + FAULT_TIMEOUT)
        # The healthy server still serves reads normally.
        _, healthy_cost = cluster.read_vertex(0)
        assert healthy_cost < cost

    def test_broadcast_charges_every_destination(self):
        net = SimulatedNetwork(4)
        net.attach_faults(FaultInjector(link_down_plan()))
        with pytest.raises(FaultInjectedError) as excinfo:
            net.broadcast(0)
        # The dead link times out but servers 2 and 3 are still reached
        # and the re-raised fault carries the whole broadcast's cost.
        assert net.stats.messages == 2
        assert excinfo.value.cost == pytest.approx(
            FAULT_TIMEOUT + 2 * REMOTE_HOP
        )

    def test_broadcast_zero_fault_cost_unchanged(self):
        net = SimulatedNetwork(4)
        cost = net.broadcast(0)
        assert cost == pytest.approx(3 * REMOTE_HOP)
        assert net.stats.messages == 3
