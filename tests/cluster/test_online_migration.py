"""Online migration: copy-steps, the double-write window, abort parity.

:meth:`~repro.cluster.migration_executor.MigrationExecutor.migrate_steps`
streams the copy/commit/remove protocol one vertex at a time so queries
and writes can interleave; ``execute`` (and ``HermesCluster.rebalance``
over ``rebalance_steps``) is that generator drained in one call.  These
tests pin the protocol's contract:

* a serial call and a hand-drained generator from identical start
  states leave identical stores, catalog, report and telemetry —
  including when the migration aborts mid-copy and rolls back;
* writes landing on a windowed vertex are mirrored to the in-flight
  target copy, and the coherence sweep stays clean throughout;
* an abort rolls back copy-steps *and* mirrored writes together,
  restoring every layer byte for byte;
* a consumer that closes the generator before the commit gets the same
  rollback; closing it after the commit finishes the removes;
* the final placement and edge-cut equal the serial rebalance's from
  the same start state (matched schedules), because the plan is fixed
  up front and the catalog commit is atomic.
"""

import pytest

from repro.concurrency.engine import ConcurrentExecutor
from repro.core.migration import build_migration_plan
from repro.exceptions import MigrationAbortedError
from repro.graph.generators import community_graph
from repro.cluster.hermes import HermesCluster
from repro.core import RepartitionerConfig
from repro.partitioning import MultilevelPartitioner
from repro.simtest.invariants import InvariantAuditor
from repro.storage.graph_store import GraphStore
from repro.workloads.queries import InsertEdge, InsertVertex, Traversal

from tests.conftest import (
    build_placed_cluster,
    crash_plan,
    deep_snapshot,
    drain,
    make_random_graph,
    new_vertex_on,
    telemetry_snapshot,
)


def plan_for(cluster, moves):
    for vertex, (_, target) in moves.items():
        cluster.aux.apply_move(vertex, target, cluster.graph.neighbors(vertex))
    return build_migration_plan(moves)


def drive(executor, plan):
    """Drain migrate_steps, collecting the yielded MigrationSteps."""
    return drain(executor.migrate_steps(plan))


def by_content(snapshot):
    """``deep_snapshot`` with relationship ids left out: chains as
    ``(neighbour, ghost)`` and relationships as their content.  Ids a
    server mints differ once its allocator has observed copied ids."""
    servers = [
        {
            "nodes": {
                node_id: dict(node, chain=sorted((n, g) for n, _, g in node["chain"]))
                for node_id, node in server["nodes"].items()
            },
            "rels": sorted(
                (r["src"], r["dst"], r["ghost"], sorted(r["properties"].items()))
                for r in server["rels"].values()
            ),
        }
        for server in snapshot["servers"]
    ]
    return dict(snapshot, servers=servers)


def write_into_window(cluster, fresh):
    """One round of writes touching vertices 0 and 3 while they move to
    server 2: a new vertex there joining 0 (the first id from ``fresh``
    up that hashes to server 2), edges with properties both ways between
    0 and two residents of server 2, the edge 0-3 and an edge into 3."""
    fresh = new_vertex_on(cluster, 2, fresh)
    cluster.add_vertex(fresh)
    residents = [
        vertex
        for vertex in sorted(cluster.catalog.vertices_on(2))
        if not cluster.graph.has_edge(0, vertex)
    ]
    cluster.add_edge(0, residents[0], properties={"out": fresh})
    cluster.add_edge(residents[1], 0, properties={"in": fresh, "w": 0.5})
    if not cluster.graph.has_edge(fresh, 0):
        cluster.add_edge(fresh, 0)
    if not cluster.graph.has_edge(0, 3):
        cluster.add_edge(0, 3, properties={"pair": fresh})
    outsider = next(
        vertex
        for vertex in sorted(cluster.graph.vertices())
        if vertex not in (0, 3) and not cluster.graph.has_edge(vertex, 3)
    )
    cluster.add_edge(outsider, 3, properties={"into": fresh})


class TestMigrateSteps:
    def build(self):
        graph = make_random_graph(12, 20, seed=3)
        placement = {v: v % 3 for v in range(12)}
        return build_placed_cluster(graph, placement)

    def test_step_stream_shape_and_outcome(self):
        cluster = self.build()
        moves = {0: (0, 1), 3: (0, 2)}
        steps, report = drive(cluster._executor, plan_for(cluster, moves))
        kinds = [step.kind for step in steps]
        assert kinds.count("copy") == 2
        assert kinds.count("barrier") == 1
        assert kinds.count("remove") == 2
        # copy -> barrier -> remove ordering
        assert kinds.index("barrier") > max(
            i for i, k in enumerate(kinds) if k == "copy"
        )
        assert report.vertices_moved == 2
        assert cluster.catalog.lookup(0) == 1
        assert cluster.catalog.lookup(3) == 2
        assert not cluster._executor.window_open
        cluster.validate()

    def test_step_costs_sum_to_report_total(self):
        cluster = self.build()
        moves = {0: (0, 1), 3: (0, 2), 6: (0, 1)}
        steps, report = drive(cluster._executor, plan_for(cluster, moves))
        assert sum(step.cost for step in steps) == pytest.approx(
            report.total_cost
        )

    def test_execute_is_the_drained_generator(self):
        serial = self.build()
        drained = self.build()
        moves = {0: (0, 1), 3: (0, 2), 6: (0, 1)}
        serial_report = serial._executor.execute(plan_for(serial, moves))
        _, drained_report = drive(drained._executor, plan_for(drained, moves))
        assert serial_report == drained_report
        assert deep_snapshot(serial) == deep_snapshot(drained)
        assert telemetry_snapshot(serial) == telemetry_snapshot(drained)
        assert serial.network.stats == drained.network.stats
        serial.validate()

    def test_execute_and_drained_generator_abort_identically(self):
        """Abort mid-copy: the first move's copy lands, the second's
        target is down — both forms roll back to the same state and
        publish the same abort telemetry."""
        outcomes = []
        for run in (
            lambda cluster, plan: cluster._executor.execute(plan),
            lambda cluster, plan: drive(cluster._executor, plan),
        ):
            cluster = self.build()
            before = deep_snapshot(cluster)
            moves = {0: (0, 1), 3: (0, 2)}
            plan = plan_for(cluster, moves)
            cluster.attach_faults(crash_plan(2))
            with pytest.raises(MigrationAbortedError) as excinfo:
                run(cluster, plan)
            cluster.attach_faults(None)
            for vertex, (source, _) in moves.items():
                cluster.aux.apply_move(
                    vertex, source, cluster.graph.neighbors(vertex)
                )
            assert excinfo.value.report.vertices_moved == 1
            assert deep_snapshot(cluster) == before
            assert not cluster._executor.window_open
            cluster.validate()
            registry = cluster.telemetry.registry
            mine = {"cluster": cluster.cluster_id}
            assert registry.total("migration_aborts_total", **mine) == 1
            assert registry.total("migration_vertices_moved_total", **mine) == 0
            outcomes.append(
                (
                    excinfo.value.report,
                    telemetry_snapshot(cluster),
                    cluster.network.stats,
                )
            )
        assert outcomes[0] == outcomes[1]


class TestDoubleWriteWindow:
    def build(self):
        graph = make_random_graph(12, 20, seed=3)
        placement = {v: v % 3 for v in range(12)}
        return build_placed_cluster(graph, placement)

    def test_window_tracks_copied_vertices_until_commit(self):
        cluster = self.build()
        moves = {0: (0, 1), 3: (0, 2)}
        generator = cluster._executor.migrate_steps(plan_for(cluster, moves))
        copied = []
        for step in generator:
            if step.kind == "copy":
                copied.append(dict(cluster._executor.window_vertices))
            if step.kind == "barrier":
                # Every copied vertex is windowed at the barrier; the
                # catalog still routes reads to the sources.
                assert cluster._executor.window_open
                assert set(cluster._executor.window_vertices) == {0, 3}
                assert cluster.catalog.lookup(0) == 0
                assert cluster._executor.check_window_coherence() == []
        assert copied[0] == {0: 1}
        assert copied[1] == {0: 1, 3: 2}
        assert not cluster._executor.window_open

    def test_mid_window_write_is_mirrored_and_survives_commit(self):
        cluster = self.build()
        moves = {0: (0, 1)}
        generator = cluster._executor.migrate_steps(plan_for(cluster, moves))
        for step in generator:
            if step.kind == "copy":
                # A write lands on the windowed vertex mid-migration.
                cluster.add_vertex(100)
                cluster.add_edge(100, 0)
                assert cluster._executor.check_window_coherence() == []
        assert cluster.catalog.lookup(0) == 1
        # The mirrored edge followed the vertex to its new home.
        assert cluster.graph.has_edge(0, 100)
        store = cluster.servers[1].store
        assert any(
            entry.neighbor == 100 for entry in store.neighbor_entries(0)
        )
        cluster.validate()

    def test_mirror_edge_is_noop_outside_window(self):
        cluster = self.build()
        assert not cluster._executor.window_open
        cluster._executor.mirror_edge(
            0, {"rel_id": 999, "src": 0, "dst": 5, "properties": {}}
        )
        cluster.validate()


class TestAbort:
    def build(self):
        graph = make_random_graph(12, 20, seed=3)
        placement = {v: v % 3 for v in range(12)}
        return build_placed_cluster(graph, placement)

    def test_abort_rolls_back_copies_and_window(self):
        cluster = self.build()
        before = deep_snapshot(cluster)
        moves = {0: (0, 1), 3: (0, 1)}
        plan = plan_for(cluster, moves)
        cluster.attach_faults(crash_plan(1))
        with pytest.raises(MigrationAbortedError):
            for _ in cluster._executor.migrate_steps(plan):
                pass
        cluster.attach_faults(None)
        # aux was re-pointed by plan_for; restore for the comparison.
        for vertex, (source, _) in moves.items():
            cluster.aux.apply_move(
                vertex, source, cluster.graph.neighbors(vertex)
            )
        assert not cluster._executor.window_open
        assert deep_snapshot(cluster) == before
        cluster.validate()

    def test_abort_rolls_back_mirrored_writes(self):
        cluster = self.build()
        moves = {0: (0, 2)}
        plan = plan_for(cluster, moves)
        generator = cluster._executor.migrate_steps(plan)
        crashed = False
        with pytest.raises(MigrationAbortedError):
            for step in generator:
                if step.kind == "copy" and not crashed:
                    # Mirror a write into the in-flight copy, then kill
                    # the target before the barrier completes.
                    cluster.add_vertex(100)
                    cluster.add_edge(100, 0)
                    cluster.attach_faults(crash_plan(2))
                    crashed = True
        cluster.attach_faults(None)
        for vertex, (source, _) in moves.items():
            cluster.aux.apply_move(
                vertex, source, cluster.graph.neighbors(vertex)
            )
        assert not cluster._executor.window_open
        # The direct write survives on the source; the mirrored target
        # copy is gone with the rolled-back migration.
        assert cluster.graph.has_edge(0, 100)
        assert cluster.catalog.lookup(0) == 0
        target_store = cluster.servers[2].store
        assert 0 not in set(target_store.node_ids()) or not target_store.node(
            0
        ).available
        cluster.validate()

    def test_abort_after_window_writes_equals_writes_without_migrating(self):
        """Writes land after each of two co-migrating copies, then the
        target crashes: the cluster ends where a twin that made the same
        writes without migrating is."""
        cluster = self.build()
        twin = self.build()
        moves = {0: (0, 2), 3: (0, 2)}
        plan = plan_for(cluster, moves)
        with pytest.raises(MigrationAbortedError):
            for step in cluster._executor.migrate_steps(plan):
                if step.kind != "copy":
                    continue
                copies = len(cluster._executor.window_vertices)
                for each in (cluster, twin):
                    write_into_window(each, 100 + copies)
                assert cluster._executor.check_window_coherence() == []
                if copies == len(moves):
                    cluster.attach_faults(crash_plan(2))
        cluster.attach_faults(None)
        for vertex, (source, _) in moves.items():
            cluster.aux.apply_move(
                vertex, source, cluster.graph.neighbors(vertex)
            )
        assert not cluster._executor.window_open
        assert by_content(deep_snapshot(cluster)) == by_content(deep_snapshot(twin))
        cluster.validate()


class TestMatchedScheduleParity:
    """The online rebalance lands exactly where the serial one does."""

    def build(self):
        graph = community_graph(120, seed=31)
        cluster = HermesCluster.from_graph(
            graph,
            num_servers=3,
            partitioner=MultilevelPartitioner(seed=31),
            repartitioner=RepartitionerConfig(epsilon=1.1, k=2),
        )
        for vertex in list(cluster.catalog.vertices_on(0)):
            cluster.aux.add_weight(vertex, 5.0)
        return cluster

    def placement(self, cluster):
        return sorted(cluster.catalog.as_mapping().items())

    def drain(self, cluster):
        """Hand-drain rebalance_steps; returns (steps, outcome)."""
        return drain(cluster.rebalance_steps(force=True))

    def test_rebalance_is_the_drained_generator(self):
        serial = self.build()
        drained = self.build()
        serial_outcome = serial.rebalance(force=True)
        steps, drained_outcome = self.drain(drained)

        assert serial_outcome is not None and drained_outcome is not None
        assert serial_outcome[0].moves == drained_outcome[0].moves
        assert serial_outcome[0].history == drained_outcome[0].history
        assert serial_outcome[1] == drained_outcome[1]
        assert serial_outcome[1].vertices_moved > 0
        assert deep_snapshot(serial) == deep_snapshot(drained)
        assert telemetry_snapshot(serial) == telemetry_snapshot(drained)
        assert serial.network.stats == drained.network.stats
        # The generator yields costs; only its consumer moves the clock.
        assert drained.now_ns == 0
        assert serial.now_ns == serial_outcome[1].total_cost
        assert sum(step.cost for step in steps) == serial.now_ns
        drained.validate()

    def test_rebalance_and_drained_generator_abort_identically(self):
        outcomes = []
        for run in (lambda c: c.rebalance(force=True), self.drain):
            cluster = self.build()
            before = deep_snapshot(cluster)
            # Server 1 is down: the first copy bound for it exhausts its
            # retries mid-copy and the whole rebalance rolls back.
            cluster.attach_faults(crash_plan(1))
            with pytest.raises(MigrationAbortedError) as excinfo:
                run(cluster)
            cluster.attach_faults(None)
            assert deep_snapshot(cluster) == before
            assert not cluster._executor.window_open
            cluster.validate()
            registry = cluster.telemetry.registry
            label = {"cluster": cluster.cluster_id}
            assert registry.value("rebalance_aborts_total", **label) == 1
            assert registry.value("rebalances_total", **label) == 0
            outcomes.append(
                (
                    excinfo.value.report,
                    telemetry_snapshot(cluster),
                    cluster.network.stats,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_parity_holds_with_read_traffic_interleaved(self):
        serial = self.build()
        online = self.build()
        serial.rebalance(force=True)

        engine = ConcurrentExecutor(online)
        # Spawned first: the plan is computed before any traffic runs.
        handle = engine.submit_rebalance(force=True)
        for v in range(0, 60, 5):
            engine.submit_operation(Traversal(start=v, hops=1))
        engine.run()
        assert handle.ok, handle.error
        assert engine.coherence_violations == []
        assert self.placement(serial) == self.placement(online)
        assert serial.edge_cut() == online.edge_cut()

    def test_no_trigger_yields_nothing(self):
        # An exactly balanced explicit placement: the trigger stays quiet,
        # so the un-forced generator finishes without yielding a step.
        graph = make_random_graph(20, 30, seed=1)
        placement = {v: v % 2 for v in range(20)}
        cluster = build_placed_cluster(
            graph,
            placement,
            num_servers=2,
        )
        assert not cluster.check_trigger().should_repartition
        generator = cluster.rebalance_steps(force=False)
        with pytest.raises(StopIteration) as stop:
            next(generator)
        assert stop.value.value is None


class TestClose:
    """A consumer that abandons an online rebalance mid-flight."""

    def build(self):
        return TestMatchedScheduleParity().build()

    def assert_clean(self, cluster):
        assert not cluster._executor.window_open
        assert cluster.migration_in_flight is None
        assert InvariantAuditor().audit(cluster) == []
        cluster.validate()

    def test_close_before_the_commit_rolls_back(self):
        cluster = self.build()
        before = deep_snapshot(cluster)
        steps = cluster.rebalance_steps(force=True)
        assert next(steps).kind == "copy"
        steps.close()
        assert deep_snapshot(cluster) == before
        self.assert_clean(cluster)

    def test_close_after_the_commit_finishes_the_removes(self):
        serial = self.build()
        serial.rebalance(force=True)
        cluster = self.build()
        steps = cluster.rebalance_steps(force=True)
        while next(steps).kind != "remove":
            pass
        steps.close()
        placement = TestMatchedScheduleParity().placement
        assert placement(cluster) == placement(serial)
        self.assert_clean(cluster)


class TestPerEventSweep:
    """The engine's per-event sweep looks at what the event changed; the
    barrier's looks at the whole window, so nothing commits unswept."""

    def start(self, copies=1):
        """An online rebalance stepped until ``copies`` vertices are
        windowed; returns ``(cluster, engine)``."""
        cluster = TestMatchedScheduleParity().build()
        engine = ConcurrentExecutor(cluster)
        engine.submit_rebalance(force=True)
        while len(cluster._executor.window_vertices) < copies:
            assert engine.step() is not None
        assert engine.coherence_violations == []
        return cluster, engine

    def kinds(self, engine):
        return {record.kind for record in engine.scheduler.records}

    def test_a_broken_copy_step_is_caught_at_its_own_event(self, monkeypatch):
        cluster, engine = self.start(copies=1)
        executor = cluster._executor
        before = set(executor.window_vertices)
        # The next copy installs the node records but none of their edges.
        import_nodes = GraphStore.import_nodes
        monkeypatch.setattr(
            GraphStore,
            "import_nodes",
            lambda store, exports, roles: import_nodes(
                store,
                [export._replace(chain=[], chain_properties={}) for export in exports],
                [],
            ),
        )
        engine.step()
        # The step copied a whole (source, target) pair: every vertex of
        # the broken batch is reported at this event, none later.
        copied = sorted(set(executor.window_vertices) - before)
        assert len(copied) > 1
        assert all(cluster.graph.degree(vertex) > 0 for vertex in copied)
        assert len(engine.coherence_violations) == len(copied)
        for vertex, problem in zip(copied, engine.coherence_violations):
            assert f"windowed vertex {vertex} adjacency diverged" in problem
            assert f"after event {len(engine.scheduler.records)} " in problem

    def test_a_lost_mirrored_write_is_caught_at_the_write(self, monkeypatch):
        cluster, engine = self.start(copies=2)
        executor = cluster._executor
        windowed = min(executor.window_vertices)
        monkeypatch.setattr(
            executor, "_install_relationship", lambda *args, **kwargs: None
        )
        # Ready before the migration's next step: these run first.
        engine.submit_operation(InsertVertex(vertex=10_000))
        engine.step()
        engine.submit_operation(InsertEdge(u=10_000, v=windowed))
        engine.step()
        assert cluster.graph.has_edge(10_000, windowed)
        assert "migration-barrier" not in self.kinds(engine)
        assert len(engine.coherence_violations) == 1
        assert f"windowed vertex {windowed} adjacency diverged" in (
            engine.coherence_violations[0]
        )

    def test_an_unannounced_divergence_is_caught_at_the_barrier(self):
        cluster, engine = self.start(copies=2)
        executor = cluster._executor
        windowed = min(executor.window_vertices)
        target = cluster.servers[executor.window_target(windowed)].store
        entry = next(iter(target.neighbor_entries(windowed, include_unavailable=True)))
        # No copy-step and no mirrored write touches this vertex again.
        target.detach_endpoint(entry.rel_id, windowed)
        while "migration-barrier" not in self.kinds(engine):
            engine.step()
        # Swept with the window still open: the commit has not run.
        assert executor.window_open
        assert cluster.catalog.lookup(windowed) != executor.window_target(windowed)
        assert any(
            f"windowed vertex {windowed} adjacency diverged" in problem
            for problem in engine.coherence_violations
        )
