"""Elastic cluster membership: join, drain, and WAL-backed crash recovery.

Three layers of coverage:

* **ServerJournal round-trips** — a scripted sequence of primitive
  store mutations, each committed as one log transaction, crashed at
  *every* transaction boundary: the rebuilt store's logical snapshot,
  allocator state and page bytes must equal the live store's at that
  boundary, a torn in-flight frame must recover the previous boundary,
  and recovering twice must be idempotent.  The same holds on the
  cluster path — writes, a fault-rolled-back write, every migration
  step, a join and a drain — at every byte offset of every frame.
* **Cluster membership** — ``add_server`` (capacity-weighted scale-out
  reshard, id-generation rebase), ``drain_server`` (zero primaries,
  purged caches, rollback on abort), ``crash_recover_server``
  (recovery-fidelity episode), each followed by the cluster's deep
  ``validate()``.
* **Mid-run routing regression** — a server added while traffic flows
  must start receiving routed work (the latent bug this PR fixes:
  placement hashed over ``num_servers`` recorded at frontend build
  time instead of the live active membership).
"""

import copy

import pytest

from repro.cluster import server as server_states
from repro.cluster.durability import ServerJournal, logical_store_snapshot
from repro.cluster.hermes import HermesCluster
from repro.core.config import RepartitionerConfig
from repro.exceptions import ClusterError, FaultInjectedError
from repro.graph.generators import make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.serving.frontend import ServingFrontend
from repro.storage.graph_store import GraphStore
from repro.storage.wal import WriteAheadLog
from tests.conftest import link_down_plan, make_random_graph


def durable_cluster(num_servers=4, num_vertices=48, num_edges=120, seed=7):
    return HermesCluster.from_graph(
        make_random_graph(num_vertices, num_edges, seed=seed),
        num_servers=num_servers,
        partitioner=HashPartitioner(),
        repartitioner=RepartitionerConfig(k=2),
        durability=True,
    )


def page_bytes(store):
    return [
        bytes(page)
        for record_store in store.record_stores()
        for page in record_store.pages.buffers
    ]


def replace_log(journal, frames):
    """Give ``journal`` a log holding exactly ``frames``, all flushed."""
    log = WriteAheadLog()
    for payload in frames:
        log.append(payload)
    log.flush()
    journal.wal = log
    return log


# ----------------------------------------------------------------------
# ServerJournal: crash at every transaction boundary
# ----------------------------------------------------------------------
def scripted_store():
    """A fresh single-stripe store + the mutation script to run on it.

    Every entry is exactly one logical mutation, committed as one log
    transaction, so index ``k`` is the ``k``-th transaction boundary.
    """
    store = GraphStore(server_id=0, num_servers=1)
    rel_a = store.allocate_rel_id()
    rel_b = store.allocate_rel_id()
    script = [
        lambda: store.create_node(1, weight=2.0),
        lambda: store.create_node(2, weight=1.0, properties={"name": "b"}),
        lambda: store.create_node(3, weight=3.5),
        lambda: store.create_relationship(rel_a, 1, 2),
        lambda: store.create_relationship(rel_b, 2, 3, ghost=True),
        lambda: store.set_node_property(1, "city", "zurich"),
        lambda: store.set_relationship_property(rel_a, "since", 2011),
        lambda: store.add_node_weight(2, 4.0),
        lambda: store.remove_node_property(2, "name"),
        lambda: store.set_ghost(rel_b, False),
        lambda: store.delete_relationship(rel_a),
        lambda: store.set_available(3, False),
    ]
    return store, script


BOUNDARIES = range(len(scripted_store()[1]) + 1)


def run_script(boundary):
    """The script's first ``boundary`` entries, each one committed."""
    store, script = scripted_store()
    journal = ServerJournal(store)
    for mutation in script[:boundary]:
        mutation()
        journal.commit()
    return store, journal


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_crash_at_every_journal_boundary_rebuilds_exactly(boundary):
    store, journal = run_script(boundary)
    # Every entry changes at least one slot: one flushed frame each.
    assert len(journal.wal) == boundary
    expected = logical_store_snapshot(store)
    journal.crash()
    rebuilt = journal.rebuild(server_id=0)
    assert logical_store_snapshot(rebuilt) == expected
    # Physical redo: the pages — chains, free slots, property records —
    # come back byte for byte, and the allocators at their exact
    # positions, so ids minted after recovery never collide with ids
    # minted before the crash.
    assert page_bytes(rebuilt) == page_bytes(store)
    assert rebuilt.allocator_state() == store.allocator_state()


@pytest.mark.parametrize("boundary", [0, 3, 7, len(scripted_store()[1])])
def test_double_recovery_is_idempotent(boundary):
    store, journal = run_script(boundary)
    expected = logical_store_snapshot(store)
    journal.crash()
    first = journal.rebuild(server_id=0)
    journal.crash()
    second = journal.rebuild(server_id=0)
    assert logical_store_snapshot(first) == logical_store_snapshot(second) == expected
    assert page_bytes(first) == page_bytes(second)


def test_torn_wal_tail_is_discarded(monkeypatch):
    """A crash inside the last frame — appended, not yet flushed — must
    recover the previous boundary at every torn length, and this one
    once the whole frame survived: a frame is a transaction, whole or
    not at all."""
    store, script = scripted_store()
    journal = ServerJournal(store)
    for mutation in script[:-1]:
        mutation()
        journal.commit()
    before = logical_store_snapshot(store)
    flushed = journal.wal.size_bytes
    script[-1]()
    with monkeypatch.context() as patch:
        patch.setattr(WriteAheadLog, "flush", lambda log: None)
        journal.commit()
    after = logical_store_snapshot(store)
    frame = journal.wal.size_bytes - flushed
    for keep in range(frame, -1, -1):  # each crash truncates the tail further
        journal.crash(keep_unflushed_bytes=keep)
        expected = after if keep == frame else before
        assert logical_store_snapshot(journal.rebuild(server_id=0)) == expected


def test_every_cluster_transaction_boundary_recovers(monkeypatch):
    """The cluster path, one transaction per server per operation: a
    write with properties, a cross-server edge, a fault-rolled-back edge
    (its compensating writes commit), every step of an online migration,
    a join and a drain.  At every boundary the log's committed prefix
    rebuilds the live store exactly (snapshot and pages); at every byte
    offset inside the next frame the torn frame is dropped whole."""
    cluster = HermesCluster.from_graph(
        make_random_graph(16, 32, seed=2),
        num_servers=3,
        partitioner=HashPartitioner(),
        repartitioner=RepartitionerConfig(k=2),
        durability=True,
    )
    boundaries = {}

    def record(journal, reset):
        state = (logical_store_snapshot(journal.store), page_bytes(journal.store))
        if reset:
            boundaries[journal] = [state]
        else:
            boundaries[journal].append(state)

    original_attach = ServerJournal.attach
    original_write = ServerJournal._write_frame

    def attach(journal, store):
        original_attach(journal, store)
        record(journal, reset=True)

    def write_frame(journal):
        original_write(journal)
        record(journal, reset=False)

    for server in cluster.servers:
        record(server.journal, reset=True)
    monkeypatch.setattr(ServerJournal, "attach", attach)
    monkeypatch.setattr(ServerJournal, "_write_frame", write_frame)

    home = cluster.catalog.lookup
    u = 0
    v, w = [
        x
        for x in range(1, 16)
        if home(x) != home(u) and not cluster.graph.has_edge(u, x)
    ][:2]
    cluster.add_vertex(
        100, properties={"name": "new", "tags": ["a", "b"]}, server=home(u)
    )
    cluster.add_edge(u, v, properties={"since": 2015})
    cluster.attach_faults(link_down_plan(home(u), home(w)))
    with pytest.raises(FaultInjectedError):
        cluster.add_edge(u, w)
    cluster.attach_faults(None)
    steps = list(cluster.rebalance_steps(force=True))
    assert {step.kind for step in steps} == {"copy", "barrier", "remove"}
    cluster.add_server()
    cluster.drain_server(1)
    cluster.validate()

    frames_checked = 0
    for journal, states in boundaries.items():
        server_id = journal.store.server_id
        frames = list(journal.wal.frames())
        assert len(frames) == len(states) - 1
        view = copy.copy(journal)
        for count, (snapshot, pages) in enumerate(states):
            replace_log(view, frames[:count])
            view.crash()
            rebuilt = view.rebuild(server_id)
            assert logical_store_snapshot(rebuilt) == snapshot
            assert page_bytes(rebuilt) == pages
            if count == len(frames):
                continue
            # The next frame in flight — appended, not flushed — torn at
            # every length short of whole (each crash cuts it further):
            # the log always ends at this boundary; the rebuild from it
            # is re-checked at a few of the lengths.
            log = replace_log(view, frames[:count])
            flushed = log.size_bytes
            log.append(frames[count])
            torn = log.size_bytes - flushed
            for keep in range(torn - 1, -1, -1):
                view.crash(keep_unflushed_bytes=keep)
                assert list(view.wal.frames()) == frames[:count]
                if keep in (0, 1, torn // 2, torn - 1):
                    rebuilt = view.rebuild(server_id)
                    assert logical_store_snapshot(rebuilt) == snapshot
            frames_checked += 1
    assert frames_checked > len(steps)

    for server_id in cluster.active_servers():
        live = logical_store_snapshot(cluster.servers[server_id].store)
        for _ in range(2):
            episode = cluster.crash_recover_server(server_id)
            assert episode["pre"] == episode["post"] == live
    cluster.validate()


# ----------------------------------------------------------------------
# Cluster membership: join
# ----------------------------------------------------------------------
class TestJoin:
    def test_join_reshards_onto_newcomer(self):
        cluster = durable_cluster()
        new_id, result = cluster.add_server(capacity=2.0)
        assert new_id == 4
        assert cluster.num_servers == 5
        assert cluster.servers[new_id].state == server_states.ACTIVE
        assert result is not None
        assert cluster.catalog.vertices_on(new_id)
        cluster.validate()

    def test_join_without_reshard_leaves_newcomer_empty(self):
        cluster = durable_cluster()
        new_id, result = cluster.add_server(reshard=False)
        assert result is None
        assert not cluster.catalog.vertices_on(new_id)
        cluster.validate()

    def test_join_rebases_id_generation(self):
        """Ids minted after a join stay collision-free across all
        servers: every store moves to the new stripe count above a
        common floor, so new ids are distinct and above history."""
        cluster = durable_cluster()
        floor = max(s.store.next_id_bound() for s in cluster.servers)
        cluster.add_server(reshard=False)
        minted = [s.store.allocate_rel_id() for s in cluster.servers]
        assert len(set(minted)) == len(minted)
        assert min(minted) > floor
        assert {rel % cluster.num_servers for rel in minted} == set(
            range(cluster.num_servers)
        )

    def test_joined_server_receives_routed_inserts(self):
        """The latent-bug regression: inserts routed after a join must
        hash over the live active membership, so the newcomer receives
        a share of new vertices even without a reshard."""
        cluster = durable_cluster()
        new_id, _ = cluster.add_server(reshard=False)
        for vertex in range(1000, 1100):
            cluster.add_vertex(vertex)
        assert cluster.catalog.vertices_on(new_id)
        cluster.validate()

    def test_capacity_weighted_reshard_respects_capacity(self):
        """A double-capacity newcomer ends up with roughly double the
        per-unit share a capacity-1 join would take."""
        small = durable_cluster()
        small.add_server(capacity=0.5)
        big = durable_cluster()
        big.add_server(capacity=2.0)
        assert len(big.catalog.vertices_on(4)) > len(
            small.catalog.vertices_on(4)
        )
        small.validate()
        big.validate()


# ----------------------------------------------------------------------
# Cluster membership: drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_leaves_zero_primaries(self):
        cluster = durable_cluster()
        # Warm location caches so the purge arm is actually exercised.
        for vertex in sorted(cluster.graph.vertices())[:10]:
            cluster.traverse(vertex, hops=1)
        cluster.drain_server(1)
        server = cluster.servers[1]
        assert server.state == server_states.DETACHED
        assert server.capacity == 0.0
        assert not cluster.catalog.vertices_on(1)
        available, unavailable = server.store.membership()
        assert not available and not unavailable
        for viewer, vertex, host in cluster.location_cache.all_entries():
            assert host != 1 and viewer != 1
        cluster.validate()

    def test_drained_server_is_not_a_placement_target(self):
        cluster = durable_cluster()
        cluster.drain_server(2)
        assert 2 not in cluster.active_servers()
        for vertex in range(2000, 2050):
            cluster.add_vertex(vertex)
            assert cluster.catalog.lookup(vertex) != 2
        cluster.validate()

    def test_drain_requires_active_state(self):
        cluster = durable_cluster()
        cluster.drain_server(0)
        with pytest.raises(ClusterError):
            cluster.drain_server(0)

    def test_cannot_drain_the_last_active_server(self):
        cluster = durable_cluster(num_servers=2)
        cluster.drain_server(0)
        with pytest.raises(ClusterError):
            cluster.drain_server(1)

    def test_unknown_server_rejected(self):
        cluster = durable_cluster()
        with pytest.raises(ClusterError):
            cluster.drain_server(99)
        with pytest.raises(ClusterError):
            cluster.crash_server(99)


# ----------------------------------------------------------------------
# Cluster membership: crash-recovery
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_episode_is_faithful(self):
        cluster = durable_cluster()
        for vertex in range(3000, 3010):
            cluster.add_vertex(vertex, weight=2.0, properties={"k": "v"})
        episode = cluster.crash_recover_server(2)
        assert episode["pre"] == episode["post"]
        assert cluster.servers[2].state == server_states.ACTIVE
        assert cluster.recovery_log == [episode]
        cluster.validate()

    def test_every_server_recovers_under_churn(self):
        cluster = durable_cluster()
        cluster.add_server(capacity=1.5)
        for vertex in range(4000, 4030):
            cluster.add_vertex(vertex)
        for server_id in cluster.active_servers():
            before = logical_store_snapshot(cluster.servers[server_id].store)
            episode = cluster.crash_recover_server(server_id)
            after = logical_store_snapshot(cluster.servers[server_id].store)
            assert episode["pre"] == episode["post"]
            assert before == after
            cluster.validate()

    def test_crash_requires_durability(self):
        cluster = HermesCluster.from_graph(
            make_random_graph(20, 40, seed=3), num_servers=3
        )
        with pytest.raises(ClusterError):
            cluster.crash_server(0)

    def test_recover_requires_crashed_state(self):
        cluster = durable_cluster()
        with pytest.raises(ClusterError):
            cluster.recover_server(0)

    def test_reopened_durable_cluster_recovers(self, tmp_path):
        """``load_cluster(..., durability=True)`` checkpoints the stores
        it loaded (the parent left each log watching the empty store
        built before the swap, so the first crash lost the server)."""
        graph = make_dataset("orkut", 120, seed=7).graph
        HermesCluster.from_graph(graph, num_servers=4).save(str(tmp_path))
        cluster = HermesCluster.load_cluster(str(tmp_path), durability=True)
        cluster.add_vertex(10001, server=1)
        live = logical_store_snapshot(cluster.servers[1].store)
        episode = cluster.crash_recover_server(1)
        assert episode["pre"] == episode["post"] == live
        assert 10001 in episode["post"]["nodes"]
        cluster.validate()

    def test_recovery_disagreeing_with_the_catalog_changes_nothing(self):
        """A rebuilt store that does not serve what the catalog says is
        rejected before it is swapped in: typed error, server back in
        CRASHED, its store, log and the recovery log untouched."""
        cluster = durable_cluster()
        cluster.add_vertex(3000, server=2)
        server = cluster.servers[2]
        frames = list(server.journal.wal.frames())
        replace_log(server.journal, frames[:-1])  # lose the insert's commit
        store = server.store
        cluster.crash_server(2)
        with pytest.raises(ClusterError):
            cluster.recover_server(2)
        assert server.state == server_states.CRASHED
        assert server.store is store
        assert list(server.journal.wal.frames()) == frames[:-1]
        assert cluster.recovery_log == []
        with pytest.raises(ClusterError):  # a retry finds the same state
            cluster.recover_server(2)
        assert server.state == server_states.CRASHED

    def test_crash_with_an_open_transaction_is_a_missed_boundary(self):
        cluster = durable_cluster()
        cluster.servers[0].store.add_node_weight(
            next(iter(cluster.catalog.vertices_on(0))), 1.0
        )
        with pytest.raises(AssertionError):
            cluster.crash_server(0)

    def test_crashed_then_drained_is_rejected(self):
        cluster = durable_cluster()
        cluster.crash_server(1)
        with pytest.raises(ClusterError):
            cluster.drain_server(1)
        cluster.recover_server(1)
        cluster.validate()


# ----------------------------------------------------------------------
# Serving layer rides membership changes
# ----------------------------------------------------------------------
class TestServingElasticity:
    def test_frontend_routes_inserts_to_joined_server(self):
        cluster = durable_cluster()
        frontend = ServingFrontend(cluster)
        cluster.serving = frontend
        new_id, _ = cluster.add_server(reshard=False)
        served_by = set()
        for vertex in range(5000, 5080):
            outcome = frontend.submit("add_vertex", vertex)
            if outcome.status == "completed":
                served_by.add(outcome.served_by)
        assert new_id in served_by
        cluster.validate()

    def test_concurrent_engine_grows_event_lanes_on_join(self):
        """A join mid-concurrent-run must open an event lane (and an
        admission lane) for the newcomer instead of leaving it
        unschedulable."""
        from repro.concurrency.engine import ConcurrentExecutor

        cluster = durable_cluster()
        frontend = ServingFrontend(cluster)
        cluster.serving = frontend
        engine = ConcurrentExecutor(cluster)
        cluster._concurrent_engine = engine
        cluster.add_server(reshard=False)
        assert len(engine.scheduler.server_free) == cluster.num_servers
        assert len(frontend.queue.free_at) == cluster.num_servers
        assert frontend.queue.num_servers == cluster.num_servers

    def test_frontend_survives_drain(self):
        cluster = durable_cluster()
        frontend = ServingFrontend(cluster)
        cluster.serving = frontend
        for vertex in sorted(cluster.graph.vertices())[:5]:
            frontend.submit("read", vertex)
        cluster.drain_server(3)
        for vertex in sorted(cluster.graph.vertices())[:10]:
            outcome = frontend.submit("read", vertex)
            assert outcome.served_by != 3
        cluster.validate()
