"""Differential test: the chain-at-once migration against the per-record one.

The copy step installs a vertex with ``GraphStore.import_node`` — node,
properties and the whole relationship chain in one pass — and the remove
step retires it with ``GraphStore.delete_node(..., stays=...)`` in one
chain walk (DESIGN.md §8).  The path they replaced moved one record at a
time through the general chain mutators (``create_relationship``,
``attach_endpoint``, ``set_ghost``, ``set_relationship_property``,
``detach_endpoint``, ``delete_relationship``, ``remove_node_record``); it
is kept here, test-local, as the reference.  Twin clusters, one running
each, go through the same scenario, and everything physical must be
equal: every page of every record store, the free lists, the id->slot
index (every id and its slot), the allocators, the WAL frames on a
durable cluster, the double-write window of every migration as it closes
(what a rollback retires), the reports and the metrics.  Single stores
are held to the same reference twice more: one hand-built store taking
every copy and remove case at once, and hypothesis-drawn stores (CI runs
the drawn properties at 2 000 examples with ``--hypothesis-profile
sweep``).
"""

from __future__ import annotations

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.durability import ServerJournal, commit_all
from repro.core.migration import build_migration_plan
from repro.exceptions import ClusterError, MigrationAbortedError, StorageError
from repro.storage.graph_store import GraphStore
from tests.conftest import (
    build_placed_cluster,
    crash_plan,
    make_random_graph,
    new_vertex_on,
    store_state,
    telemetry_snapshot,
)

SERVERS = 4
VERTICES = 48


# ----------------------------------------------------------------------
# The per-record path, as it ran before chains moved in one pass
# ----------------------------------------------------------------------
def payload_size(payload):
    size = 64
    for key, value in payload["properties"].items():
        size += len(key) + len(repr(value)) + 16
    for rel in payload["relationships"]:
        size += 80
        for key, value in rel["properties"].items():
            size += len(key) + len(repr(value)) + 16
    return size


def per_record_copy_pair(self, moves, final_home, report, payload_sizes):
    for move in moves:
        per_record_copy_one(self, move, final_home, report, payload_sizes)
        self._window[move.vertex] = move.target
        self._window_unswept.add(move.vertex)


def per_record_copy_one(self, move, final_home, report, payload_sizes):
    source = self.servers[move.source]
    target = self.servers[move.target]
    if not source.store.has_node(move.vertex):
        raise ClusterError(f"server {move.source} does not host vertex {move.vertex}")
    payload = source.store.export_node(move.vertex)
    size = payload_size(payload)
    payload_sizes.append(size)
    report.bytes_transferred += size
    report.copy_cost += self._transfer(move.source, move.target, size)
    report.vertices_moved += 1
    report.per_target[move.target] = report.per_target.get(move.target, 0) + 1

    node = payload["node"]
    target.store.create_node(node["node_id"], weight=node["weight"])
    for key, value in payload["properties"].items():
        target.store.set_node_property(node["node_id"], key, value)
    for rel in payload["relationships"]:
        self._install_relationship(target, move.vertex, rel, final_home)
        report.relationships_transferred += 1


def per_record_install_relationship(self, target, arriving, rel, final_home):
    rel_id = rel["rel_id"]
    src, dst = rel["src"], rel["dst"]
    other = dst if arriving == src else src
    other_home = self._home_after(other, final_home)
    here = target.server_id
    primary_here = self._home_after(src, final_home) == here
    both_local_eventually = other_home == here

    if target.store.has_relationship(rel_id):
        if not target.store.chain_contains(arriving, rel_id):
            target.store.attach_endpoint(rel_id, arriving)
        existing = target.store.relationship(rel_id)
        should_be_ghost = not (primary_here or both_local_eventually)
        if existing.ghost and not should_be_ghost:
            target.store.set_ghost(rel_id, False)
        elif not existing.ghost and should_be_ghost:
            target.store.set_ghost(rel_id, True)
        if not should_be_ghost:
            for key, value in rel.get("properties", {}).items():
                target.store.set_relationship_property(rel_id, key, value)
        return

    ghost = not (primary_here or both_local_eventually)
    properties = rel.get("properties", {}) if not ghost else None
    target.store.create_relationship(
        rel_id, src, dst, ghost=ghost, properties=properties or None
    )


def per_record_remove_one(self, move, final_home, report):
    store = self.servers[move.source].store
    entries = list(store.neighbor_entries(move.vertex, include_unavailable=True))
    for entry in entries:
        other = entry.neighbor
        other_here = (
            store.has_node(other)
            and self._home_after(other, final_home) == move.source
        )
        if other_here:
            store.detach_endpoint(entry.rel_id, move.vertex)
            record = store.relationship(entry.rel_id)
            should_be_ghost = self._home_after(record.src, final_home) != move.source
            if record.ghost != should_be_ghost:
                store.set_ghost(entry.rel_id, should_be_ghost)
        else:
            store.delete_relationship(entry.rel_id)
        report.relationships_rewritten += 1
        report.remove_cost += self.network.local_visit()
    store.remove_node_record(move.vertex)
    report.remove_cost += self.network.local_visit()


def per_record_delete_node(store, node_id):
    """``delete_node`` with nothing staying, one record at a time."""
    record = store.nodes.read(node_id)
    for entry in store.neighbor_entries(node_id, include_unavailable=True):
        store.delete_relationship(entry.rel_id)
    store._delete_property_chain(record.first_prop)
    store.nodes.delete(node_id)


# ----------------------------------------------------------------------
# Twins
# ----------------------------------------------------------------------
def home(vertex):
    """Initial placement: servers 0..3 hold v = 3, 0, 1, 2 mod 4."""
    return (vertex * 5 + 1) % SERVERS


#: edges written with properties after the load: a remote primary whose
#: src will join its dst (0, 5), a primary whose src leaves while its dst
#: arrives (7, 2), two same-server pairs (1, 5) and (3, 11), and more
PROPERTY_EDGES = [(0, 5), (7, 2), (1, 5), (3, 11), (21, 3), (9, 14), (30, 31)]


def build_twin(reference, durable):
    graph = make_random_graph(VERTICES, 3 * VERTICES, seed=7)
    placement = {v: home(v) for v in graph.vertices()}
    cluster = build_placed_cluster(
        graph, placement, num_servers=SERVERS, durability=durable
    )
    executor = cluster._executor
    if reference:
        executor._copy_pair = types.MethodType(per_record_copy_pair, executor)
        executor._remove_one = types.MethodType(per_record_remove_one, executor)
        executor._install_relationship = types.MethodType(
            per_record_install_relationship, executor
        )
    # Every migration's double-write window, as it closes.
    cluster.windows = []
    close_window = executor._close_window

    def recording_close():
        cluster.windows.append(list(executor.window_vertices.items()))
        close_window()

    executor._close_window = recording_close
    for vertex in range(0, VERTICES, 3):
        store = cluster.servers[home(vertex)].store
        store.set_node_property(vertex, "name", f"user{vertex}")
    commit_all(cluster.servers)
    for index, (u, v) in enumerate(PROPERTY_EDGES):
        cluster.add_edge(u, v, properties={"since": 2000 + index, "w": index / 4})
    late = new_vertex_on(cluster, 1, 1000)
    cluster.add_vertex(late, properties={"name": "late", "age": 3})
    cluster.add_edge(late, 4, properties={"kind": "friend"})
    return cluster


def physical_state(cluster):
    return {
        "servers": [store_state(server.store, server.journal) for server in cluster.servers],
        "catalog": sorted(
            (vertex, cluster.catalog.lookup(vertex)) for vertex in cluster.graph.vertices()
        ),
        "windows": cluster.windows,
        "telemetry": telemetry_snapshot(cluster),
        "clock": repr(cluster.now),
    }


def migrate(cluster, targets):
    """Move ``{vertex: target}`` through the executor, aux re-pointed
    first the way phase 1 leaves it; returns the report."""
    return cluster._executor.execute(plan_for(cluster, targets))


def plan_for(cluster, targets):
    moves = {}
    for vertex, target in targets.items():
        moves[vertex] = (cluster.catalog.lookup(vertex), target)
        cluster.aux.apply_move(vertex, target, cluster.graph.neighbors(vertex))
    return build_migration_plan(moves)


# ----------------------------------------------------------------------
# Scenarios: each returns what it observed beyond the stores
# ----------------------------------------------------------------------
def serial_rebalance(cluster, reference):
    result, report = cluster.rebalance(force=True)
    return sorted(result.moves.items()), repr(report)


def window_writes(cluster, reference):
    """Writes land on windowed vertices between copy steps: a new vertex
    joining one, an edge between two windowed vertices, and edges from
    vertices living on the window's target."""
    targets = {4: 2, 8: 2, 13: 0, 17: 3}
    steps = []
    fresh = iter(range(2000, 2100))
    for step in cluster._executor.migrate_steps(plan_for(cluster, targets)):
        steps.append((step.kind, repr(step.cost), step.servers))
        if step.kind != "copy":
            continue
        windowed = sorted(cluster._executor.window_vertices)
        vertex = next(fresh)
        cluster.add_vertex(vertex, properties={"n": vertex})
        cluster.add_edge(vertex, windowed[-1], properties={"at": len(steps)})
        for u, v in zip(windowed, windowed[1:]):
            if not cluster.graph.has_edge(u, v):
                cluster.add_edge(u, v, properties={"pair": u})
        for resident in sorted(cluster.catalog.vertices_on(targets[windowed[0]]))[:2]:
            if not cluster.graph.has_edge(resident, windowed[0]):
                cluster.add_edge(resident, windowed[0], properties={"r": resident})
    return steps


def co_migration(cluster, reference):
    """Neighbours moving together (1 and 5 merge their primary), a src
    leaving as its dst arrives (7 and 2: the copy downgrades), a src
    leaving a staying dst (3: the remove downgrades), and a swap."""
    x, y = next(
        (a, b)
        for a, b in sorted(cluster.graph.edges())
        if {home(a), home(b)} == {1, 3} and {a, b}.isdisjoint({1, 2, 3, 5, 7})
    )
    targets = {1: 0, 5: 0, 2: 0, 7: 1, 3: 3, x: home(y), y: home(x)}
    return repr(migrate(cluster, targets))


def multi_edges(cluster, reference):
    """Two records between the same two nodes, some with properties, so
    chains hold siblings: an arriving node links both, the other
    endpoint's chain takes both, a remove unlinks both from it."""
    for index, (u, v) in enumerate([(0, 5), (7, 2), (9, 30), (12, 13), (9, 31)]):
        for sibling in range(2):
            rel_id = 10_000 + 10 * index + sibling
            properties = {"sibling": sibling} if sibling else None
            cluster.servers[home(u)].store.create_relationship(
                rel_id, u, v, properties=properties
            )
            if home(v) != home(u):
                cluster.servers[home(v)].store.create_relationship(
                    rel_id, u, v, ghost=True
                )
            # Counted like any record: the aux moves of ``plan_for``
            # read the adjacency the stores list.
            cluster.aux.add_edge(u, v)
    commit_all(cluster.servers)
    reports = [
        repr(migrate(cluster, targets))
        for targets in ({0: 2}, {5: 3, 0: 3}, {9: 0, 30: 0}, {12: 2, 7: 3})
    ]
    # Deleting a node with nothing staying (the add-vertex undo), for a
    # node whose chain holds siblings with properties.
    store = cluster.servers[cluster.catalog.lookup(9)].store
    entries = len(store.chain(9))
    if reference:
        per_record_delete_node(store, 9)
        deleted = entries
    else:
        deleted = store.delete_node(9)
    commit_all(cluster.servers)
    return reports, deleted


def abort_and_retry(cluster, reference):
    """The copy step fails at its third vertex after two were installed
    (0 upgrading a ghost with properties); the copies roll back, then
    the same plan runs again without faults."""
    plan = plan_for(cluster, {0: 2, 7: 2, 5: 3})
    assert [move.target for move in plan.moves] == [2, 2, 3]
    cluster.attach_faults(crash_plan(3))
    with pytest.raises(MigrationAbortedError) as aborted:
        cluster._executor.execute(plan)
    cluster.attach_faults(None)
    return repr(aborted.value.report), repr(cluster._executor.execute(plan))


def join(cluster, reference):
    server, outcome = cluster.add_server(capacity=1.0)
    return server, repr(outcome[1])


def drain_one(cluster, reference):
    return repr(cluster.drain_server(1))


SCENARIOS = [
    serial_rebalance,
    window_writes,
    co_migration,
    multi_edges,
    abort_and_retry,
    join,
    drain_one,
]


@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.__name__)
def test_chain_migration_equals_per_record_migration(scenario, durable):
    changed = build_twin(False, durable)
    reference = build_twin(True, durable)
    assert scenario(changed, False) == scenario(reference, True)
    assert physical_state(changed) == physical_state(reference)


# ----------------------------------------------------------------------
# One store, every case at once
# ----------------------------------------------------------------------
def per_record_import(store, payload, roles):
    node_id = payload["node"]["node_id"]
    store.create_node(node_id, weight=payload["node"]["weight"])
    for key, value in payload["properties"].items():
        store.set_node_property(node_id, key, value)
    for rel, ghost in zip(payload["relationships"], roles):
        rel_id = rel["rel_id"]
        if not store.has_relationship(rel_id):
            properties = None if ghost else rel["properties"] or None
            store.create_relationship(
                rel_id, rel["src"], rel["dst"], ghost=ghost, properties=properties
            )
            continue
        store.attach_endpoint(rel_id, node_id)
        if store.relationship(rel_id).ghost != ghost:
            store.set_ghost(rel_id, ghost)
        if not ghost:
            for key, value in rel["properties"].items():
                store.set_relationship_property(rel_id, key, value)


def per_record_remove(store, node_id, stays):
    for entry in store.neighbor_entries(node_id, include_unavailable=True):
        if store.has_node(entry.neighbor) and stays(entry.neighbor):
            store.detach_endpoint(entry.rel_id, node_id)
            record = store.relationship(entry.rel_id)
            if record.ghost != (record.src == node_id):
                store.set_ghost(entry.rel_id, record.src == node_id)
        else:
            store.delete_relationship(entry.rel_id)
    store.remove_node_record(node_id)


def rel(rel_id, src, dst, **properties):
    return {"rel_id": rel_id, "src": src, "dst": dst, "ghost": False, "properties": properties}


#: node 0 arrives at a store hosting 1 and 2; the records already here
#: (100-102) join it to 1 and 2.  103 is head-linked into 1's chain in
#: front of 101, which the payload installs after it.  100 merges its
#: properties in place, 101 is upgraded, 102 downgraded, 104 goes to a
#: remote endpoint as a ghost and drops the payload's properties.
ARRIVING = {
    "node": {"node_id": 0, "weight": 2.5},
    "properties": {"name": "zero", "k": 7},
    "relationships": [
        rel(103, 0, 1, p=1),
        rel(100, 0, 1, a=2, b=3),
        rel(104, 0, 5, x=1),
        rel(101, 1, 0, c=1),
        rel(105, 1, 0),
        rel(102, 0, 2),
        rel(106, 0, 1),
    ],
}
ROLES = [False, False, True, False, True, True, False]


def arrival_store():
    store = GraphStore(server_id=0, num_servers=2)
    for node_id in (1, 2, 3):
        store.create_node(node_id, properties={"n": node_id})
    store.create_relationship(150, 1, 2, properties={"e": 5})
    store.create_relationship(100, 0, 1, properties={"a": 1})
    store.create_relationship(101, 1, 0, ghost=True)
    store.create_relationship(102, 0, 2, properties={"d": 4})
    return store


def departure_store():
    """Node 0 with siblings to 1 (kept: one downgraded, one staying
    primary), siblings to 2 (deleted from 2's chain) and a remote edge."""
    store = GraphStore(server_id=0, num_servers=2)
    for node_id in (0, 1, 2):
        store.create_node(node_id, properties={"n": node_id})
    for rel_id, src, dst, properties in [
        (200, 0, 1, {"a": 1}),
        (201, 1, 0, {"b": 2}),
        (202, 0, 2, {"c": 3}),
        (203, 2, 0, None),
        (204, 0, 9, {"far": True}),
        (205, 1, 2, None),
        (206, 0, 2, {"c": 4}),
        (207, 0, 1, None),
    ]:
        store.create_relationship(rel_id, src, dst, properties=properties)
    return store


@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
@pytest.mark.parametrize("operation", ["import", "remove", "delete"])
def test_one_store_chain_writes_equal_per_record_writes(operation, durable):
    states = []
    for reference in (False, True):
        store = arrival_store() if operation == "import" else departure_store()
        journal = ServerJournal(store) if durable else None
        if operation == "import":
            if reference:
                per_record_import(store, ARRIVING, ROLES)
            else:
                store.import_node(ARRIVING, ROLES)
        elif operation == "remove":
            if reference:
                per_record_remove(store, 0, lambda other: other == 1)
            else:
                assert store.delete_node(0, stays=lambda other: other == 1) == 7
        elif reference:
            per_record_delete_node(store, 0)
        else:
            store.delete_node(0)
        if journal:
            journal.commit()
        states.append(store_state(store, journal))
    assert states[0] == states[1]


# ----------------------------------------------------------------------
# One store, drawn at random
# ----------------------------------------------------------------------
#: node 0 arrives or departs; these are the nodes it may share records with
PEERS = [1, 2, 3, 4, 5]
#: a node no drawn store hosts: records to it are remote on both sides
REMOTE = 9
small_properties = st.dictionaries(st.sampled_from("abc"), st.integers(0, 9), max_size=2)


def record_specs(first_id, ends, max_size):
    """Records ``(rel_id, src, dst, ghost, properties)`` between drawn
    pairs of ``ends`` — several between one pair, either direction, ghost
    or primary, a primary with properties — with ids from ``first_id``."""
    pairs = st.tuples(st.sampled_from(ends), st.sampled_from(ends)).filter(
        lambda pair: pair[0] != pair[1]
    )
    return st.lists(
        st.tuples(pairs, st.booleans(), small_properties), max_size=max_size
    ).map(
        lambda drawn: [
            (first_id + offset, src, dst, ghost, {} if ghost else properties)
            for offset, ((src, dst), ghost, properties) in enumerate(drawn)
        ]
    )


def zero_records(first_id):
    """Node 0's records: each to a drawn peer, in either direction."""
    return record_specs(first_id, [0] + PEERS, 8).map(
        lambda specs: [spec for spec in specs if 0 in spec[1:3]]
    )


def build_store(local, records, node_properties=None):
    """A store hosting ``local`` (node properties drawn per node) with
    ``records`` created in order; a record with no local endpoint is
    skipped."""
    node_properties = node_properties or {}
    store = GraphStore(server_id=0, num_servers=2)
    for node_id in sorted(local):
        store.create_node(node_id, properties=node_properties.get(node_id))
    for rel_id, src, dst, ghost, properties in records:
        if src in local or dst in local:
            store.create_relationship(
                rel_id, src, dst, ghost=ghost, properties=properties or None
            )
    return store


@st.composite
def arrivals(draw):
    """Node 0 exported from a drawn source store and arriving at a drawn
    target store, which holds some of its records already (as a ghost or
    a primary with its own properties) among records of its own, in a
    drawn creation order; a new record whose other endpoint is local is
    head-linked in front of the present ones.  Roles are drawn."""
    zero = draw(zero_records(100))
    source = build_store(
        {0} | draw(st.sets(st.sampled_from(PEERS))),
        zero,
        {0: draw(small_properties)},
    )
    payload = source.export_node(0)
    local = draw(st.sets(st.sampled_from(PEERS), min_size=1))
    present = [
        (rel_id, src, dst, ghost, {} if ghost else properties)
        for (rel_id, src, dst, _, _), ghost, properties in (
            (spec, draw(st.booleans()), draw(small_properties)) for spec in zero
        )
        if (dst if src == 0 else src) in local and draw(st.booleans())
    ]
    others = draw(record_specs(500, PEERS + [REMOTE], 8))
    records = draw(st.permutations(present + others))
    node_properties = {node_id: draw(small_properties) for node_id in sorted(local)}
    roles = draw(
        st.lists(
            st.booleans(),
            min_size=len(payload["relationships"]),
            max_size=len(payload["relationships"]),
        )
    )
    return local, records, node_properties, payload, roles


@st.composite
def departures(draw):
    """A drawn store hosting node 0, its records and records of its
    neighbours in a drawn creation order, and the neighbours that stay
    (``None``: nothing stays, the add-vertex undo)."""
    local = {0} | draw(st.sets(st.sampled_from(PEERS)))
    records = draw(
        st.permutations(
            draw(zero_records(100)) + draw(record_specs(500, PEERS + [REMOTE], 8))
        )
    )
    node_properties = {node_id: draw(small_properties) for node_id in sorted(local)}
    stays = draw(st.none() | st.sets(st.sampled_from(PEERS)))
    return local, records, node_properties, stays


def chain_write_states(build, operate, durable):
    """The physical state ``operate(store, reference)`` leaves on a fresh
    ``build()``, for the chain path and the per-record reference."""
    states = []
    for reference in (False, True):
        store = build()
        journal = ServerJournal(store) if durable else None
        operate(store, reference)
        if journal:
            journal.commit()
        states.append(store_state(store, journal))
    return states


@given(arrivals(), st.booleans())
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_drawn_import_equals_per_record_import(arrival, durable):
    local, records, node_properties, payload, roles = arrival

    def operate(store, reference):
        if reference:
            per_record_import(store, payload, roles)
        else:
            store.import_node(payload, roles)

    changed, expected = chain_write_states(
        lambda: build_store(local, records, node_properties), operate, durable
    )
    assert changed == expected


@given(departures(), st.booleans())
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_drawn_remove_equals_per_record_remove(departure, durable):
    local, records, node_properties, stays = departure

    def operate(store, reference):
        if stays is None:
            if reference:
                per_record_delete_node(store, 0)
            else:
                store.delete_node(0)
        elif reference:
            per_record_remove(store, 0, stays.__contains__)
        else:
            store.delete_node(0, stays=stays.__contains__)

    changed, expected = chain_write_states(
        lambda: build_store(local, records, node_properties), operate, durable
    )
    assert changed == expected


# ----------------------------------------------------------------------
# One store, a whole (source, target) pair in one import
# ----------------------------------------------------------------------
#: the nodes a drawn pair brings, in a drawn order
ARRIVALS = [0, 6, 7]
#: ids of the records and nodes a drawn target makes and partly deletes
#: again, so the pair takes free slots before fresh ones
FILLER = 1000


def payload_of(export):
    """An export as the payload dict ``export_node`` ships."""
    return {
        "node": {"node_id": export.node_id, "weight": export.weight},
        "properties": export.properties,
        "relationships": [
            {
                "rel_id": rel[1],
                "src": rel[2],
                "dst": rel[3],
                "ghost": False,
                "properties": export.chain_properties.get(position, {}),
            }
            for position, rel in enumerate(export.chain)
        ],
    }


def without(export, dropped):
    """``export`` with the chain positions ``dropped`` left out."""
    kept = [at for at in range(len(export.chain)) if at not in dropped]
    return export._replace(
        chain=[export.chain[at] for at in kept],
        chain_properties={
            new: export.chain_properties[at]
            for new, at in enumerate(kept)
            if at in export.chain_properties
        },
    )


def warm(store):
    """Fill the adjacency view and the availability set of every node."""
    store.read_frontier(sorted(store.node_ids()), False)
    store.read_frontier(sorted(store.node_ids()), True)


def pair_state(store, journal):
    """``store_state``, after checking the adjacency view and availability
    set coherent: each entry equals a fresh chain walk, each set member is
    an available node.  Their contents may differ between the paths: the
    per-record reference's ``create_relationship`` writes through entries
    that the columnar import drops."""
    for node, neighbors in store.adjacency.items():
        walked = [entry.neighbor for entry in store.neighbor_entries(node)]
        assert list(neighbors) == walked
    assert all(store.is_available(node) for node in store.available)
    return store_state(store, journal)


@st.composite
def pair_arrivals(draw):
    """Two or three nodes exported from a drawn source store, where they
    share records (multi-edges, either direction) with each other and
    with peers, arriving in a drawn order at a drawn target.  The target
    hosts some peers, some of the pair's records already (a ghost or a
    primary with its own properties) among records of its own, and free
    node and relationship slots; its filler puts the pair's allocations
    across a page boundary.  Roles are drawn."""
    arriving = draw(st.lists(st.sampled_from(ARRIVALS), min_size=2, max_size=3, unique=True))
    peers = draw(st.sets(st.sampled_from(PEERS)))
    records = draw(record_specs(100, arriving + PEERS, 14))
    records = [spec for spec in records if {spec[1], spec[2]} & set(arriving)]
    node_properties = {node: draw(small_properties) for node in arriving}
    source = build_store(set(arriving) | peers, records, node_properties)
    exports = [source.export_fields(node) for node in arriving]
    # A payload may leave out a record it shares with a later node, which
    # then brings it new and links it into the earlier node's chain.
    exports[0] = without(exports[0], draw(st.sets(st.integers(0, 13), max_size=3)))
    local = draw(st.sets(st.sampled_from(PEERS), min_size=1))
    present = [
        (rel_id, src, dst, ghost, {} if ghost else properties)
        for (rel_id, src, dst, _, _), ghost, properties in (
            (spec, draw(st.booleans()), draw(small_properties)) for spec in records
        )
        if ({src, dst} & local) and draw(st.booleans())
    ]
    others = draw(record_specs(500, PEERS + [REMOTE], 8))
    target_records = draw(st.permutations(present + others))
    filler = draw(st.integers(0, 70))
    freed = draw(st.sets(st.integers(0, max(filler - 1, 0)), max_size=6))
    spare_nodes = draw(st.sets(st.integers(FILLER, FILLER + 5), max_size=4))
    target_properties = {node: draw(small_properties) for node in sorted(local)}
    roles = draw(
        st.lists(
            st.booleans(),
            min_size=sum(len(export.chain) for export in exports),
            max_size=sum(len(export.chain) for export in exports),
        )
    )

    def build():
        store = build_store(local, target_records, target_properties)
        anchor = min(local)
        for offset in range(filler):
            store.create_relationship(FILLER + offset, anchor, REMOTE, ghost=True)
        for node in sorted(spare_nodes):
            store.create_node(node)
        for offset in sorted(freed & set(range(filler))):
            store.delete_relationship(FILLER + offset)
        for node in sorted(spare_nodes)[::2]:
            store.delete_node(node)
        warm(store)
        return store

    return build, exports, roles


def import_one_at_a_time(store, exports, roles):
    start = 0
    for export in exports:
        count = len(export.chain)
        per_record_import(store, payload_of(export), roles[start : start + count])
        start += count


@given(pair_arrivals(), st.booleans())
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_drawn_pair_import_equals_per_record_imports(arrival, durable):
    build, exports, roles = arrival
    states = []
    for reference in (False, True):
        store = build()
        journal = ServerJournal(store) if durable else None
        if reference:
            import_one_at_a_time(store, exports, roles)
        else:
            store.import_nodes(exports, roles)
        if journal:
            journal.commit()
        states.append(pair_state(store, journal))
    assert states[0] == states[1]


def spoil(export, kind):
    """``export`` made unimportable in the drawn way, and what the target
    store needs for it (or None)."""
    if kind == "present":
        return export, lambda store: store.create_node(export.node_id)
    if kind == "weight":
        return export._replace(weight="heavy"), None
    if kind == "property":
        return export._replace(properties={"bad": object()}), None
    # A record ahead of the chain: twice in it, with a negative id, or
    # with an id that joins two other nodes on the target.
    rel = (1, 90, export.node_id, REMOTE)
    chain = [rel] + list(export.chain)
    if kind == "twice":
        return export._replace(chain=chain + [rel]), None
    if kind == "negative":
        return export._replace(chain=[(1, -5, export.node_id, REMOTE)] + chain), None

    def other_pair(store):
        resident = min(node for node in store.node_ids() if node < FILLER)
        store.create_relationship(90, resident, REMOTE, ghost=True)

    return export._replace(chain=chain), other_pair


@given(
    pair_arrivals(),
    st.sampled_from(["present", "weight", "property", "negative", "twice", "other-pair"]),
    st.data(),
)
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_drawn_pair_import_stops_at_a_bad_payload(arrival, kind, data):
    """A payload the checks reject at an interior node: the nodes before
    it are installed exactly as importing them one at a time installs
    them, and the error is the one importing the bad node alone raises,
    with nothing of it written."""
    build, exports, roles = arrival
    bad = data.draw(st.integers(1, len(exports) - 1))
    start = sum(len(export.chain) for export in exports[:bad])
    exports = list(exports)
    exports[bad], prepare = spoil(exports[bad], kind)
    changed, reference = build(), build()
    for store in (changed, reference):
        if prepare:
            prepare(store)
        warm(store)
    roles = list(roles) + [False] * (
        sum(len(export.chain) for export in exports) - len(roles)
    )
    import_one_at_a_time(reference, exports[:bad], roles[:start])
    expected = pair_state(reference, None)
    count = len(exports[bad].chain)
    with pytest.raises(StorageError) as alone:
        reference.import_node(payload_of(exports[bad]), roles[start : start + count])
    assert pair_state(reference, None) == expected
    with pytest.raises(StorageError) as pair:
        changed.import_nodes(exports, roles)
    assert str(pair.value) == str(alone.value)
    assert pair_state(changed, None) == expected
