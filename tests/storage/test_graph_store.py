"""Tests for the GraphStore facade: chains, ghosts, properties, migration
primitives, availability and persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError, VertexUnavailableError
from repro.storage.graph_store import GraphStore
from repro.storage.records import NULL_REF, FixedRecordStore
from tests.conftest import store_state


@pytest.fixture
def store():
    s = GraphStore()
    for i in range(6):
        s.create_node(i, weight=float(i + 1))
    return s


class TestNodes:
    def test_create_and_read(self, store):
        record = store.node(3)
        assert record.node_id == 3
        assert record.weight == 4.0
        assert store.has_node(3)
        assert not store.has_node(99)

    def test_duplicate_rejected(self, store):
        with pytest.raises(StorageError):
            store.create_node(3)

    def test_point_read_writes_nothing(self, store, monkeypatch):
        """Popularity is auxiliary data: a point read returns the
        properties and leaves the stored weight and every slot alone."""
        store.set_node_property(0, "name", "zero")
        store.set_available(1, False)
        before = store_state(store)
        writes = []
        monkeypatch.setattr(
            FixedRecordStore, "write_fields", lambda *args: writes.append(args)
        )
        assert store.point_read(0) == {"name": "zero"}
        assert store.point_read(1) is None  # unavailable
        assert store.point_read(99) is None  # missing
        assert writes == []
        assert store_state(store) == before
        assert store.node(0).weight == 1.0

    def test_delete_node_cleans_up(self, store):
        r1 = store.create_relationship(store.allocate_rel_id(), 0, 1)
        store.set_node_property(0, "name", "zero")
        store.delete_node(0)
        assert not store.has_node(0)
        assert not store.has_relationship(r1.rel_id)
        assert store.neighbors(1) == []

    def test_node_ids(self, store):
        assert sorted(store.node_ids()) == list(range(6))
        assert store.num_nodes == 6


class TestRelationshipChains:
    def test_adjacency_via_chain(self, store):
        for other in (1, 2, 3):
            store.create_relationship(store.allocate_rel_id(), 0, other)
        assert sorted(store.neighbors(0)) == [1, 2, 3]
        assert store.degree(0) == 3
        assert sorted(store.neighbors(1)) == [0]

    def test_chain_after_middle_delete(self, store):
        rels = [
            store.create_relationship(store.allocate_rel_id(), 0, other)
            for other in (1, 2, 3)
        ]
        store.delete_relationship(rels[1].rel_id)
        assert sorted(store.neighbors(0)) == [1, 3]
        assert store.neighbors(2) == []

    def test_chain_after_head_delete(self, store):
        rels = [
            store.create_relationship(store.allocate_rel_id(), 0, other)
            for other in (1, 2)
        ]
        # Head of the chain is the most recently inserted (rels[1]).
        store.delete_relationship(rels[1].rel_id)
        assert store.neighbors(0) == [1]

    def test_self_relationship_rejected(self, store):
        with pytest.raises(StorageError):
            store.create_relationship(store.allocate_rel_id(), 1, 1)

    def test_duplicate_rel_id_rejected(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1)
        with pytest.raises(StorageError):
            store.create_relationship(rel.rel_id, 2, 3)

    def test_both_endpoints_remote_rejected(self, store):
        with pytest.raises(StorageError):
            store.create_relationship(store.allocate_rel_id(), 100, 101)

    def test_remote_endpoint_allowed(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 500)
        assert store.neighbors(0) == [500]
        assert rel.next_for(500) == NULL_REF

    def test_external_rel_id_observed(self, store):
        """Importing a record with a foreign ID must advance the allocator."""
        store.create_relationship(1000, 0, 1)
        assert store.allocate_rel_id() > 1000


class TestGhosts:
    def test_ghost_has_no_properties(self, store):
        with pytest.raises(StorageError):
            store.create_relationship(
                store.allocate_rel_id(), 0, 1, ghost=True, properties={"a": 1}
            )

    def test_ghost_flag_roundtrip(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 99, ghost=True)
        assert store.relationship(rel.rel_id).ghost
        entries = list(store.neighbor_entries(0))
        assert entries[0].ghost

    def test_set_ghost_drops_properties(self, store):
        rel = store.create_relationship(
            store.allocate_rel_id(), 0, 1, properties={"since": 2015}
        )
        store.set_ghost(rel.rel_id, True)
        record = store.relationship(rel.rel_id)
        assert record.ghost
        assert record.first_prop == NULL_REF
        assert store.relationship_properties(rel.rel_id) == {}

    def test_ghost_property_write_rejected(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1, ghost=True)
        with pytest.raises(StorageError):
            store.set_relationship_property(rel.rel_id, "a", 1)

    def test_ghost_upgrade(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1, ghost=True)
        store.set_ghost(rel.rel_id, False)
        store.set_relationship_property(rel.rel_id, "since", 2015)
        assert store.get_relationship_property(rel.rel_id, "since") == 2015


class TestProperties:
    def test_node_property_crud(self, store):
        store.set_node_property(0, "name", "alice")
        store.set_node_property(0, "age", 30)
        assert store.get_node_property(0, "name") == "alice"
        assert store.node_properties(0) == {"name": "alice", "age": 30}
        store.set_node_property(0, "age", 31)
        assert store.get_node_property(0, "age") == 31
        assert store.remove_node_property(0, "name")
        assert not store.remove_node_property(0, "name")
        assert store.node_properties(0) == {"age": 31}

    def test_get_with_default(self, store):
        assert store.get_node_property(0, "missing", "dflt") == "dflt"

    def test_relationship_properties(self, store):
        rel = store.create_relationship(
            store.allocate_rel_id(), 0, 1, properties={"w": 0.5}
        )
        store.set_relationship_property(rel.rel_id, "kind", "friend")
        assert store.relationship_properties(rel.rel_id) == {
            "w": 0.5,
            "kind": "friend",
        }

    def test_property_chain_removal_orders(self, store):
        for key in ("a", "b", "c"):
            store.set_node_property(1, key, key.upper())
        store.remove_node_property(1, "b")  # middle
        assert store.node_properties(1) == {"a": "A", "c": "C"}
        store.remove_node_property(1, "c")  # head (inserted last)
        assert store.node_properties(1) == {"a": "A"}


class TestRejectedWrites:
    """A store mutation checks every key and encodes every value before
    its first write.  Each of these used to leave a half-applied write:
    a node or relationship with part of its properties, an old value
    blob freed before the new value failed to encode (the key then read
    back as ``RecordNotFoundError``), or a bare ``AttributeError`` /
    ``UnicodeEncodeError`` after the property id was taken, or a
    relationship to an endpoint beyond int64 linked into the local
    endpoint's chain before its own slot write failed."""

    @pytest.mark.parametrize(
        "write",
        [
            lambda s: s.create_node(10, properties={"a": 1, "b": object()}),
            lambda s: s.create_relationship(
                101, 1, 2, properties={"w": 2, "x": object()}
            ),
            lambda s: s.set_node_property(0, "name", object()),
            lambda s: s.set_relationship_property(100, "w", {"nested": 1}),
            lambda s: s.set_node_property(0, 5, "five"),
            lambda s: s.create_node(10, properties={"name": "\ud800"}),
            lambda s: s.set_node_property(0, "\ud800", 1),
            lambda s: s.create_relationship(101, 1, 2**70),
        ],
        ids=[
            "create-node",
            "create-relationship",
            "replace-node-value",
            "replace-relationship-value",
            "non-str-key",
            "unencodable-value-text",
            "unencodable-key-text",
            "huge-endpoint",
        ],
    )
    def test_a_rejected_write_leaves_the_store_untouched(self, store, write):
        store.set_node_property(0, "name", "zero")
        store.create_relationship(100, 0, 1, properties={"w": 1})
        before = store_state(store)
        stats = store.stats()
        with pytest.raises(StorageError):
            write(store)
        assert store_state(store) == before
        assert store.stats() == stats
        assert not store.has_node(10) and not store.has_relationship(101)
        assert store.node_properties(0) == {"name": "zero"}
        assert store.relationship_properties(100) == {"w": 1}


class TestAvailability:
    def test_unavailable_node_rejects_queries(self, store):
        store.set_available(0, False)
        assert not store.is_available(0)
        with pytest.raises(VertexUnavailableError):
            store.node_properties(0)
        with pytest.raises(VertexUnavailableError):
            list(store.neighbor_entries(0))

    def test_missing_node_is_unavailable(self, store):
        assert not store.is_available(404)

    def test_reenable(self, store):
        store.set_available(0, False)
        store.set_available(0, True)
        assert store.node_properties(0) == {}


class TestMigrationPrimitives:
    def test_export_import_roundtrip(self, store):
        store.set_node_property(0, "name", "zero")
        store.create_relationship(
            store.allocate_rel_id(), 0, 1, properties={"since": 2015}
        )
        payload = store.export_node(0)
        other = GraphStore(server_id=1, num_servers=2)
        other.import_node(payload, [False])
        assert other.node(0).weight == 1.0
        assert other.node_properties(0) == {"name": "zero"}
        (rel,) = payload["relationships"]
        assert other.neighbors(0) == [1]
        assert other.relationship_properties(rel["rel_id"]) == {"since": 2015}

    def test_detach_endpoint(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1)
        store.detach_endpoint(rel.rel_id, 0)
        assert store.neighbors(0) == []
        assert store.neighbors(1) == [0]
        record = store.relationship(rel.rel_id)
        assert record.prev_for(0) == NULL_REF
        assert record.next_for(0) == NULL_REF

    def test_attach_endpoint(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1)
        store.detach_endpoint(rel.rel_id, 0)
        store.attach_endpoint(rel.rel_id, 0)
        assert store.neighbors(0) == [1]

    def test_remove_node_record_requires_empty_chain(self, store):
        store.create_relationship(store.allocate_rel_id(), 0, 1)
        with pytest.raises(StorageError):
            store.remove_node_record(0)

    def test_remove_node_record(self, store):
        store.set_node_property(5, "x", 1)
        store.remove_node_record(5)
        assert not store.has_node(5)


#: nodes 0-3 local to server 1 of 2, 4 remote; 21 and 23 are ghosts
BULK_NODES = [(2, 1.5), (0, 1.0), (3, 0.25), (1, 4.0)]
BULK_RELS = [
    (1, 0, 2, False),
    (3, 2, 1, False),
    (21, 4, 0, True),
    (5, 0, 1, False),
    (23, 4, 2, True),
    (7, 3, 0, False),
]


def bulk_load(store, nodes, rels):
    """``store.bulk_load`` of ``(node_id, weight)`` and ``(rel_id, src,
    dst, ghost)`` rows, as its six columns."""
    store.bulk_load(
        *[[row[field] for row in nodes] for field in range(2)],
        *[[row[field] for row in rels] for field in range(4)],
    )


class TestBulkLoad:
    def test_bulk_load_equals_one_record_at_a_time(self):
        bulk = GraphStore(server_id=1, num_servers=2)
        bulk_load(bulk, BULK_NODES, BULK_RELS)
        single = GraphStore(server_id=1, num_servers=2)
        for node_id, weight in BULK_NODES:
            single.create_node(node_id, weight=weight)
        for rel_id, src, dst, ghost in BULK_RELS:
            single.create_relationship(rel_id, src, dst, ghost=ghost)
        assert store_state(bulk) == store_state(single)
        assert bulk.neighbors(0) == [3, 1, 4, 2]  # newest first
        assert bulk.allocate_rel_id() == 25

    @pytest.mark.parametrize(
        "nodes, rels",
        [
            (BULK_NODES + [(0, 1.0)], BULK_RELS),
            (BULK_NODES, BULK_RELS + [(5, 1, 3, False)]),
            (BULK_NODES, BULK_RELS + [(9, 3, 3, False)]),
            (BULK_NODES, BULK_RELS + [(9, 4, 5, True)]),
            (BULK_NODES, BULK_RELS + [(-1, 1, 3, False)]),
            # Values that fail only when packed: a node used to be
            # written before the slot write that could not pack one.
            (BULK_NODES + [(9, None)], BULK_RELS),
            (BULK_NODES + [(9, "heavy")], BULK_RELS),
            (BULK_NODES + [(2**70, 1.0)], BULK_RELS),
            (BULK_NODES, BULK_RELS + [(2**70, 1, 3, False)]),
            (BULK_NODES, BULK_RELS + [(9, 1, 2**70, False)]),
        ],
        ids=[
            "node-twice",
            "relationship-twice",
            "self-loop",
            "no-local-endpoint",
            "negative-id",
            "weight-none",
            "weight-str",
            "huge-node-id",
            "huge-rel-id",
            "huge-endpoint",
        ],
    )
    def test_bad_input_leaves_the_store_untouched(self, nodes, rels):
        store = GraphStore(server_id=1, num_servers=2)
        before = store_state(store)
        with pytest.raises(StorageError):
            bulk_load(store, nodes, rels)
        assert store_state(store) == before

    def test_a_store_that_is_not_empty_is_refused(self, store):
        before = store_state(store)
        with pytest.raises(StorageError, match="empty"):
            bulk_load(store, [(10, 1.0)], [])
        assert store_state(store) == before


class TestStatsAndPersistence:
    def test_stats(self, store):
        store.create_relationship(store.allocate_rel_id(), 0, 1)
        store.create_relationship(store.allocate_rel_id(), 2, 99, ghost=True)
        store.set_node_property(0, "a", 1)
        stats = store.stats()
        assert stats.num_nodes == 6
        assert stats.num_relationships == 2
        assert stats.num_ghost_relationships == 1
        assert stats.num_properties == 1
        assert stats.total_bytes > 0

    def test_save_load_roundtrip(self, store, tmp_path):
        store.set_node_property(0, "name", "zero")
        rel = store.create_relationship(
            store.allocate_rel_id(), 0, 1, properties={"since": 2015}
        )
        store.set_available(2, False)
        directory = str(tmp_path / "db")
        store.save(directory)
        loaded = GraphStore.load(directory)
        assert sorted(loaded.node_ids()) == list(range(6))
        assert loaded.node_properties(0) == {"name": "zero"}
        assert loaded.relationship_properties(rel.rel_id) == {"since": 2015}
        assert loaded.neighbors(0) == [1]
        assert not loaded.is_available(2)
        assert loaded.allocate_rel_id() > rel.rel_id


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60))
@settings(max_examples=50, deadline=None)
def test_chain_consistency_under_random_churn(pairs):
    """Insert/delete edges in random order; adjacency must always equal a
    plain set-based model."""
    store = GraphStore()
    for i in range(10):
        store.create_node(i)
    model = {}
    for u, v in pairs:
        if u == v:
            continue
        key = frozenset((u, v))
        if key in model:
            store.delete_relationship(model.pop(key))
        else:
            rel = store.create_relationship(store.allocate_rel_id(), u, v)
            model[key] = rel.rel_id
    for vertex in range(10):
        expected = sorted(
            next(iter(key - {vertex}))
            for key in model
            if vertex in key
        )
        assert sorted(store.neighbors(vertex)) == expected


LOCAL_NODES = range(6)
REMOTE_NODES = (100, 101)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(("create", "detach", "attach", "delete")),
            st.integers(0, 2**16),
            st.integers(0, 2**16),
        ),
        max_size=60,
    )
)
@settings(max_examples=80, deadline=None)
def test_chain_contains_matches_the_chain_walk(steps):
    """``chain_contains`` answers from the record's own link fields; after
    any create / attach / detach / delete sequence it must agree with
    walking the chain, for every (local endpoint, relationship) pair."""
    store = GraphStore()
    for node in LOCAL_NODES:
        store.create_node(node)
    endpoints = {}  # rel_id -> (src, dst)
    linked = set()  # (local node, rel_id) pairs currently in a chain
    candidates = list(LOCAL_NODES) + list(REMOTE_NODES)

    def local_sides(rel_id):
        return [node for node in endpoints[rel_id] if node in LOCAL_NODES]

    def step(action, a, b):
        if action == "create":
            src = LOCAL_NODES[a % len(LOCAL_NODES)]
            dst = candidates[b % len(candidates)]
            if src == dst:
                return
            if b % 2:
                src, dst = dst, src
            rel_id = store.allocate_rel_id()
            store.create_relationship(rel_id, src, dst)
            endpoints[rel_id] = (src, dst)
            linked.update((node, rel_id) for node in local_sides(rel_id))
            return
        if not endpoints:
            return
        rel_id = sorted(endpoints)[a % len(endpoints)]
        sides = local_sides(rel_id)
        node = sides[b % len(sides)]
        if action == "detach" and (node, rel_id) in linked:
            store.detach_endpoint(rel_id, node)
            linked.discard((node, rel_id))
        elif action == "attach" and (node, rel_id) not in linked:
            store.attach_endpoint(rel_id, node)
            linked.add((node, rel_id))
        elif action == "delete" and all((n, rel_id) in linked for n in sides):
            # (a record with a detached local side is mid-migration state
            # the executor never deletes through this call)
            store.delete_relationship(rel_id)
            linked.difference_update((n, rel_id) for n in sides)
            del endpoints[rel_id]

    for action, a, b in steps:
        step(action, a, b)
        for rel_id in endpoints:
            for node in local_sides(rel_id):
                walked = any(
                    entry.rel_id == rel_id
                    for entry in store.neighbor_entries(node, include_unavailable=True)
                )
                assert store.chain_contains(node, rel_id) == walked
                assert walked == ((node, rel_id) in linked)
