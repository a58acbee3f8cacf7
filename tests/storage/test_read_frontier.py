"""Properties of the bulk read plane: ``GraphStore.read_frontier``,
``FixedRecordStore.fields``, the one raw-field chain walker and the
adjacency view in front of it.

On random stores — ghost records, unavailable and missing nodes, several
records between the same two nodes — ``read_frontier`` must give, per
vertex, exactly the answer ``is_available`` + ``neighbor_entries`` give;
it must keep doing so, with every entry warm, across any sequence of the
store's chain mutators and a reopen; and a damaged (cold) store must fail
the bulk read with the same typed error the single-record path raises,
because both go through the one checked access (``fields``) and the one
chain walk.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.exceptions import (
    RecordDeletedError,
    RecordNotFoundError,
    StorageError,
    StoreCorruptionError,
)
from repro.storage.graph_store import GraphStore
from repro.storage.records import NULL_REF

NODES = 12


@st.composite
def stores(draw):
    """A store holding some of nodes ``0..NODES-1`` (the rest live
    "elsewhere": edges to them are ghost-side records), a few of them
    unavailable, with repeated edges allowed."""
    local = draw(st.sets(st.integers(0, NODES - 1), min_size=1))
    store = GraphStore()
    for node_id in sorted(local):
        store.create_node(node_id)
    pairs = st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)).filter(
        lambda pair: pair[0] != pair[1] and (pair[0] in local or pair[1] in local)
    )
    for src, dst in draw(st.lists(pairs, max_size=25)):
        store.create_relationship(
            store.allocate_rel_id(), src, dst, ghost=src not in local
        )
    for node_id in draw(st.sets(st.sampled_from(sorted(local)))):
        store.set_available(node_id, False)
    return store


def per_vertex_answer(store, node_id, expand):
    if not store.is_available(node_id):
        return None
    if not expand:
        return []
    return [entry.neighbor for entry in store.neighbor_entries(node_id)]


@given(
    store=stores(),
    node_ids=st.lists(st.integers(-1, NODES + 1), max_size=20),
    expand=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_read_frontier_equals_the_per_vertex_reads(store, node_ids, expand):
    answers = store.read_frontier(node_ids, expand)
    assert len(answers) == len(node_ids)
    for node_id, answer in zip(node_ids, answers):
        expected = per_vertex_answer(store, node_id, expand)
        assert (None if answer is None else list(answer)) == expected


class WarmViewDifferential(RuleBasedStateMachine):
    """Random chain mutations with every view entry warm between steps.

    After each step the invariant reads every node id at once, first for
    availability alone — which fills the availability set for each
    available node the view does not hold — then expanded — which fills
    the view for each available node — and holds each answer to
    ``is_available`` + ``neighbor_entries``: an entry a mutation failed to
    drop shows up as a stale answer at the next step.

    Nodes come into the store only through ``import_node``, whose payload
    carries every record here that names the node, and at most one record
    side is detached at a time: the sequences the cluster itself makes,
    so the chain mutators' own preconditions hold.
    """

    def __init__(self):
        super().__init__()
        self.store = GraphStore()
        for node_id in range(0, NODES, 2):
            self.store.create_node(node_id)
        #: ``(rel_id, node_id)`` unlinked by ``detach_endpoint``, if any
        self.detached = None

    # -- helpers -------------------------------------------------------
    def local(self):
        return sorted(self.store.node_ids())

    def records(self):
        return list(self.store.relationships.records())

    # -- chain mutators ------------------------------------------------
    @precondition(lambda self: self.detached is None and self.local())
    @rule(data=st.data())
    def create_relationship(self, data):
        local = self.local()
        src = data.draw(st.sampled_from(local))
        dst = data.draw(st.integers(0, NODES - 1).filter(lambda node: node != src))
        if data.draw(st.booleans()):
            src, dst = dst, src
        ghost = src not in local
        self.store.create_relationship(
            self.store.allocate_rel_id(),
            src,
            dst,
            ghost=ghost,
            properties=None if ghost else {"w": data.draw(st.integers(0, 9))},
        )

    @precondition(lambda self: self.detached is None and self.records())
    @rule(data=st.data())
    def delete_relationship(self, data):
        record = data.draw(st.sampled_from(self.records()))
        self.store.delete_relationship(record.rel_id)

    @precondition(lambda self: self.detached is None and self.local())
    @rule(data=st.data(), keep=st.none() | st.sets(st.integers(0, NODES - 1)))
    def delete_node(self, data, keep):
        node_id = data.draw(st.sampled_from(self.local()))
        self.store.delete_node(node_id, None if keep is None else keep.__contains__)

    @precondition(lambda self: self.detached is None and len(self.local()) < NODES)
    @rule(data=st.data())
    def import_node(self, data):
        local = self.local()
        node_id = data.draw(
            st.sampled_from([node for node in range(NODES) if node not in local])
        )
        relationships = [
            {
                "rel_id": record.rel_id,
                "src": record.src,
                "dst": record.dst,
                "ghost": record.ghost,
                "properties": {},
            }
            for record in self.records()
            if node_id in (record.src, record.dst)
        ]
        for other in data.draw(st.lists(st.integers(0, NODES - 1), max_size=4)):
            if other != node_id:
                relationships.append(
                    {
                        "rel_id": self.store.allocate_rel_id(),
                        "src": node_id,
                        "dst": other,
                        "ghost": False,
                        "properties": {"w": 1},
                    }
                )
        payload = {
            "node": {"node_id": node_id, "weight": 1.0},
            "properties": {},
            "relationships": data.draw(st.permutations(relationships)),
        }
        roles = data.draw(
            st.lists(
                st.booleans(),
                min_size=len(relationships),
                max_size=len(relationships),
            )
        )
        self.store.import_node(payload, roles)

    def linked_sides(self):
        return [
            (record.rel_id, node_id)
            for record in self.records()
            for node_id in (record.src, record.dst)
            if node_id in self.store.nodes
            and self.store.chain_contains(node_id, record.rel_id)
        ]

    @precondition(lambda self: self.detached is None and self.records())
    @rule(data=st.data())
    def detach_endpoint(self, data):
        sides = self.linked_sides()
        if sides:
            self.detached = data.draw(st.sampled_from(sides))
            self.store.detach_endpoint(*self.detached)

    @precondition(lambda self: self.detached is not None)
    @rule()
    def attach_endpoint(self):
        self.store.attach_endpoint(*self.detached)
        self.detached = None

    @precondition(lambda self: self.local())
    @rule(data=st.data(), available=st.booleans())
    def set_available(self, data, available):
        self.store.set_available(data.draw(st.sampled_from(self.local())), available)

    @precondition(lambda self: self.records())
    @rule(data=st.data(), ghost=st.booleans())
    def set_ghost(self, data, ghost):
        record = data.draw(st.sampled_from(self.records()))
        self.store.set_ghost(record.rel_id, ghost)

    @precondition(lambda self: self.detached is None)
    @rule(data=st.data())
    def remove_node_record(self, data):
        bare = [
            node_id
            for node_id in self.local()
            if self.store.node(node_id).first_rel == NULL_REF
        ]
        if bare:
            self.store.remove_node_record(data.draw(st.sampled_from(bare)))

    @rule()
    def reopen(self):
        store = self.store
        state = store.allocator_state()
        self.store = GraphStore.from_pages(
            store.server_id,
            [record_store.pages for record_store in store.record_stores()],
            state["num_stripes"],
            state["rel_counter"],
            state["prop_counter"],
        )
        assert not self.store.adjacency
        assert not self.store.available

    # -- the differential ----------------------------------------------
    @invariant()
    def warm_reads_equal_the_per_vertex_reads(self):
        node_ids = list(range(-1, NODES + 1))
        # Availability first, so the set fills for every available node
        # the view does not hold yet; then expand, filling the view.
        for expand in (False, True):
            answers = self.store.read_frontier(node_ids, expand)
            for node_id, answer in zip(node_ids, answers):
                expected = per_vertex_answer(self.store, node_id, expand)
                assert (None if answer is None else list(answer)) == expected
        served = {
            node_id
            for node_id, answer in zip(node_ids, answers)
            if answer is not None
        }
        assert set(self.store.adjacency) == served
        assert self.store.available <= served


TestWarmViewDifferential = WarmViewDifferential.TestCase
TestWarmViewDifferential.settings = settings(stateful_step_count=30, deadline=None)


@given(store=stores(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_drawn_insert_writes_through_the_view(store, data):
    """A relationship insert grows each local endpoint's filled entry into
    a new array with the other endpoint first, fills no empty one, and
    keeps every other entry (the same object) and the availability set."""
    local = sorted(store.node_ids())
    endpoints = st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)).filter(
        lambda pair: pair[0] != pair[1] and (pair[0] in local or pair[1] in local)
    )
    for src, dst in data.draw(st.lists(endpoints, min_size=1, max_size=6)):
        # Warm a drawn part of the view and of the availability set.
        store.read_frontier(data.draw(st.lists(st.sampled_from(local))), True)
        store.read_frontier(data.draw(st.lists(st.sampled_from(local))), False)
        entries, available = dict(store.adjacency), set(store.available)
        ghost = data.draw(st.booleans())
        store.create_relationship(store.allocate_rel_id(), src, dst, ghost=ghost)
        assert store.available == available
        assert store.adjacency.keys() == entries.keys()
        for node_id, neighbors in store.adjacency.items():
            walked = [entry.neighbor for entry in store.neighbor_entries(node_id)]
            assert list(neighbors) == walked
            if node_id in (src, dst):
                other = dst if node_id == src else src
                assert neighbors is not entries[node_id]
                assert walked == [other, *entries[node_id]]
            else:
                assert neighbors is entries[node_id]


def test_neighbour_ids_beyond_32_bits_are_kept_exactly():
    """The view packs ids in 32 bits when they fit, in 64 when not."""
    store = GraphStore()
    store.create_node(0)
    store.create_relationship(store.allocate_rel_id(), 0, 2**40, ghost=False)
    store.create_relationship(store.allocate_rel_id(), 0, 7, ghost=False)
    for _ in range(2):  # cold, then warm
        assert [list(answer) for answer in store.read_frontier([0], True)] == [
            [7, 2**40]
        ]


def star_store():
    """Node 0 with neighbours 1..4 (chain order 4, 3, 2, 1)."""
    store = GraphStore()
    for node_id in range(5):
        store.create_node(node_id)
    rel_ids = [
        store.create_relationship(store.allocate_rel_id(), 0, neighbor).rel_id
        for neighbor in range(1, 5)
    ]
    return store, rel_ids


def zero_slot(record_store, record_id):
    slot = record_store._index.get(record_id)
    page, index = divmod(slot, record_store.slots_per_page)
    size = record_store.record_size
    record_store.pages.write(page, index * size, bytes(size))


class TestDamagedStoresFailTheBulkReadTheSameWay:
    def test_zeroed_node_slot_behind_a_live_index_entry(self):
        store, _ = star_store()
        zero_slot(store.nodes, 2)
        with pytest.raises(RecordDeletedError):
            store.nodes.fields(2)
        with pytest.raises(RecordDeletedError):
            store.is_available(2)
        with pytest.raises(RecordDeletedError):
            store.read_frontier([1, 2], False)

    def test_zeroed_relationship_slot_inside_a_chain(self):
        store, rel_ids = star_store()
        zero_slot(store.relationships, rel_ids[1])
        with pytest.raises(RecordDeletedError):
            store.relationships.fields(rel_ids[1])
        with pytest.raises(RecordDeletedError):
            store.neighbor_entries(0)
        with pytest.raises(RecordDeletedError):
            store.read_frontier([0], True)
        # Availability alone never touches the chain.
        assert store.read_frontier([0], False) == [()]

    def test_index_entry_pointing_at_another_records_slot(self):
        store, rel_ids = star_store()
        relationships = store.relationships
        relationships._index[rel_ids[2]] = relationships._index[rel_ids[0]]
        for read in (
            lambda: relationships.fields(rel_ids[2]),
            lambda: relationships.read(rel_ids[2]),
            lambda: store.neighbor_entries(0),
            lambda: store.export_node(0),
            lambda: store.read_frontier([0], True),
        ):
            with pytest.raises(StoreCorruptionError, match=f"record {rel_ids[0]}"):
                read()

    def test_spliced_cycle(self):
        store, rel_ids = star_store()
        tail = store.relationships.read(rel_ids[0])  # chain: 3, 2, 1, 0
        store.relationships.write(tail.with_next_for(0, rel_ids[3]))
        with pytest.raises(StorageError, match="cyclic"):
            store.neighbor_entries(0)
        with pytest.raises(StorageError, match="cyclic"):
            store.read_frontier([0], True)

    def test_chain_running_into_a_record_of_other_nodes(self):
        store, rel_ids = star_store()
        stranger = store.create_relationship(store.allocate_rel_id(), 1, 2)
        tail = store.relationships.read(rel_ids[0])
        store.relationships.write(tail.with_next_for(0, stranger.rel_id))
        with pytest.raises(StorageError, match="not an endpoint"):
            store.neighbor_entries(0)
        with pytest.raises(StorageError, match="not an endpoint"):
            store.read_frontier([0], True)

    def test_dangling_link(self):
        store, rel_ids = star_store()
        tail = store.relationships.read(rel_ids[0])
        store.relationships.write(tail.with_next_for(0, 10_000))
        with pytest.raises(RecordNotFoundError):
            store.neighbor_entries(0)
        with pytest.raises(RecordNotFoundError):
            store.read_frontier([0], True)


def frontier_outcome(store, node_ids, expand):
    """What ``read_frontier`` gives — its answers, or the type it raises."""
    try:
        answers = store.read_frontier(node_ids, expand)
    except StorageError as error:  # compared by type, the way a caller sees it
        return type(error)
    return [None if answer is None else list(answer) for answer in answers]


class TestWarmEntriesDoNotHideDamage:
    """A record write or delete drops its endpoints' view entries, and a
    node write or delete drops the node's availability answer, so damage
    done through the typed writers after a node's entry is filled fails
    the bulk read exactly as it fails on a cold store."""

    def test_record_deleted_out_from_under_a_warm_chain(self):
        store, rel_ids = star_store()
        store.read_frontier([0], True)
        store.relationships.delete(store.relationship(rel_ids[1]))
        with pytest.raises(RecordNotFoundError):
            store.neighbor_entries(0)
        with pytest.raises(RecordNotFoundError):
            store.read_frontier([0], True)

    def test_dangling_link_written_into_a_warm_chain(self):
        store, rel_ids = star_store()
        store.read_frontier([0], True)
        tail = store.relationships.read(rel_ids[0])
        store.relationships.write(tail.with_next_for(0, 10_000))
        with pytest.raises(RecordNotFoundError):
            store.read_frontier([0], True)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda store: store.set_available(4, False),
            lambda store: store.delete_node(4),
            lambda store: store.remove_node_record(5),
        ],
        ids=["set_available", "delete_node", "remove_node_record"],
    )
    def test_node_written_under_a_warm_availability_answer(self, mutate):
        warm, _ = star_store()
        cold, _ = star_store()
        for store in (warm, cold):
            store.create_node(5)  # bare: a node remove_node_record takes
        assert warm.read_frontier([4, 5], False) == [(), ()]
        assert warm.available == {4, 5}
        mutate(warm)
        mutate(cold)
        outcome = frontier_outcome(warm, [4, 5], False)
        assert outcome == frontier_outcome(cold, [4, 5], False)
        assert None in outcome
