"""Properties of the bulk read plane: ``GraphStore.read_frontier``,
``FixedRecordStore.fields`` and the one raw-field chain walker.

On random stores — ghost records, unavailable and missing nodes, several
records between the same two nodes — ``read_frontier`` must give, per
vertex, exactly the answer ``is_available`` + ``neighbor_entries`` give;
and a damaged store must fail the bulk read with the same typed error the
single-record path raises, because both go through the one checked access
(``fields``) and the one chain walk.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    RecordDeletedError,
    RecordNotFoundError,
    StorageError,
    StoreCorruptionError,
)
from repro.storage.graph_store import GraphStore

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
