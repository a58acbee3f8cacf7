"""The on-page byte format is pinned: golden record bytes and a saved store.

The hex literals and ``fixtures/pinned_store/`` were written by the commit
*before* the access path was rebuilt around ``unpack_from``/``pack_into``
(PR 14).  A change to the read or write path may make records cheaper to
reach; it may not move a byte of what is on the page, in a saved file or
in a WAL image.
"""

import filecmp
import os

import pytest

from repro.storage.graph_store import GraphStore
from repro.storage.node_store import NodeCodec, NodeRecord
from repro.storage.property_store import PropertyCodec, PropertyRecord
from repro.storage.records import _ChunkCodec
from repro.storage.relationship_store import RelationshipCodec, RelationshipRecord

PINNED_STORE = os.path.join(os.path.dirname(__file__), "fixtures", "pinned_store")
STORE_FILES = (
    "nodes.store",
    "relationships.store",
    "properties.store",
    "dynamic.store",
    "meta.json",
)

GOLDEN = [
    (
        NodeCodec(),
        7,
        NodeRecord(node_id=7, first_rel=12, first_prop=-1, weight=2.5, available=True),
        "0307000000000000000c00000000000000ffffffffffffffff0000000000000440",
    ),
    (
        NodeCodec(),
        8,
        NodeRecord(node_id=8, first_rel=-1, first_prop=3, weight=0.125, available=False),
        "010800000000000000ffffffffffffffff0300000000000000000000000000c03f",
    ),
    (
        RelationshipCodec(),
        9,
        RelationshipRecord(
            rel_id=9, src=1, dst=2, src_prev=-1, src_next=4,
            dst_prev=5, dst_next=-1, first_prop=6, ghost=False,
        ),
        "01090000000000000001000000000000000200000000000000ffffffffffffffff"
        "04000000000000000500000000000000ffffffffffffffff0600000000000000",
    ),
    (
        RelationshipCodec(),
        10,
        RelationshipRecord(rel_id=10, src=3, dst=4, src_next=11, ghost=True),
        "030a0000000000000003000000000000000400000000000000ffffffffffffffff"
        "0b00000000000000ffffffffffffffffffffffffffffffffffffffffffffffff",
    ),
    (
        PropertyCodec(),
        5,
        PropertyRecord(prop_id=5, owner_id=7, next_prop=2, key_blob=0, value_blob=1),
        "01050000000000000007000000000000000200000000000000"
        "00000000000000000100000000000000",
    ),
    (
        _ChunkCodec(),
        3,
        (True, 3, 4, b"hermes"),
        "010300000000000000040000000000000006006865726d6573" + "00" * 39,
    ),
]


@pytest.mark.parametrize("codec,record_id,record,golden", GOLDEN)
def test_packed_bytes_are_the_golden_bytes(codec, record_id, record, golden):
    payload = codec.pack(record)
    assert payload.hex() == golden
    assert len(payload) == codec.record_size
    assert codec.unpack(payload) == record
    assert codec.unpack(bytes.fromhex(golden)) == record
    assert codec.header(payload) == (True, record_id)


def build_pinned_store() -> GraphStore:
    """The build sequence that produced ``fixtures/pinned_store``: every
    kind of record, multi-chunk blobs, slot reuse after deletes, ghosts,
    an unavailable node, detach/attach and a re-striped id space."""
    store = GraphStore(server_id=1, num_servers=3)
    for node_id in range(6):
        store.create_node(node_id, weight=4.5 if node_id == 2 else 1.0 + node_id / 4)
    store.create_node(40, weight=2.5, properties={"name": "forty", "tags": ["a", "b"]})
    store.set_node_property(0, "bio", "x" * 150)
    rels = []
    for src, dst in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (4, 0), (40, 5)]:
        rel_id = store.allocate_rel_id()
        store.create_relationship(rel_id, src, dst)
        rels.append(rel_id)
    store.create_relationship(1001, 5, 77, properties={"since": 2015, "w": 0.5})
    store.create_relationship(1002, 88, 4, ghost=True)
    store.set_relationship_property(rels[0], "kind", "friend")
    store.delete_relationship(rels[2])
    store.detach_endpoint(rels[4], 3)
    store.attach_endpoint(rels[4], 3)
    store.set_ghost(rels[3], True)
    store.set_available(4, False)
    store.remove_node_property(40, "name")
    store.delete_node(1)
    store.create_node(9)
    store.create_relationship(store.allocate_rel_id(), 9, 0)
    return store


def logical_content(store: GraphStore):
    nodes = {
        node_id: (store.node(node_id), store.node_image(node_id))
        for node_id in store.node_ids()
    }
    rels = {
        record.rel_id: (record, store.relationship_image(record.rel_id))
        for record in store.relationships.records()
    }
    return nodes, rels, store.allocator_state()


def test_same_build_sequence_saves_byte_identical_files(tmp_path):
    directory = str(tmp_path / "db")
    build_pinned_store().save(directory)
    match, mismatch, errors = filecmp.cmpfiles(
        PINNED_STORE, directory, STORE_FILES, shallow=False
    )
    assert (sorted(match), mismatch, errors) == (sorted(STORE_FILES), [], [])


def test_parent_written_store_loads_and_resaves_unchanged(tmp_path):
    loaded = GraphStore.load(PINNED_STORE)
    assert logical_content(loaded) == logical_content(build_pinned_store())
    assert sorted(loaded.neighbors(0)) == [2, 3, 4, 9]
    assert loaded.node_properties(40) == {"tags": ["a", "b"]}
    assert not loaded.is_available(4)
    directory = str(tmp_path / "resaved")
    loaded.save(directory)
    _, mismatch, errors = filecmp.cmpfiles(
        PINNED_STORE, directory, STORE_FILES, shallow=False
    )
    assert (mismatch, errors) == ([], [])
