"""Failure-injection tests: corruption, partial writes, bad inputs.

A production storage engine must fail loudly and precisely when its
persisted state is damaged, and must never let an error corrupt the
in-memory structures that survive it.
"""

import os

import pytest

from repro.exceptions import (
    RecordDeletedError,
    StorageError,
    StoreCorruptionError,
)
from repro.storage.graph_store import GraphStore
from repro.storage.node_store import NodeCodec, NodeRecord
from repro.storage.pages import PagedFile
from repro.storage.records import FixedRecordStore


def populated_store():
    store = GraphStore()
    for i in range(8):
        store.create_node(i, properties={"name": f"user{i}"})
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        store.create_relationship(store.allocate_rel_id(), u, v)
    return store


class TestCorruptedFiles:
    def test_flipped_bit_in_any_store_detected(self, tmp_path):
        store = populated_store()
        directory = str(tmp_path / "db")
        store.save(directory)
        for filename in (
            "nodes.store",
            "relationships.store",
            "properties.store",
            "dynamic.store",
        ):
            path = os.path.join(directory, filename)
            raw = bytearray(open(path, "rb").read())
            backup = bytes(raw)
            raw[len(raw) // 2] ^= 0x01
            open(path, "wb").write(bytes(raw))
            with pytest.raises(StoreCorruptionError):
                GraphStore.load(directory)
            open(path, "wb").write(backup)  # restore for the next round
        # After restoring everything, the load succeeds again.
        reloaded = GraphStore.load(directory)
        assert reloaded.node_properties(0) == {"name": "user0"}

    def test_truncated_store_file(self, tmp_path):
        store = populated_store()
        directory = str(tmp_path / "db")
        store.save(directory)
        path = os.path.join(directory, "nodes.store")
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        with pytest.raises(StoreCorruptionError):
            GraphStore.load(directory)

    def test_missing_meta(self, tmp_path):
        store = populated_store()
        directory = str(tmp_path / "db")
        store.save(directory)
        os.remove(os.path.join(directory, "meta.json"))
        with pytest.raises(FileNotFoundError):
            GraphStore.load(directory)


class TestDuplicateRecordScan:
    def test_duplicate_ids_detected_on_rebuild(self):
        """Two in-use slots claiming the same record ID is corruption."""
        paged = PagedFile()
        codec = NodeCodec()
        paged.allocate_page()
        payload = codec.pack(NodeRecord(node_id=7))
        paged.write(0, 0, payload)
        paged.write(0, codec.record_size, payload)  # duplicate!
        with pytest.raises(StorageError, match="duplicate"):
            FixedRecordStore(codec, paged_file=paged)


class TestIndexSlotDisagreement:
    """The id->slot index and the slot's own bytes must tell one story."""

    def make_store(self):
        store = FixedRecordStore(NodeCodec())
        for node_id in (1, 2, 3):
            store.write(node_id, NodeRecord(node_id=node_id, weight=float(node_id)))
        return store

    def test_index_entry_pointing_at_another_records_slot(self):
        """Every slot stores its record's id; a read that lands on a slot
        holding a different id is corruption, not an answer."""
        store = self.make_store()
        store._index[1] = store._index[2]
        with pytest.raises(StoreCorruptionError, match="record 2"):
            store.read(1)
        with pytest.raises(StoreCorruptionError):
            store.get(1)
        assert store.read(2).weight == 2.0  # the slot's owner still reads

    def test_index_entry_pointing_at_a_zeroed_slot(self):
        store = self.make_store()
        slot = store._index.get(3)
        page, index = divmod(slot, store.slots_per_page)
        size = store.codec.record_size
        store.pages.write(page, index * size, bytes(size))
        with pytest.raises(RecordDeletedError):
            store.read(3)


class TestChainCycleGuard:
    def test_cyclic_chain_detected(self):
        """A (manually corrupted) cyclic relationship chain must raise,
        not loop forever."""
        store = GraphStore()
        store.create_node(0)
        store.create_node(1)
        store.create_node(2)
        r1 = store.create_relationship(store.allocate_rel_id(), 0, 1)
        r2 = store.create_relationship(store.allocate_rel_id(), 0, 2)
        # Corrupt: make r1 point back to r2 in 0's chain (r2 -> r1 -> r2).
        record = store.relationships.read(r1.rel_id)
        store.relationships.write(record.with_next_for(0, r2.rel_id))
        with pytest.raises(StorageError, match="cyclic"):
            list(store.neighbor_entries(0))

    def test_cyclic_dynamic_chain_detected(self):
        from repro.storage.records import DynamicStore

        dynamic = DynamicStore()
        head = dynamic.store(b"x" * 200)
        # Corrupt the second chunk to point back at the head.
        in_use, chunk_id, next_chunk, payload = dynamic._store.read(head)
        dynamic._store.write(head, (in_use, chunk_id, head, payload))
        with pytest.raises(StorageError, match="cyclic"):
            dynamic.fetch(head)


class TestErrorsDoNotCorruptState:
    def test_failed_relationship_leaves_chains_intact(self):
        store = GraphStore()
        store.create_node(0)
        store.create_node(1)
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1)
        with pytest.raises(StorageError):
            store.create_relationship(rel.rel_id, 0, 1)  # duplicate ID
        assert store.neighbors(0) == [1]
        assert store.neighbors(1) == [0]

    def test_failed_property_on_ghost_leaves_record_clean(self):
        store = GraphStore()
        store.create_node(0)
        ghost = store.create_relationship(store.allocate_rel_id(), 0, 99, ghost=True)
        with pytest.raises(StorageError):
            store.set_relationship_property(ghost.rel_id, "k", "v")
        assert store.relationship(ghost.rel_id).first_prop == -1
