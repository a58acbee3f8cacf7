"""Tests for FixedRecordStore, DynamicStore and the ID allocator."""

import pytest

from repro.exceptions import (
    RecordNotFoundError,
    StorageError,
)
from repro.storage.ids import IdAllocator
from repro.storage.node_store import NodeCodec, NodeRecord
from repro.storage.property_store import PropertyCodec
from repro.storage.records import DynamicStore, FixedRecordStore, _ChunkCodec
from repro.storage.relationship_store import RelationshipCodec, RelationshipRecord


class TestIdAllocator:
    def test_monotonic(self):
        allocator = IdAllocator()
        ids = [allocator.allocate() for _ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_striping_never_collides(self):
        a = IdAllocator(stripe=0, num_stripes=3)
        b = IdAllocator(stripe=1, num_stripes=3)
        c = IdAllocator(stripe=2, num_stripes=3)
        ids = set()
        for allocator in (a, b, c):
            for _ in range(50):
                new = allocator.allocate()
                assert new not in ids
                ids.add(new)

    def test_observe_advances(self):
        allocator = IdAllocator(stripe=0, num_stripes=2)
        allocator.observe(100)
        assert allocator.allocate() > 100

    def test_observe_negative(self):
        with pytest.raises(StorageError):
            IdAllocator().observe(-1)

    def test_peek_does_not_advance(self):
        allocator = IdAllocator()
        assert allocator.peek() == allocator.allocate()

    def test_invalid_stripe(self):
        with pytest.raises(StorageError):
            IdAllocator(stripe=3, num_stripes=2)
        with pytest.raises(StorageError):
            IdAllocator(num_stripes=0)


class TestFixedRecordStore:
    def make_store(self):
        return FixedRecordStore(NodeCodec())

    def record(self, node_id, weight=1.0):
        return NodeRecord(node_id=node_id, weight=weight)

    def test_write_read(self):
        store = self.make_store()
        store.write(7, self.record(7, weight=2.5))
        loaded = store.read(7)
        assert loaded.node_id == 7
        assert loaded.weight == 2.5

    def test_update_in_place(self):
        store = self.make_store()
        store.write(7, self.record(7, weight=1.0))
        store.write(7, self.record(7, weight=9.0))
        assert store.read(7).weight == 9.0
        assert len(store) == 1

    def test_read_missing(self):
        with pytest.raises(RecordNotFoundError):
            self.make_store().read(1)

    def test_delete_and_slot_reuse(self):
        store = self.make_store()
        for i in range(10):
            store.write(i, self.record(i))
        store.delete(3)
        assert 3 not in store
        with pytest.raises(RecordNotFoundError):
            store.read(3)
        # New record reuses the freed slot: page count unchanged.
        pages_before = store.pages.num_pages
        store.write(100, self.record(100))
        assert store.pages.num_pages == pages_before

    def test_ids_sorted(self):
        store = self.make_store()
        for i in (5, 1, 9):
            store.write(i, self.record(i))
        assert list(store.ids()) == [1, 5, 9]
        assert store.max_id() == 9

    def test_many_records_span_pages(self):
        store = self.make_store()
        for i in range(1000):
            store.write(i, self.record(i, weight=float(i)))
        assert store.pages.num_pages > 1
        assert store.read(999).weight == 999.0

    def test_persistence_rebuilds_index(self, tmp_path):
        store = self.make_store()
        for i in range(50):
            store.write(i, self.record(i, weight=float(i)))
        store.delete(10)
        path = str(tmp_path / "nodes.bin")
        store.save(path)
        loaded = FixedRecordStore.load(path, NodeCodec())
        assert len(loaded) == 49
        assert loaded.read(49).weight == 49.0
        assert 10 not in loaded
        # Freed slots found during the scan are reusable.
        loaded.write(500, self.record(500))
        assert loaded.read(500).node_id == 500


class TestWriteIsAllOrNothing:
    """A write that cannot be stored raises ``StorageError`` before it
    touches the index, the free list, a page or the log's change set."""

    def make_store(self):
        """Records 0, 1 and 3 in use, record 2's slot on the free list,
        a log change set attached and empty."""
        store = FixedRecordStore(NodeCodec())
        for node_id in range(4):
            store.write(node_id, NodeRecord(node_id=node_id, first_rel=10 + node_id))
        store.delete(2)
        store.changed = set()
        return store

    def state(self, store):
        return (
            len(store),
            list(store.ids()),
            [bytes(page) for page in store.pages.buffers],
            list(store._free_slots),
            store._next_slot,
            set(store.changed),
        )

    def assert_refused(self, store, record_id, record):
        before = self.state(store)
        with pytest.raises(StorageError):
            store.write(record_id, record)
        assert self.state(store) == before

    def test_a_field_out_of_range_creates_nothing(self):
        store = self.make_store()
        self.assert_refused(store, 5, NodeRecord(node_id=5, first_rel=2**63))
        assert 5 not in store
        assert store.get(5) is None

    def test_a_failed_update_keeps_the_old_record(self):
        store = self.make_store()
        old = store.read(1)
        self.assert_refused(store, 1, NodeRecord(node_id=1, first_rel=99, weight="x"))
        assert store.read(1) == old

    def test_a_record_carrying_another_id_is_refused(self):
        store = self.make_store()
        self.assert_refused(store, 5, NodeRecord(node_id=6))
        self.assert_refused(store, 1, NodeRecord(node_id=3))
        assert store.read(1).node_id == 1


class TestWriteColumns:
    """The page writer of an empty store against its slot writer."""

    @pytest.mark.parametrize(
        "codec", [NodeCodec(), RelationshipCodec(), PropertyCodec(), _ChunkCodec()],
        ids=["node", "relationship", "property", "chunk"],
    )
    def test_the_numpy_record_type_is_the_struct_layout(self, codec):
        assert codec.dtype.itemsize == codec.record_size
        assert len(codec.dtype.names) == len(codec.layout.unpack(bytes(codec.record_size)))

    @pytest.mark.parametrize("count", [0, 1, 123, 124, 125, 248])
    def test_columns_leave_what_one_slot_write_per_record_leaves(self, count):
        """Records 0..count-1 in scrambled id order; 124 node slots fill
        a 4 KiB page exactly."""
        ids = [(7 * i) % 251 + 1000 for i in range(count)]
        records = [
            NodeRecord(node_id=v, first_rel=v * 3, first_prop=-1, weight=v / 7)
            for v in ids
        ]
        by_slot = FixedRecordStore(NodeCodec())
        by_slot.changed = set()
        for record in records:
            by_slot.write(record.node_id, record)
        by_page = FixedRecordStore(NodeCodec())
        by_page.changed = set()
        by_page.write_columns(
            list(zip(*(by_page.codec.encode(record) for record in records)))
            or [[]] * 5
        )
        for store in (by_slot, by_page):
            assert store.pages.num_pages == -(-count // store.slots_per_page)
        assert [bytes(page) for page in by_page.pages.buffers] == [
            bytes(page) for page in by_slot.pages.buffers
        ]
        assert sorted(by_page._index.items()) == sorted(by_slot._index.items())
        assert (by_page._next_slot, by_page._free_slots) == (count, [])
        assert by_page.changed == by_slot.changed
        assert list(by_page.records()) == sorted(records) and len(by_page) == count

    def test_a_relationship_store_by_columns(self):
        record = RelationshipRecord(9, 1, 2, 4, -1, 5, -1, -1, ghost=True)
        store = FixedRecordStore(RelationshipCodec())
        store.write_columns([[field] for field in store.codec.encode(record)])
        assert store.read(9) == record


class TestDynamicStore:
    def test_small_blob(self):
        store = DynamicStore()
        head = store.store(b"tiny")
        assert store.fetch(head) == b"tiny"

    def test_empty_blob(self):
        store = DynamicStore()
        head = store.store(b"")
        assert store.fetch(head) == b""

    def test_multi_chunk_blob(self):
        store = DynamicStore()
        blob = bytes(range(256)) * 4  # 1 KiB: several 64-byte chunks
        head = store.store(blob)
        assert store.fetch(head) == blob
        assert store.num_chunks > 10

    def test_free_releases_chunks(self):
        store = DynamicStore()
        head = store.store(b"x" * 500)
        chunks = store.num_chunks
        assert chunks > 1
        store.free(head)
        assert store.num_chunks == 0

    def test_interleaved_blobs(self):
        store = DynamicStore()
        heads = [store.store(bytes([i]) * (i * 30 + 1)) for i in range(10)]
        for i, head in enumerate(heads):
            assert store.fetch(head) == bytes([i]) * (i * 30 + 1)

    def test_persistence(self, tmp_path):
        store = DynamicStore()
        blob = b"persistent data " * 20
        head = store.store(blob)
        path = str(tmp_path / "dyn.bin")
        store.save(path)
        loaded = DynamicStore.load(path)
        assert loaded.fetch(head) == blob
        # New blobs get fresh chunk IDs after reload.
        other = loaded.store(b"more")
        assert other != head
        assert loaded.fetch(other) == b"more"
