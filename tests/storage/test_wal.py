"""Tests for the write-ahead log: framing, slot-image transactions, redo."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RecordNotFoundError, StorageError
from repro.storage.node_store import NodeRecord, NodeStore
from repro.storage.pages import PagedFile
from repro.storage.wal import WriteAheadLog, encode_transaction, redo


def node(node_id, weight=1.0):
    return NodeRecord(node_id=node_id, weight=weight)


class LoggedNodes:
    """A node store with a write-ahead log attached — the storage half of
    ``cluster.durability.ServerJournal`` for one record store: commit =
    one flushed frame of the changed slots, crash = page cache and
    unflushed tail lost, recovery = checkpoint pages + redo."""

    def __init__(self, page_size=128):
        self.page_size = page_size
        self.wal = WriteAheadLog()
        self.store = NodeStore(PagedFile(page_size))
        self.checkpoint()

    def checkpoint(self):
        self.store.changed = set()
        self._pages = [bytes(page) for page in self.store.pages.buffers]
        self.wal.truncate()

    def frame(self):
        changed = sorted(self.store.changed)
        entries = [(0, slot, self.store.slot_image(slot)) for slot in changed]
        self.store.changed.clear()
        return encode_transaction((1, 0, 0), entries)

    def commit(self):
        self.wal.append(self.frame())
        self.wal.flush()

    def crash_and_recover(self, keep_unflushed_bytes=0):
        self.wal.simulate_crash(keep_unflushed_bytes)
        paged = PagedFile(self.page_size)
        paged.buffers.extend(bytearray(page) for page in self._pages)
        for payload in self.wal.frames():
            redo(payload, [paged])
        self.store = NodeStore(paged)
        self.store.changed = set()


class TestLogFraming:
    def test_append_and_iterate(self):
        log = WriteAheadLog()
        log.append(b"first")
        log.append(b"")
        log.append(b"xyz")
        assert list(log.frames()) == [b"first", b"", b"xyz"]
        assert len(log) == 3

    def test_torn_tail_ignored(self):
        log = WriteAheadLog()
        log.append(b"committed")
        log.flush()
        log.append(b"in flight")
        # Crash keeps only 3 bytes of the unflushed frame.
        log.simulate_crash(keep_unflushed_bytes=3)
        assert list(log.frames()) == [b"committed"]

    def test_corrupt_frame_stops_iteration(self):
        log = WriteAheadLog()
        log.append(b"one")
        log.append(b"two")
        log._buffer[-1] ^= 0xFF
        assert list(log.frames()) == [b"one"]

    def test_file_persistence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(b"durable")
        log.flush()
        reopened = WriteAheadLog(path)
        assert list(reopened.frames()) == [b"durable"]

    def test_truncate(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(b"x")
        log.flush()
        log.truncate()
        assert len(log) == 0
        assert len(WriteAheadLog(path)) == 0


class TestRedo:
    def test_frame_round_trip_grows_pages(self):
        paged = PagedFile(128)
        image = NodeStore().codec.pack(node(9, weight=4.0))
        slots_per_page = 128 // len(image)
        payload = encode_transaction((3, 7, 11), [(0, 2 * slots_per_page + 1, image)])
        assert redo(payload, [paged]) == (3, 7, 11)
        assert paged.num_pages == 3
        assert NodeStore(paged).read(9).weight == 4.0
        redo(payload, [paged])  # absolute images: replay is idempotent
        assert paged.num_pages == 3 and len(NodeStore(paged)) == 1

    @pytest.mark.parametrize("cut", [1, 30, 35])
    def test_malformed_frame_is_rejected(self, cut):
        image = NodeStore().codec.pack(node(1))
        payload = encode_transaction((1, 0, 0), [(0, 0, image)])
        with pytest.raises(StorageError):
            redo(payload[:cut], [PagedFile(128)])

    def test_unknown_store_tag_is_rejected(self):
        image = NodeStore().codec.pack(node(1))
        with pytest.raises(StorageError):
            redo(encode_transaction((1, 0, 0), [(3, 0, image)]), [PagedFile(128)])


class TestDurableRecordStore:
    """A fixed record store with a log attached (:class:`LoggedNodes`)."""

    def test_commit_persists(self):
        logged = LoggedNodes()
        logged.store.write(node(1, weight=2.0))
        logged.commit()
        logged.crash_and_recover()
        assert logged.store.read(1).weight == 2.0

    def test_delete_logged(self):
        logged = LoggedNodes()
        logged.store.write(node(1))
        logged.commit()
        logged.store.delete(1)
        logged.commit()
        logged.crash_and_recover()
        assert 1 not in logged.store

    def test_delete_missing(self):
        logged = LoggedNodes()
        with pytest.raises(RecordNotFoundError):
            logged.store.delete(99)
        assert not logged.store.changed  # nothing to commit

    def test_crash_before_commit_rolls_back(self):
        logged = LoggedNodes()
        logged.store.write(node(1, weight=2.0))
        logged.commit()
        logged.store.write(node(1, weight=7.0))
        logged.store.write(node(2))
        # Crash without commit: the open transaction never reached the
        # log and the page cache is gone, so recovery replays only the
        # committed history onto the last-checkpoint page state.
        logged.crash_and_recover()
        assert logged.store.read(1).weight == 2.0
        assert 2 not in logged.store

    def test_committed_work_survives_crash(self):
        logged = LoggedNodes()
        for i in range(5):
            logged.store.write(node(i, weight=float(i)))
            logged.commit()
        logged.crash_and_recover()
        for i in range(5):
            assert logged.store.read(i).weight == float(i)

    def test_checkpoint_truncates_log(self):
        logged = LoggedNodes()
        logged.store.write(node(1))
        logged.commit()
        logged.checkpoint()
        assert logged.wal.size_bytes == 0
        logged.crash_and_recover()
        assert 1 in logged.store

    def test_recovery_restores_from_log_only(self):
        """Empty checkpoint pages + the log reproduce committed state."""
        logged = LoggedNodes()
        logged.store.write(node(1, weight=3.0))
        logged.store.write(node(2, weight=4.0))
        logged.commit()
        assert logged._pages == []
        logged.crash_and_recover()
        assert logged.store.read(1).weight == 3.0
        assert logged.store.read(2).weight == 4.0

    def test_one_frame_per_transaction_with_final_images(self):
        """A slot written twice in one transaction is logged once, with
        the image it holds at commit."""
        logged = LoggedNodes()
        logged.store.write(node(1, weight=1.0))
        logged.store.write(node(1, weight=5.0))
        logged.store.write(node(2))
        logged.commit()
        assert len(logged.wal) == 1
        assert not logged.store.changed
        logged.crash_and_recover()
        assert logged.store.read(1).weight == 5.0


@given(
    st.lists(
        st.tuples(
            st.integers(0, 40),  # record id (ids past one page grow the file)
            st.integers(1, 100),  # weight
            st.booleans(),  # delete instead of write (when present)
            st.booleans(),  # commit after this operation?
        ),
        min_size=1,
        max_size=24,
    ),
    st.integers(0, 80),
)
@settings(max_examples=60, deadline=None)
def test_recovery_equals_committed_prefix(operations, crash_tail):
    """Property: after a crash, the recovered store holds exactly the
    state of the last durable commit — plus the in-flight commit when
    its whole frame survived the crash, never a torn part of it."""
    logged = LoggedNodes()
    live = {}
    committed = {}
    for record_id, weight, delete, commit in operations:
        if delete and record_id in live:
            logged.store.delete(record_id)
            del live[record_id]
        else:
            logged.store.write(node(record_id, weight=float(weight)))
            live[record_id] = float(weight)
        if commit:
            logged.commit()
            committed = dict(live)
    frame = logged.frame()  # the open transaction, appended but not flushed
    logged.wal.append(frame)
    if crash_tail >= len(frame) + 8:  # the whole frame, header included
        committed = dict(live)
    logged.crash_and_recover(keep_unflushed_bytes=crash_tail)
    assert {
        record_id: logged.store.read(record_id).weight
        for record_id in logged.store.ids()
    } == committed
