"""Per-server write-ahead logging and crash recovery.

Each server of a durable cluster keeps a :class:`ServerJournal`: the
:class:`~repro.storage.wal.WriteAheadLog` of its own
:class:`~repro.storage.graph_store.GraphStore` and the page images of its
last checkpoint.  Nothing is kept twice — the log holds the after-images
of the record-store slots the server actually wrote.

* **Logging.**  Attaching a journal gives the store's four record stores
  (nodes, relationships, property index, dynamic chunks) one shared
  change set, which ``FixedRecordStore.write`` / ``delete`` fill with
  ``(store tag, slot)`` keys.  The changed slots are the server's *open
  transaction*.
* **Committing.**  :meth:`ServerJournal.commit` writes the open
  transaction as one frame — the allocator state plus every changed
  slot's image — and flushes once; nothing is written when no slot
  changed.  The cluster commits through :func:`commit_all` at the
  boundary of every logical operation: the end of a public read or write
  (also when it raised, so a fault-rolled-back write commits its
  compensating writes), each step a migration yields (one copied vertex
  on its target, one removal on its source) and each event of the
  concurrent engine.  One operation is one flushed transaction per
  server it touched.
* **Checkpointing.**  :meth:`ServerJournal.attach` copies the store's
  pages as the recovery baseline and truncates the log.  A bulk load
  writes the stores without committing and then checkpoints once per
  server, as Neo4j's batch importer does, so loading logs nothing.
* **Crash and recovery.**  :meth:`ServerJournal.crash` drops the
  unflushed log tail (optionally keeping a torn prefix of it);
  :meth:`ServerJournal.rebuild` copies the checkpoint pages, redoes every
  committed frame into them in log order, rebuilds each store's index and
  free list by scan and restores the allocators from the last frame.
  The pre-crash chains come back as they were: nothing is re-derived.

Redo-only is enough (DESIGN.md §14): pages reach stable storage only at a
checkpoint, checkpoints are taken with no transaction open, and a
transaction enters the log whole when it commits — the durable log never
holds a loser to undo.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from repro.storage.graph_store import GraphStore
from repro.storage.pages import PagedFile
from repro.storage.records import SLOT_BITS
from repro.storage.wal import AllocatorState, WriteAheadLog, encode_transaction, redo


def logical_store_snapshot(store: GraphStore) -> Dict[str, Dict[int, Any]]:
    """Pointer-free logical content of a live graph store.

    The canonical shape compared by the recovery-fidelity invariant:
    chain order and property record ids are physical artifacts and are
    deliberately absent.
    """
    nodes = {
        node_id: store.node_image(node_id) for node_id in sorted(store.node_ids())
    }
    rels = {}
    for record in store.relationships.records():
        rels[record.rel_id] = store.relationship_image(record.rel_id)
    return {"nodes": nodes, "rels": dict(sorted(rels.items()))}


def _copy_pages(files: Sequence[PagedFile]) -> List[PagedFile]:
    copies = []
    for paged in files:
        copy = PagedFile(paged.page_size)
        copy.buffers.extend(bytearray(page) for page in paged.buffers)
        copies.append(copy)
    return copies


def _allocators(store: GraphStore) -> AllocatorState:
    state = store.allocator_state()
    return state["num_stripes"], state["rel_counter"], state["prop_counter"]


class ServerJournal:
    """The write-ahead log and last checkpoint of one server's store."""

    def __init__(self, store: GraphStore) -> None:
        self.wal = WriteAheadLog()
        self.attach(store)

    def attach(self, store: GraphStore) -> None:
        """Log ``store`` from now on, starting from a checkpoint of its
        current pages (any open transaction is folded into it)."""
        self.store = store
        self._stores = store.record_stores()
        #: the open transaction: ``tag << SLOT_BITS | slot`` per changed slot
        self.changed = set()
        for tag, record_store in enumerate(self._stores):
            record_store.changed = self.changed
            record_store.log_key = tag << SLOT_BITS
        self._pages = _copy_pages([stored.pages for stored in self._stores])
        self._allocators = _allocators(store)
        self.wal.truncate()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Write the open transaction as one flushed frame (nothing when
        no slot changed)."""
        if self.changed:
            self._write_frame()

    def note_meta(self) -> None:
        """Commit now, even with no slot changed: the frame carries the
        allocator state (an id-generation rebase changes no page)."""
        self._write_frame()

    def _write_frame(self) -> None:
        mask = (1 << SLOT_BITS) - 1
        entries = []
        for key in sorted(self.changed):
            tag, slot = key >> SLOT_BITS, key & mask
            entries.append((tag, slot, self._stores[tag].slot_image(slot)))
        self.changed.clear()
        self.wal.append(encode_transaction(_allocators(self.store), entries))
        self.wal.flush()

    # Trace anchors: the wall-clock benchmark's trace targets name these
    # four methods, so they stay defined; nothing calls them.  The log's
    # cost is timed under WriteAheadLog.append / flush.
    def node_changed(self, node_id: int) -> None:
        """Trace anchor only: slot writes reach the log as change sets."""

    def node_removed(self, node_id: int) -> None:
        """Trace anchor only: slot writes reach the log as change sets."""

    def rel_changed(self, rel_id: int) -> None:
        """Trace anchor only: slot writes reach the log as change sets."""

    def rel_removed(self, rel_id: int) -> None:
        """Trace anchor only: slot writes reach the log as change sets."""

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self, keep_unflushed_bytes: int = 0) -> None:
        """Power loss: the page cache and the unflushed log tail are gone
        (but for a torn prefix of ``keep_unflushed_bytes``).  Crashes
        fall between operations, so no transaction may be open."""
        assert not self.changed, "crash inside an open log transaction"
        self.wal.simulate_crash(keep_unflushed_bytes)

    def rebuild(self, server_id: int) -> GraphStore:
        """The store restart recovery produces: the checkpoint pages with
        every committed frame redone into them, in log order."""
        files = _copy_pages(self._pages)
        allocators = self._allocators
        for payload in self.wal.frames():
            allocators = redo(payload, files)
        return GraphStore.from_pages(server_id, files, *allocators)


def commit_all(servers: Iterable[Any]) -> None:
    """Commit every server's open transaction — the one commit point of
    the cluster's operation boundaries.  Servers without a journal (a
    cluster built without durability) are skipped."""
    for server in servers:
        if server.journal is not None:
            server.journal.commit()
