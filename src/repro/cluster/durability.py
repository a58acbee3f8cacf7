"""Per-server durability journal for crash-recovery episodes.

Each server that runs with durability enabled keeps a :class:`ServerJournal`:
a WAL-protected logical image of its :class:`~repro.storage.graph_store.GraphStore`,
built on :class:`~repro.storage.durable.DurableRecordStore` with an injected
dict-backed store and a JSON codec.  The journal observes every *logical*
mutation of the graph store (node/relationship content — never the derived
chain pointers) and writes it as one auto-committed, flushed transaction, so
the durable image always equals the logical store state at step boundaries.

A crash episode then is:

1. ``crash()`` — lose the page cache and the unflushed WAL tail, replay the
   durable log (redo + undo-losers via :func:`repro.storage.wal.recover`);
2. ``rebuild(server_id)`` — grow a fresh :class:`GraphStore` from the
   recovered image: nodes first (weight, availability, properties), then
   relationships in id order, which re-derives the adjacency chains from
   node locality exactly as the original ingest did.

Record key scheme inside the journal's record store::

    node  n  ->  key  2*n
    rel   r  ->  key  2*r + 1
    meta     ->  key  -2        (allocator counters + stripe count)
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, Optional

from repro.exceptions import RecordNotFoundError
from repro.storage.durable import DurableRecordStore
from repro.storage.graph_store import GraphStore
from repro.storage.wal import RecoveryReport

#: journal key of the allocator-state record
META_RECORD = -2


class _ImageCodec:
    """JSON logical images — variable length, canonical key order.

    Only the ``pack``/``unpack`` half of the codec surface: images are
    never placed in fixed page slots, so there is no struct layout.
    """

    def pack(self, record: Any) -> bytes:
        return json.dumps(record, sort_keys=True).encode("utf-8")

    def unpack(self, payload: bytes) -> Any:
        return json.loads(payload.decode("utf-8"))


class _DictStore:
    """Dict-backed record store with the FixedRecordStore surface the
    durable layer uses (write/read/delete/contains/len/ids)."""

    def __init__(self, codec: Optional[_ImageCodec] = None):
        self.codec = codec
        self._records: Dict[int, Any] = {}

    def write(self, record_id: int, record: Any) -> None:
        self._records[record_id] = record

    def read(self, record_id: int) -> Any:
        try:
            return self._records[record_id]
        except KeyError:
            raise RecordNotFoundError(f"record {record_id} not found")

    def delete(self, record_id: int) -> None:
        if record_id not in self._records:
            raise RecordNotFoundError(f"record {record_id} not found")
        del self._records[record_id]

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def ids(self) -> Iterator[int]:
        return iter(sorted(self._records))


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


class ServerJournal:
    """WAL-backed logical journal of one server's graph store."""

    def __init__(self) -> None:
        self.durable = DurableRecordStore(_ImageCodec(), store=_DictStore())
        self.graph: Optional[GraphStore] = None

    # ------------------------------------------------------------------
    # Attachment / baseline
    # ------------------------------------------------------------------
    def attach(self, graph: GraphStore) -> None:
        """Start observing ``graph``; journal its current state as the
        baseline and checkpoint so an immediate crash recovers it."""
        self.graph = graph
        graph.observer = self
        with self.durable.begin() as txn:
            for node_id in sorted(graph.node_ids()):
                txn.write(2 * node_id, graph.node_image(node_id))
            for record in graph.relationships.records():
                txn.write(
                    2 * record.rel_id + 1, graph.relationship_image(record.rel_id)
                )
            txn.write(META_RECORD, graph.allocator_state())
        self.durable.checkpoint()

    def detach(self) -> None:
        if self.graph is not None and self.graph.observer is self:
            self.graph.observer = None
        self.graph = None

    # ------------------------------------------------------------------
    # GraphStore observer protocol — one flushed txn per logical mutation
    # ------------------------------------------------------------------
    def _txn_put(self, key: int, image: Any) -> None:
        with self.durable.begin() as txn:
            txn.write(key, image)
            txn.write(META_RECORD, self.graph.allocator_state())

    def _txn_delete(self, key: int) -> None:
        with self.durable.begin() as txn:
            if key in self.durable:
                txn.delete(key)
            txn.write(META_RECORD, self.graph.allocator_state())

    def node_changed(self, node_id: int) -> None:
        self._txn_put(2 * node_id, self.graph.node_image(node_id))

    def node_removed(self, node_id: int) -> None:
        self._txn_delete(2 * node_id)

    def rel_changed(self, rel_id: int) -> None:
        self._txn_put(2 * rel_id + 1, self.graph.relationship_image(rel_id))

    def rel_removed(self, rel_id: int) -> None:
        self._txn_delete(2 * rel_id + 1)

    def note_meta(self) -> None:
        """Persist allocator state alone (after an id-generation rebase)."""
        with self.durable.begin() as txn:
            txn.write(META_RECORD, self.graph.allocator_state())

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self, keep_unflushed_bytes: int = 0) -> RecoveryReport:
        """Simulate a crash + restart recovery of the journal itself.

        Afterwards the journal's record store holds exactly the durable
        pre-crash image (every journal txn commits at a step boundary, so
        with ``keep_unflushed_bytes=0`` nothing is lost)."""
        return self.durable.simulate_crash_and_recover(keep_unflushed_bytes)

    def snapshot(self) -> Dict[str, Dict[int, Any]]:
        """Logical image currently held by the (recovered) journal."""
        nodes: Dict[int, Any] = {}
        rels: Dict[int, Any] = {}
        for key in self.durable.ids():
            if key == META_RECORD:
                continue
            image = self.durable.read(key)
            if key % 2 == 0:
                nodes[key // 2] = image
            else:
                rels[(key - 1) // 2] = image
        return {"nodes": dict(sorted(nodes.items())), "rels": dict(sorted(rels.items()))}

    def meta(self) -> Dict[str, int]:
        if META_RECORD in self.durable:
            return dict(self.durable.read(META_RECORD))
        return {"num_stripes": 1, "rel_counter": 0, "prop_counter": 0}

    def rebuild(self, server_id: int) -> GraphStore:
        """Grow a fresh GraphStore from the recovered journal image."""
        meta = self.meta()
        image = self.snapshot()
        store = GraphStore(server_id=server_id, num_servers=meta["num_stripes"])
        unavailable = []
        for node_id, node in image["nodes"].items():
            store.create_node(node_id, weight=node["weight"], properties=node["properties"])
            if not node["available"]:
                unavailable.append(node_id)
        for rel_id, rel in image["rels"].items():
            store.create_relationship(
                rel_id,
                rel["src"],
                rel["dst"],
                ghost=rel["ghost"],
                properties=rel["properties"] or None,
            )
        for node_id in unavailable:
            store.set_available(node_id, False)
        # Exact allocator positions: the journaled counters, or higher if
        # the rebuild's own property allocations already moved past them.
        current = store.allocator_state()
        store.set_allocator_state(
            meta["num_stripes"],
            max(meta["rel_counter"], current["rel_counter"]),
            max(meta["prop_counter"], current["prop_counter"]),
        )
        return store
