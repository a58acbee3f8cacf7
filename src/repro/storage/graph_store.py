"""GraphStore: the per-server storage engine facade (paper Section 4).

One ``GraphStore`` is the local database of one Hermes server.  It owns a
node store, a relationship store and a property store, and maintains:

* the doubly-linked relationship chains of every *local* node — a
  relationship record links into the chain of each endpoint that is
  hosted here; pointers for remote endpoints stay NULL;
* **ghost** relationship records for cross-partition edges, so that the
  adjacency list of a local node is recovered without any network I/O
  ("complete locality in finding the adjacency list of a graph node");
* property chains for nodes and (non-ghost) relationships;
* the node *available* flag used by the migration remove step;
* striped, monotonically increasing ID allocation for relationships and
  properties so no two servers ever mint the same ID.

Record ownership convention for cross-partition relationships: the
partition hosting the relationship's ``src`` endpoint holds the primary
(property-bearing) record; the other side holds the ghost.

Access discipline (DESIGN.md "Storage access path"): a record is reached
through one ``fields``/``get``/``read`` of its store — one index probe,
one in-place unpack — and the caller works from the value it got.  The
read path and the chain writers do not probe for existence and then read,
re-read a record they just built, or walk a chain to learn what a
record's own link fields already say.  The traversal engine's read,
``read_frontier``, answers for a whole list of vertices from raw fields
without building a record object, and without any record access for a
vertex the store already knows to be available.  Two structures hold
what it knows: the **adjacency view** (``adjacency``: node id ->
neighbour ids in chain order), filled on a node's first expansion by the
one chain walk (``_chain_fields``) that ``neighbor_entries`` and
``export_fields`` also consume, and the **availability set**
(``available``), filled by a node's first availability-only answer (a
view entry's too).  Each is filled only after one checked node access
found the node in use and available.  The typed writers drop what a
write may have changed: the node store drops a written or deleted node
from both, the relationship store drops both endpoints' view entries.
A relationship's head insert writes through instead: it grows a local
endpoint's filled entry and drops nothing (DESIGN.md §15).
A 1-hop traversal from a vertex of degree *d* costs 1 + 2d record
accesses cluster-wide the first time and none once the vertex's entry
and its neighbours' answers are warm.
``is_available``, ``node``, ``neighbor_entries``, ``node_properties``
and the mutators remain the per-record boundary for point reads and
single writes.

Bulk paths write more than a record at a time: ``bulk_load`` fills an
empty store from columns and ``import_nodes`` installs a migration
pair's arriving nodes with their chains — each writing every record
once, with its final pointers, a page at a time (``write_columns``) —
and ``delete_node`` dismantles a departing node in one walk of its
chain.  They allocate and free slots, ids and blobs in the order the
per-record mutators would, so the pages they leave are the ones
creating, linking or unlinking one record at a time leaves.

The write side works on raw fields, not records.  ``export_fields``
ships the fields its chain walk read; ``delete_node`` and the chain
links and unlinks it shares with the per-record mutators read a slot
through ``fields``, set its final fields in a list and write it once
through the node or relationship store's ``write_fields`` — the
records' one slot writer — building no ``NodeRecord`` or
``RelationshipRecord`` and no copy of one.  A record of the departing
chain (``held``) is updated in place when a sibling's unlink changes
it, never read back.  The record types are the read side's values:
``node``, ``relationship`` and ``chain`` return them.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from array import array
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.exceptions import (
    RecordNotFoundError,
    StorageError,
    VertexUnavailableError,
)
from repro.storage.ids import IdAllocator
from repro.storage.node_store import (
    FLAG_AVAILABLE,
    NODE_FIRST_PROP,
    NODE_FIRST_REL,
    NODE_FLAGS,
    NODE_ID,
    NODE_IN_USE_AVAILABLE,
    NODE_WEIGHT,
    NodeRecord,
    NodeStore,
)
from repro.storage.pages import PagedFile
from repro.storage.property_store import (
    EncodedProperty,
    PropertyStore,
    encode_properties,
    encode_property,
)
from repro.storage.records import FLAG_IN_USE, NULL_REF, FixedRecordStore
from repro.storage.relationship_store import (
    FLAG_GHOST,
    REL_DST,
    REL_DST_NEXT,
    REL_DST_PREV,
    REL_FIRST_PROP,
    REL_FLAGS,
    REL_ID,
    REL_SRC,
    REL_SRC_NEXT,
    REL_SRC_PREV,
    RelationshipRecord,
    RelationshipStore,
    rel_flags,
)

#: What the slot writes pack from caller-supplied values: a node's id and
#: weight, a relationship's id and endpoints.  Packing them first rejects
#: exactly what those writes would, before anything is written.
_NODE_VALUES = struct.Struct("<qd")
_REL_VALUES = struct.Struct("<3q")


def check_node_values(node_id: Any, weight: Any) -> None:
    """Raise :class:`StorageError` unless ``node_id`` fits a record id
    and ``weight`` is a real number a node record can hold."""
    try:
        _NODE_VALUES.pack(node_id, weight)
    except struct.error as error:
        raise StorageError(
            f"node {node_id!r} with weight {weight!r} cannot be stored: {error}"
        ) from None


def _check_rel_values(rel_id: Any, src: Any, dst: Any) -> None:
    """Raise :class:`StorageError` unless the id and both endpoints of a
    relationship fit a record id and the id is non-negative."""
    try:
        _REL_VALUES.pack(rel_id, src, dst)
    except struct.error as error:
        raise StorageError(
            f"relationship {rel_id!r} ({src!r}, {dst!r}) cannot be stored: {error}"
        ) from None
    if rel_id < 0:
        raise StorageError(f"relationship id {rel_id} is negative")


def record_column(code: str, values: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """``values`` as a column of the record field type ``code`` (``q`` an
    id, ``d`` a weight) and the mask of those a slot write can pack: a
    numpy column of that type as it is, other values packed by ``struct``
    in one call — one by one, a misfit reading 0, only if that fails."""
    kind = np.dtype("<" + code)
    if isinstance(values, np.ndarray) and values.dtype == kind:
        return values, np.ones(len(values), bool)
    try:
        image = struct.pack(f"<{len(values)}{code}", *values)
        return np.frombuffer(image, kind), np.ones(len(values), bool)
    except struct.error:
        layout = struct.Struct("<" + code)
        images = [_pack(layout, value) for value in values]
        fits = np.array([image is not None for image in images], bool)
        image = b"".join(image or bytes(layout.size) for image in images)
        return np.frombuffer(image, kind), fits


def _pack(layout: struct.Struct, value: Any) -> Optional[bytes]:
    """``layout.pack(value)``, or None when the value does not fit."""
    try:
        return layout.pack(value)
    except struct.error:
        return None


def _repeated(ids: np.ndarray) -> np.ndarray:
    """The mask of the ids equal to an earlier one."""
    repeated = np.ones(len(ids), bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    return repeated


def _fields(store: FixedRecordStore, record_id: int) -> Tuple:
    """The raw fields of ``record_id``; raises what ``store.read`` raises
    when there is no such record."""
    fields = store.fields(record_id)
    if fields is None:
        raise RecordNotFoundError(f"record {record_id} not found")
    return fields


def _id_array(ids: List[int]) -> Sequence[int]:
    """Neighbour ids packed as the adjacency view keeps them."""
    try:
        return array("i", ids)
    except OverflowError:
        return array("q", ids)


def _side(rel: Sequence, node_id: int) -> int:
    """Where ``node_id``'s ``prev`` sits in the relationship fields
    ``rel`` (its ``next`` follows): the src or the dst pair."""
    if rel[REL_SRC] == node_id:
        return REL_SRC_PREV
    if rel[REL_DST] == node_id:
        return REL_DST_PREV
    raise StorageError(
        f"node {node_id} is not an endpoint of relationship {rel[REL_ID]}"
    )


class NeighborEntry(NamedTuple):
    """One hop out of a local node's adjacency chain."""

    neighbor: int
    rel_id: int
    ghost: bool


class Export(NamedTuple):
    """One node as the copy step ships it (:meth:`GraphStore.export_fields`)."""

    node_id: int
    weight: float
    properties: Dict[str, Any]
    #: the raw fields ``(flags, id, src, dst, ...)`` of each record of its
    #: chain on the source, head first; an import reads id, src and dst
    chain: List[Sequence]
    #: chain position -> properties of each primary record that has any
    chain_properties: Dict[int, Dict[str, Any]]


@dataclass(frozen=True)
class StoreStats:
    """Size accounting for one server's stores."""

    num_nodes: int
    num_relationships: int
    num_ghost_relationships: int
    num_properties: int
    bytes_nodes: int
    bytes_relationships: int
    bytes_properties: int

    @property
    def total_bytes(self) -> int:
        return self.bytes_nodes + self.bytes_relationships + self.bytes_properties


class GraphStore:
    """The local graph database of one server."""

    def __init__(self, server_id: int = 0, num_servers: int = 1):
        self.server_id = server_id
        #: the adjacency view: node id -> neighbour ids in chain order,
        #: filled by ``read_frontier``, dropped by the record stores' writers
        self.adjacency: Dict[int, Sequence[int]] = {}
        #: the availability set: node ids ``read_frontier`` found available
        #: on an availability-only read, dropped by the node store's writers
        self.available: Set[int] = set()
        self.nodes = NodeStore(adjacency=self.adjacency, available=self.available)
        self.relationships = RelationshipStore(adjacency=self.adjacency)
        self.properties = PropertyStore()
        self._rel_ids = IdAllocator(stripe=server_id, num_stripes=num_servers)
        self._prop_ids = IdAllocator(stripe=server_id, num_stripes=num_servers)

    @classmethod
    def from_pages(
        cls,
        server_id: int,
        files: Sequence[PagedFile],
        num_stripes: int,
        rel_counter: int,
        prop_counter: int,
    ) -> "GraphStore":
        """A store over existing pages (ordered as :meth:`record_stores`),
        each store's index rebuilt by scan, allocators at the given
        positions — reopening a saved store and WAL recovery.  Its
        adjacency view and availability set start empty."""
        store = cls.__new__(cls)
        store.server_id = server_id
        store.adjacency = {}
        store.available = set()
        store.nodes = NodeStore(files[0], store.adjacency, store.available)
        store.relationships = RelationshipStore(files[1], store.adjacency)
        store.properties = PropertyStore(files[2], files[3])
        store.set_allocator_state(num_stripes, rel_counter, prop_counter)
        return store

    def record_stores(self) -> Tuple[FixedRecordStore, ...]:
        """The four record stores the write-ahead log covers, in store-tag
        order: nodes, relationships, property index, dynamic chunks."""
        return (self.nodes, self.relationships) + self.properties.record_stores()

    # ==================================================================
    # Nodes
    # ==================================================================
    def create_node(
        self,
        node_id: int,
        weight: float = 1.0,
        properties: Optional[Dict[str, Any]] = None,
        available: bool = True,
    ) -> NodeRecord:
        """Insert a node with its property chain.  The id is checked and
        every property encoded before the first write, so bad input
        raises :class:`StorageError` with the store untouched."""
        if node_id in self.nodes:
            raise StorageError(f"node {node_id} already exists")
        encoded = encode_properties(properties or {})
        record = NodeRecord(node_id=node_id, weight=weight, available=available)
        self.nodes.write(record)
        if encoded:
            record = record.with_first_prop(self._new_property_chain(node_id, encoded))
            self.nodes.write(record)
        return record

    def has_node(self, node_id: int) -> bool:
        return node_id in self.nodes

    def node(self, node_id: int) -> NodeRecord:
        return self.nodes.read(node_id)

    def is_available(self, node_id: int) -> bool:
        """False for missing nodes and for nodes in the migration
        *unavailable* state — queries treat both identically."""
        record = self.nodes.get(node_id)
        return record is not None and record.available

    def set_available(self, node_id: int, available: bool) -> None:
        node = list(_fields(self.nodes, node_id))
        node[NODE_FLAGS] = NODE_IN_USE_AVAILABLE if available else FLAG_IN_USE
        self.nodes.write_fields(node)

    def _require_available(self, node_id: int) -> NodeRecord:
        return self.nodes.codec.decode(self._available_fields(node_id))

    def _available_fields(self, node_id: int) -> Tuple:
        node = _fields(self.nodes, node_id)
        if not node[NODE_FLAGS] & FLAG_AVAILABLE:
            raise VertexUnavailableError(
                f"node {node_id} is unavailable (being migrated away)"
            )
        return node

    def point_read(self, node_id: int) -> Optional[Dict[str, Any]]:
        """A single-record query served from one fetch of the node record:
        its properties, ``None`` for a missing or unavailable node.
        Nothing is written."""
        record = self.nodes.get(node_id)
        if record is None or not record.available:
            return None
        return self._collect_properties(record.first_prop)

    def delete_node(
        self, node_id: int, stays: Optional[Callable[[int], bool]] = None
    ) -> int:
        """Remove a node with its properties in one walk of its chain;
        returns how many relationship records the walk rewrote or deleted.

        A record whose other endpoint is local and ``stays(other)`` is
        kept for that endpoint — the migration remove step, where an edge
        turns cross-partition: this node's side is NULLed and the record
        becomes a ghost exactly when this node was its ``src`` (the
        primary follows ``src``), dropping its properties.  Every other
        record is unlinked from its other endpoint's chain when that
        endpoint is local, loses its properties and is tombstoned.  With
        no ``stays`` nothing is kept.  This node's own chain is not
        maintained record by record: it goes away with the node.  Slots
        are freed in chain order, so the store ends byte for byte where
        unlinking one record at a time leaves it.

        Each record is read once, by the chain walk, and a kept one
        written once, from those fields; unlinking a record between the
        same two nodes rewrites its siblings' held fields in place, so
        a later sibling is unlinked from current pointers.
        """
        nodes = self.nodes
        relationships = self.relationships
        node = _fields(nodes, node_id)
        chain = [list(rel) for rel in self._chain_fields(node_id, node[NODE_FIRST_REL])]
        held = {rel[REL_ID]: rel for rel in chain}
        for rel in chain:
            src = rel[REL_SRC]
            other = rel[REL_DST] if src == node_id else src
            other_local = other in nodes
            if other_local and stays is not None and stays(other):
                ghost = src == node_id
                if ghost and not rel[REL_FLAGS] & FLAG_GHOST:
                    if rel[REL_FIRST_PROP] != NULL_REF:
                        self._delete_property_chain(rel[REL_FIRST_PROP])
                    rel[REL_FIRST_PROP] = NULL_REF
                rel[REL_FLAGS] = rel_flags(ghost)
                side = REL_SRC_PREV if ghost else REL_DST_PREV
                rel[side] = rel[side + 1] = NULL_REF
                relationships.write_fields(rel)
                continue
            if other_local:
                self._unlink_from_chain(rel, other, held)
            if rel[REL_FIRST_PROP] != NULL_REF:
                self._delete_property_chain(rel[REL_FIRST_PROP])
            relationships.delete_fields(rel)
        if node[NODE_FIRST_PROP] != NULL_REF:
            self._delete_property_chain(node[NODE_FIRST_PROP])
        nodes.delete(node_id)
        return len(chain)

    def node_ids(self) -> Iterator[int]:
        return self.nodes.ids()

    def membership(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """``(available, unavailable)`` node-id sets hosted by this store.

        The store-membership enumeration the simtest auditor compares
        against the catalog: available nodes are the ones this server
        *serves*; unavailable ones are mid-migration remove-step state
        and must not appear anywhere as a serving replica.
        """
        available = set()
        unavailable = set()
        for node_id in self.nodes.ids():
            if self.nodes.read(node_id).available:
                available.add(node_id)
            else:
                unavailable.add(node_id)
        return frozenset(available), frozenset(unavailable)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # ==================================================================
    # Relationship chains
    # ==================================================================
    def allocate_rel_id(self) -> int:
        return self._rel_ids.allocate()

    def next_rel_id(self) -> int:
        """The id :meth:`allocate_rel_id` would return, left untaken."""
        return self._rel_ids.peek()

    def create_relationship(
        self,
        rel_id: int,
        src: int,
        dst: int,
        ghost: bool = False,
        properties: Optional[Dict[str, Any]] = None,
    ) -> RelationshipRecord:
        """Insert a relationship record, linking into every local endpoint.

        ``rel_id`` is global: for a cross-partition edge both sides store a
        record under the same ID (one primary, one ghost).  At least one
        endpoint must be local.  Ghost records reject properties.  All is
        checked and encoded before the first write: bad input raises
        :class:`StorageError` with the store untouched.
        """
        if src == dst:
            raise StorageError("self-relationships are not allowed")
        if rel_id in self.relationships:
            raise StorageError(f"relationship {rel_id} already exists here")
        if ghost and properties:
            raise StorageError("ghost relationships cannot carry properties")
        _check_rel_values(rel_id, src, dst)
        src_node = self.nodes.fields(src)
        dst_node = self.nodes.fields(dst)
        if src_node is None and dst_node is None:
            raise StorageError(
                f"neither endpoint of relationship {rel_id} is local"
            )
        encoded = encode_properties(properties or {})
        self._rel_ids.observe(rel_id)
        rel = [rel_flags(ghost), rel_id, src, dst] + [NULL_REF] * 5
        if src_node is not None:
            self._link_into_chain(rel, src_node)
        if dst_node is not None:
            self._link_into_chain(rel, dst_node)
        if encoded:
            rel[REL_FIRST_PROP] = self._new_property_chain(rel_id, encoded)
        FixedRecordStore.write_fields(self.relationships, rel)
        return self.relationships.codec.decode(tuple(rel))

    def _link_into_chain(self, rel: List, node: Sequence) -> None:
        """Head-insert the relationship with fields ``rel`` into the chain
        of the node with fields ``node``.  ``rel``'s pointers on that side
        are set for the caller to write; the old head's ``prev`` and the
        node's ``first_rel`` are written past the typed writers' drops,
        since only the node's filled view entry changes: it becomes a new
        array with the other endpoint first (DESIGN.md §15)."""
        node_id = node[NODE_ID]
        rel_id = rel[REL_ID]
        old_first = node[NODE_FIRST_REL]
        side = _side(rel, node_id)
        rel[side] = NULL_REF
        rel[side + 1] = old_first
        if old_first != NULL_REF:
            first = list(_fields(self.relationships, old_first))
            first[_side(first, node_id)] = rel_id
            FixedRecordStore.write_fields(self.relationships, first)
        node = list(node)
        node[NODE_FIRST_REL] = rel_id
        FixedRecordStore.write_fields(self.nodes, node)
        neighbors = self.adjacency.get(node_id)
        if neighbors is not None:
            other = rel[REL_DST] if side == REL_SRC_PREV else rel[REL_SRC]
            self.adjacency[node_id] = _id_array([other, *neighbors])

    def _unlink_from_chain(
        self, rel: Sequence, node_id: int, held: Optional[Dict[int, List]] = None
    ) -> None:
        """Unlink the relationship with fields ``rel`` from ``node_id``'s
        chain: its neighbours there (or the node's ``first_rel``) are
        rewritten to skip it — a neighbour in ``held`` from its held
        fields, updated in place.  ``rel`` itself is not written."""
        side = _side(rel, node_id)
        prev_id, next_id = rel[side], rel[side + 1]
        if prev_id == NULL_REF:
            node = list(_fields(self.nodes, node_id))
            node[NODE_FIRST_REL] = next_id
            self.nodes.write_fields(node)
        else:
            prev = self._held_fields(prev_id, held)
            prev[_side(prev, node_id) + 1] = next_id
            self.relationships.write_fields(prev)
        if next_id != NULL_REF:
            nxt = self._held_fields(next_id, held)
            nxt[_side(nxt, node_id)] = prev_id
            self.relationships.write_fields(nxt)

    def _held_fields(self, rel_id: int, held: Optional[Dict[int, List]]) -> List:
        """The fields of relationship ``rel_id`` to rewrite: the caller's
        held list when it holds one, else one checked read."""
        rel = held.get(rel_id) if held else None
        return list(_fields(self.relationships, rel_id)) if rel is None else rel

    def has_relationship(self, rel_id: int) -> bool:
        return rel_id in self.relationships

    def chain_contains(self, node_id: int, rel_id: int) -> bool:
        """True when ``rel_id`` is already linked into ``node_id``'s chain.

        Guards against double-linking when a record was created with both
        endpoints local (``create_relationship`` links every local
        endpoint) and a later path would attach one of them again.

        Answered from the record's own link fields, not by walking the
        chain: a linked record has a neighbour on ``node_id``'s side or
        is the chain head, and ``detach_endpoint`` NULLs both pointers.
        """
        record = self.relationships.read(rel_id)
        return (
            record.prev_for(node_id) != NULL_REF
            or record.next_for(node_id) != NULL_REF
            or self.nodes.read(node_id).first_rel == rel_id
        )

    def relationship(self, rel_id: int) -> RelationshipRecord:
        return self.relationships.read(rel_id)

    def delete_relationship(self, rel_id: int) -> None:
        """Unlink from all local chains, drop properties, tombstone."""
        rel = _fields(self.relationships, rel_id)
        src, dst = rel[REL_SRC], rel[REL_DST]
        if src in self.nodes:
            self._unlink_from_chain(rel, src)
        if dst in self.nodes:
            self._unlink_from_chain(rel, dst)
        self._delete_property_chain(rel[REL_FIRST_PROP])
        self.relationships.delete_fields(rel)

    def attach_endpoint(self, rel_id: int, node_id: int) -> None:
        """Link an existing relationship record into a local node's chain.

        Used when a write mirrored into an online migration's window finds
        the record already here (the other endpoint is local); a whole
        arriving chain goes through :meth:`import_nodes`.
        """
        rel = list(_fields(self.relationships, rel_id))
        node = self.nodes.fields(node_id)
        if node is None:
            raise StorageError(f"node {node_id} is not local")
        self._link_into_chain(rel, node)
        FixedRecordStore.write_fields(self.relationships, rel)

    def detach_endpoint(self, rel_id: int, node_id: int) -> None:
        """Unlink a relationship from one endpoint's chain, NULLing that
        side's pointers.  The record survives for the other (local)
        endpoint — what :meth:`delete_node` does to a record it keeps,
        one record at a time."""
        rel = list(_fields(self.relationships, rel_id))
        self._unlink_from_chain(rel, node_id)
        side = _side(rel, node_id)
        rel[side] = rel[side + 1] = NULL_REF
        self.relationships.write_fields(rel)

    def remove_node_record(self, node_id: int) -> None:
        """Drop a node whose chain is already empty (the last write of
        unlinking a departing node one record at a time)."""
        record = self.nodes.read(node_id)
        if record.first_rel != NULL_REF:
            raise StorageError(
                f"node {node_id} still has relationships; detach them first"
            )
        self._delete_property_chain(record.first_prop)
        self.nodes.delete(node_id)

    def set_ghost(self, rel_id: int, ghost: bool) -> None:
        """Flip a record between primary and ghost (migration merge step).

        Downgrading to ghost drops the property chain, since ghosts hold
        no property information.
        """
        record = self.relationships.read(rel_id)
        if ghost and record.first_prop != NULL_REF:
            self._delete_property_chain(record.first_prop)
            record = record.with_first_prop(NULL_REF)
        self.relationships.write(record.with_ghost(ghost))

    # ==================================================================
    # Adjacency (fully local thanks to ghost records)
    # ==================================================================
    def _chain_fields(self, node_id: int, first_rel: int) -> List[Tuple]:
        """The raw fields of each record in ``node_id``'s relationship
        chain, head first: one checked access per hop, no record objects.
        The only chain walk in the store."""
        fields = self.relationships.fields
        chain: List[Tuple] = []
        rel_id = first_rel
        for _ in range(len(self.relationships) + 1):
            if rel_id == NULL_REF:
                return chain
            rel = fields(rel_id)
            if rel is None:
                raise RecordNotFoundError(f"record {rel_id} not found")
            chain.append(rel)
            if rel[REL_SRC] == node_id:
                rel_id = rel[REL_SRC_NEXT]
            elif rel[REL_DST] == node_id:
                rel_id = rel[REL_DST_NEXT]
            else:
                raise StorageError(
                    f"node {node_id} is not an endpoint of relationship "
                    f"{rel[REL_ID]}"
                )
        raise StorageError(f"cyclic relationship chain at node {node_id}")

    def _chain(self, node_id: int, first_rel: int) -> Iterator[RelationshipRecord]:
        """The records of ``node_id``'s relationship chain, head first."""
        return map(
            self.relationships.codec.decode, self._chain_fields(node_id, first_rel)
        )

    def chain(self, node_id: int) -> List[RelationshipRecord]:
        """The records of ``node_id``'s relationship chain, head first,
        whether or not the node is available (consistency checks)."""
        return list(self._chain(node_id, self.nodes.read(node_id).first_rel))

    def read_frontier(
        self, node_ids: Iterable[int], expand: bool
    ) -> List[Optional[Sequence[int]]]:
        """One traversal depth's share of this store, in one pass.

        Aligned with ``node_ids``: ``None`` for a node that is missing or
        unavailable here (queries treat both identically), else the
        neighbour ids along its chain — nothing when ``expand`` is false
        (the final depth only needs the availability answer).

        A node the store already knows to be available is answered from
        memory: an entry of the adjacency view answers either way, and an
        id in the availability set answers an availability-only read (an
        id the view answers that way joins the set).  Both are filled
        only after a checked access found the node in use and available,
        and every node write or delete drops the node from both, so a hit
        proves what the record says.  Any other node costs
        one checked node access, which reads the availability flag and
        raises for a deleted or misindexed slot; an expanded node missing
        from the view then walks its chain once, with every check of the
        walk, and its neighbour ids are kept until a write drops them.
        The answers are the view's own ``array`` objects: read them, never
        modify them.
        """
        view = self.adjacency
        if expand:
            result: List[Optional[Sequence[int]]] = []
            for node_id in node_ids:
                neighbors = view.get(node_id)
                result.append(self._expand(node_id) if neighbors is None else neighbors)
            return result
        available = self.available
        return [
            () if node_id in available else self._check(node_id)
            for node_id in node_ids
        ]

    def _expand(self, node_id: int) -> Optional[Sequence[int]]:
        """An expanded node missing from the view: one checked node
        access, and an available node's chain walk fills its entry."""
        node = self.nodes.fields(node_id)
        if node is None or not node[NODE_FLAGS] & FLAG_AVAILABLE:
            return None
        neighbors = self.adjacency[node_id] = self._walk_neighbors(
            node_id, node[NODE_FIRST_REL]
        )
        return neighbors

    def _check(self, node_id: int) -> Optional[Tuple[()]]:
        """An availability-only answer the set does not hold yet: a view
        entry answers it, else one checked node access; an available node
        joins the set."""
        if node_id not in self.adjacency:
            node = self.nodes.fields(node_id)
            if node is None or not node[NODE_FLAGS] & FLAG_AVAILABLE:
                return None
        self.available.add(node_id)
        return ()

    def _walk_neighbors(self, node_id: int, first_rel: int) -> Sequence[int]:
        """The neighbour ids along ``node_id``'s chain, packed — how the
        adjacency view is filled, through the one checked chain walk."""
        return _id_array([
            rel[REL_DST] if rel[REL_SRC] == node_id else rel[REL_SRC]
            for rel in self._chain_fields(node_id, first_rel)
        ])

    def neighbor_entries(
        self, node_id: int, include_unavailable: bool = False
    ) -> List[NeighborEntry]:
        """Walk ``node_id``'s relationship chain; no remote access needed.

        Raises :class:`VertexUnavailableError` for a node in the
        migration *unavailable* state unless ``include_unavailable`` is
        set (inspecting a node mid-migration, after the remove step has
        marked it unavailable).
        """
        if include_unavailable:
            record = self.nodes.read(node_id)
        else:
            record = self._require_available(node_id)
        return [
            NeighborEntry(
                rel.dst if rel.src == node_id else rel.src, rel.rel_id, rel.ghost
            )
            for rel in self._chain(node_id, record.first_rel)
        ]

    def neighbors(self, node_id: int) -> List[int]:
        return [entry.neighbor for entry in self.neighbor_entries(node_id)]

    def degree(self, node_id: int) -> int:
        return sum(1 for _ in self.neighbor_entries(node_id))

    # ==================================================================
    # Properties
    # ==================================================================
    def set_node_property(self, node_id: int, key: str, value: Any) -> None:
        """Insert or replace one property, encoded before the first write:
        a bad one raises :class:`StorageError` with the old value kept."""
        node = self._require_available(node_id)
        encoded = encode_property(key, value)
        new_first = self._set_property(node.first_prop, node_id, encoded)
        if new_first != node.first_prop:
            self.nodes.write(node.with_first_prop(new_first))

    def get_node_property(self, node_id: int, key: str, default: Any = None) -> Any:
        node = self._require_available(node_id)
        return self._get_property(node.first_prop, key, default)

    def node_properties(self, node_id: int) -> Dict[str, Any]:
        node = self._require_available(node_id)
        return self._collect_properties(node.first_prop)

    def remove_node_property(self, node_id: int, key: str) -> bool:
        node = self._require_available(node_id)
        new_first, removed = self._remove_property(node.first_prop, key)
        if new_first != node.first_prop:
            self.nodes.write(node.with_first_prop(new_first))
        return removed

    def set_relationship_property(self, rel_id: int, key: str, value: Any) -> None:
        rel = self.relationships.read(rel_id)
        if rel.ghost:
            raise StorageError(
                f"relationship {rel_id} is a ghost and cannot hold properties"
            )
        encoded = encode_property(key, value)
        new_first = self._set_property(rel.first_prop, rel_id, encoded)
        if new_first != rel.first_prop:
            self.relationships.write(rel.with_first_prop(new_first))

    def get_relationship_property(
        self, rel_id: int, key: str, default: Any = None
    ) -> Any:
        rel = self.relationships.read(rel_id)
        return self._get_property(rel.first_prop, key, default)

    def relationship_properties(self, rel_id: int) -> Dict[str, Any]:
        rel = self.relationships.read(rel_id)
        return self._collect_properties(rel.first_prop)

    # -- property chain helpers ----------------------------------------
    def _set_property(self, first_prop: int, owner: int, encoded: EncodedProperty) -> int:
        """Update-or-insert an encoded property into a property chain;
        returns the chain head."""
        key_bytes, payload = encoded
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            if self.properties.key_bytes(record) == key_bytes:
                self.properties.update_value(record, payload)
                return first_prop
            prop_id = record.next_prop
        new_id = self._prop_ids.allocate()
        self.properties.create(new_id, owner, encoded, next_prop=first_prop)
        return new_id

    def _new_property_chain(self, owner: int, properties: List[EncodedProperty]) -> int:
        """A fresh property chain for ``owner``; returns its head.  The
        records, ids and blobs are the ones setting each key in turn on
        an empty chain produces."""
        first_prop = NULL_REF
        for encoded in properties:
            prop_id = self._prop_ids.allocate()
            self.properties.create(prop_id, owner, encoded, next_prop=first_prop)
            first_prop = prop_id
        return first_prop

    def _get_property(self, first_prop: int, key: str, default: Any) -> Any:
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            if self.properties.key_of(record) == key:
                return self.properties.value_of(record)
            prop_id = record.next_prop
        return default

    def _collect_properties(self, first_prop: int) -> Dict[str, Any]:
        collected: Dict[str, Any] = {}
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            collected[self.properties.key_of(record)] = self.properties.value_of(
                record
            )
            prop_id = record.next_prop
        return collected

    def _remove_property(self, first_prop: int, key: str) -> Tuple[int, bool]:
        """Unlink+delete the record holding ``key``; returns (new head, found)."""
        prev: Optional[Any] = None
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            if self.properties.key_of(record) == key:
                if prev is None:
                    new_first = record.next_prop
                else:
                    self.properties.write(prev.with_next_prop(record.next_prop))
                    new_first = first_prop
                self.properties.delete(prop_id)
                return new_first, True
            prev = record
            prop_id = record.next_prop
        return first_prop, False

    def _delete_property_chain(self, first_prop: int) -> None:
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            next_prop = record.next_prop
            self.properties.delete(prop_id)
            prop_id = next_prop

    # ==================================================================
    # Bulk load
    # ==================================================================
    def bulk_load(
        self,
        node_ids: Sequence[int],
        weights: Sequence[float],
        rel_ids: Sequence[int],
        srcs: Sequence[int],
        dsts: Sequence[int],
        ghosts: Sequence[bool],
    ) -> None:
        """Fill an empty store from columns, in creation order: node ``i``
        is ``node_ids[i]`` of ``weights[i]``, relationship ``j`` is
        ``rel_ids[j]`` from ``srcs[j]`` to ``dsts[j]``, a ghost where
        ``ghosts[j]``.  The store ends byte for byte where
        :meth:`create_node` per node, then :meth:`create_relationship`
        per relationship leave it.  One stable sort of the chain entries
        by (endpoint, creation index) gives every pointer — a record's
        ``next`` is the older record, its ``prev`` the newer one, a
        node's ``first_rel`` its newest, as in :meth:`import_nodes` — and
        each record store is written in whole pages.

        Every check runs on whole columns first — no record store has a
        page, no node or relationship comes twice, every id fits a record
        and every weight is a real number (as ``struct`` packs, not as
        numpy converts), no relationship is a self-loop, has a negative
        id or lacks a local endpoint — and raises the
        :class:`StorageError` of the first offending record, in creation
        order, with the store untouched."""
        if any(store.pages.num_pages for store in self.record_stores()):
            raise StorageError("bulk_load needs an empty store")
        ids, id_fits = record_column("q", node_ids)
        weight_column, weight_fits = record_column("d", weights)
        bad = _repeated(ids) | ~(id_fits & weight_fits)
        if bad.any():
            first = int(bad.argmax())
            if node_ids[first] in set(node_ids[:first]):
                raise StorageError(f"node {node_ids[first]} appears twice")
            check_node_values(node_ids[first], weights[first])
        rels, rel_fits = record_column("q", rel_ids)
        src_column, src_fits = record_column("q", srcs)
        dst_column, dst_fits = record_column("q", dsts)
        # Endpoint 2j is relationship j's src, 2j + 1 its dst; ``at`` is
        # each one's node (its creation index), -1 where it is not local.
        ends = np.column_stack((src_column, dst_column)).ravel()
        at = np.full(len(ends), -1)
        if len(ids):
            order = np.argsort(ids)
            found = order[np.searchsorted(ids, ends, sorter=order).clip(0, len(ids) - 1)]
            at = np.where(ids[found] == ends, found, -1)
        bad = (
            _repeated(rels) | ~(rel_fits & src_fits & dst_fits) | (rels < 0)
            | (src_column == dst_column) | ((at[0::2] < 0) & (at[1::2] < 0))
        )
        if bad.any():
            first = int(bad.argmax())
            rel_id, src, dst = rel_ids[first], srcs[first], dsts[first]
            if rel_id in set(rel_ids[:first]):
                raise StorageError(f"relationship id {rel_id} is repeated")
            _check_rel_values(rel_id, src, dst)
            if src == dst:
                raise StorageError(f"relationship {rel_id} is a self-loop")
            raise StorageError(f"neither endpoint of relationship {rel_id} is local")
        # The local endpoints stably sorted by node: each run of one node
        # is its chain, oldest first.
        entries = np.flatnonzero(at >= 0)
        entries = entries[np.argsort(at[entries], kind="stable")]
        node_of, rel_of = at[entries], rels[entries // 2]
        linked = node_of[1:] == node_of[:-1]
        prev, after = np.full((2, len(at)), NULL_REF, np.int64)
        prev[entries[:-1][linked]] = rel_of[1:][linked]
        after[entries[1:][linked]] = rel_of[:-1][linked]
        heads = np.append(~linked, True)[: len(entries)]
        first_rel = np.full(len(ids), NULL_REF, np.int64)
        first_rel[node_of[heads]] = rel_of[heads]
        if len(rels):
            self._rel_ids.observe(int(rels.max()))
        self.nodes.write_columns(
            (NODE_IN_USE_AVAILABLE, node_ids, first_rel, NULL_REF, weight_column)
        )
        flags = np.where(np.asarray(ghosts, bool), rel_flags(True), rel_flags(False))
        self.relationships.write_columns(
            (flags, rel_ids, src_column, dst_column, prev[0::2], after[0::2])
            + (prev[1::2], after[1::2], NULL_REF)
        )

    # ==================================================================
    # Migration payloads (used by the cluster's two-step protocol)
    # ==================================================================
    def export_fields(self, node_id: int) -> Export:
        """Everything the copy step ships for one node, as the raw fields
        one checked node access (raising for a missing or unavailable
        node) and one walk of its chain read: no record value and no dict
        per relationship."""
        node = self._available_fields(node_id)
        chain = self._chain_fields(node_id, node[NODE_FIRST_REL])
        collect = self._collect_properties
        primaries = {
            position: collect(rel[REL_FIRST_PROP])
            for position, rel in enumerate(chain)
            if rel[REL_FIRST_PROP] != NULL_REF and not rel[REL_FLAGS] & FLAG_GHOST
        }
        properties = collect(node[NODE_FIRST_PROP])
        return Export(node_id, node[NODE_WEIGHT], properties, chain, primaries)

    def export_node(self, node_id: int) -> Dict[str, Any]:
        """:meth:`export_fields` as a payload: the node, its properties
        and one dict per record of its chain, head first."""
        export = self.export_fields(node_id)
        return {
            "node": {"node_id": node_id, "weight": export.weight},
            "properties": export.properties,
            "relationships": [
                {
                    "rel_id": rel[REL_ID],
                    "src": rel[REL_SRC],
                    "dst": rel[REL_DST],
                    "ghost": rel[REL_FLAGS] & FLAG_GHOST != 0,
                    "properties": export.chain_properties.get(position, {}),
                }
                for position, rel in enumerate(export.chain)
            ],
        }

    def import_node(self, payload: Dict[str, Any], roles: Sequence[bool]) -> None:
        """Copy-step insert of an :meth:`export_node` payload: the one-node
        :meth:`import_nodes`, ``roles[i]`` the role of its ``i``-th
        relationship."""
        node, rels = payload["node"], payload["relationships"]
        if len(roles) != len(rels):
            raise StorageError(
                f"{len(roles)} roles for the {len(rels)} relationships of node "
                f"{node['node_id']}"
            )
        chain = [(FLAG_IN_USE, rel["rel_id"], rel["src"], rel["dst"]) for rel in rels]
        primaries = {at: rel["properties"] for at, rel in enumerate(rels) if rel["properties"]}
        self.import_nodes(
            [Export(node["node_id"], node["weight"], payload["properties"], chain, primaries)],
            roles,
        )

    def import_nodes(self, exports: Sequence[Export], roles: Sequence[bool]) -> None:
        """Copy-step insert of one (source, target) pair: each node of
        ``exports`` with its properties and whole chain, leaving the store
        as importing the nodes one at a time, in order, left it.

        ``roles`` flags, per relationship of the exports, whether its
        record is a ghost here once the migration completes.  A record new
        here is created in its role and head-linked into its other
        endpoint's chain when that endpoint is local (as an earlier node
        of the pair is); a record already here, or brought by an earlier
        node, takes the role, an upgrade taking the payload's properties
        and a downgrade dropping its own.  The checks of
        :meth:`_check_import` run on columns before the first write: the
        nodes before the first that fails are installed, and it raises
        what importing it alone raises, nothing of it written.  Then
        property chains are built record by record, slots taken in the
        order each record first comes, every pointer given by one sort of
        the chain entries by (node, position), and the images written a
        page at a time.  Undoing an import is :meth:`delete_node` with
        ``stays`` naming the nodes here before.
        """
        rels = list(itertools.chain.from_iterable(export.chain for export in exports))
        if len(roles) != len(rels):
            raise StorageError(
                f"{len(roles)} roles for the {len(rels)} relationships of "
                f"{len(exports)} nodes"
            )
        if not exports:
            return
        counts = [len(export.chain) for export in exports]
        starts = [0, *itertools.accumulate(counts)]
        owner = np.repeat(np.arange(len(exports)), counts)
        node_values = [export.node_id for export in exports]
        ids, id_fits = record_column("q", node_values)
        weights, weight_fits = record_column("d", [export.weight for export in exports])
        bad_node = ~(id_fits & weight_fits)
        if len(set(node_values)) < len(node_values):
            bad_node |= _repeated(ids)
        bad_node[self.nodes.holding(node_values)] = True
        rel_values, srcs, dsts = list(zip(*rels))[1:4] if rels else ((),) * 3
        rel_ids, rel_fits = record_column("q", rel_values)
        src_col, src_fits = record_column("q", srcs)
        dst_col, dst_fits = record_column("q", dsts)
        from_src = src_col == ids[owner]
        bad = ~(rel_fits & src_fits & dst_fits) | (rel_ids < 0) | (src_col == dst_col)
        bad |= ~from_src & (dst_col != ids[owner])
        # ``previous``: the position that brought the record before (-1:
        # none); a valid pair brings a record at most twice.
        order = np.lexsort((np.arange(len(rels)), rel_ids))
        again = rel_ids[order][1:] == rel_ids[order][:-1]
        later, earlier = order[1:][again], order[:-1][again]
        previous = np.full(len(rels), -1)
        previous[later] = earlier
        bad[later] |= owner[later] == owner[earlier]
        bad[later] |= src_col[later] != src_col[earlier]
        bad[later] |= dst_col[later] != dst_col[earlier]
        found = list(map(self.relationships.fields, rel_values))
        held = np.array([at for at, fields in enumerate(found) if fields], np.int64)
        stored = itertools.chain.from_iterable(filter(None, found))
        stored = np.fromiter(stored, np.int64, 9 * len(held)).reshape(-1, 9)
        side = np.where(from_src[held], REL_SRC_PREV, REL_DST_PREV)
        linked_here = stored[np.arange(len(held)), side] != NULL_REF
        linked_here |= stored[np.arange(len(held)), side + 1] != NULL_REF
        bad[held] |= linked_here | (stored[:, REL_SRC] != src_col[held])
        bad[held] |= stored[:, REL_DST] != dst_col[held]
        encoded: Dict[int, List[EncodedProperty]] = {}
        encoded_nodes: Dict[int, Tuple[Any, List[EncodedProperty]]] = {}
        for index, export in enumerate(exports):
            try:
                for position, properties in export.chain_properties.items():
                    if not roles[starts[index] + position]:
                        properties = encode_properties(properties)
                        encoded[starts[index] + position] = properties
                if export.properties:
                    properties = encode_properties(export.properties)
                    encoded_nodes[index] = (export.node_id, properties)
            except StorageError:
                bad_node[index] = True
        bad_node[owner[bad]] = True
        if bad_node.any():
            good = int(bad_node.argmax())
            self.import_nodes(exports[:good], roles[: starts[good]])
            self._check_import(exports[good], roles[starts[good] : starts[good + 1]])
            raise StorageError(f"node {node_values[good]} failed the column checks only")

        # The writes.  One image row per record, in the order each first
        # comes (the slot order of the new ones).
        first, role = previous < 0, np.array(roles, bool)
        pre = np.zeros(len(rels), bool)
        pre[held] = True
        new = first & ~pre
        firsts = np.flatnonzero(first)
        row = (np.cumsum(first) - 1)[np.where(first, np.arange(len(rels)), previous)]
        image = np.full((len(firsts), 9), NULL_REF, np.int64)
        ends = np.column_stack((rel_ids, src_col, dst_col))
        image[:, REL_ID : REL_DST + 1] = ends[firsts]
        image[row[held[first[held]]]] = stored[first[held]]
        ghost = np.where(first, image[row, REL_FLAGS] & FLAG_GHOST != 0, role[previous])
        downgrade = ~new & role & ~ghost
        node_first_prop = [NULL_REF] * len(exports)
        dropped = image[row[downgrade], REL_FIRST_PROP] != NULL_REF
        if encoded or encoded_nodes or dropped.any():
            first_props = self._property_chains(
                node_first_prop, encoded_nodes, starts, rel_values, row, new, downgrade,
                encoded, image[:, REL_FIRST_PROP],
            )
            image[list(first_props), REL_FIRST_PROP] = list(first_props.values())
        last = np.ones(len(rels), bool)
        last[previous[previous >= 0]] = False
        flags = np.where(role, rel_flags(True), rel_flags(False))
        image[row[last], REL_FLAGS] = flags[last]
        # Chain entries: each record on its arriving node, a new record
        # also on a local other endpoint (an earlier node of the pair or a
        # resident); ``index`` is an entry's node in the pair, -1 for a
        # resident.
        other = np.where(from_src, dst_col, src_col)
        sorter = np.argsort(ids)
        found = sorter[np.searchsorted(ids, other, sorter=sorter).clip(0, len(ids) - 1)]
        other_index = np.where(ids[found] == other, found, len(ids))
        linked = new & (other_index < owner)
        outside = np.flatnonzero(new & (other_index == len(ids)))
        linked[outside[self.nodes.holding(other[outside].tolist())]] = True
        links = np.flatnonzero(linked)
        positions = np.concatenate((np.arange(len(rels)), links))
        node = np.concatenate((ids[owner], other[links]))
        resident_link = other_index[links] == len(ids)
        index = np.concatenate((owner, np.where(resident_link, -1, found[links])))
        side = np.concatenate((from_src, ~from_src[links]))
        by_node = np.lexsort((positions, node))
        node, index, at = node[by_node], index[by_node], row[positions[by_node]]
        side = np.where(side[by_node], REL_SRC_PREV, REL_DST_PREV)
        rel = image[at, REL_ID]
        same = node[1:] == node[:-1]
        image[at[:-1][same], side[:-1][same]] = rel[1:][same]
        image[at[1:][same], side[1:][same] + 1] = rel[:-1][same]
        oldest = np.flatnonzero(np.append(True, ~same)[: len(node)])
        newest = np.flatnonzero(np.append(~same, True)[: len(node)])
        # A resident's old head goes behind its oldest insertion, a record
        # of the pair in its row, another in a row read for it.  (None in a
        # consistent cluster: a record to a resident is here already.)
        residents = oldest[index[oldest] < 0]
        resident_ids = node[residents].tolist()
        resident = [_fields(self.nodes, node_id) for node_id in resident_ids]
        if resident:
            heads = np.array([fields[NODE_FIRST_REL] for fields in resident], np.int64)
            image[at[residents], side[residents] + 1] = heads
            behind, heads = residents[heads != NULL_REF], heads[heads != NULL_REF]
            unread = set(heads.tolist()).difference(image[:, REL_ID].tolist())
            extra = [_fields(self.relationships, head) for head in sorted(unread)]
            image = np.vstack((image, np.array(extra, np.int64).reshape(-1, 9)))
            sorter = np.argsort(image[:, REL_ID])
            head_rows = sorter[np.searchsorted(image[:, REL_ID], heads, sorter=sorter)]
            on_src = image[head_rows, REL_SRC] == node[behind]
            image[head_rows, np.where(on_src, REL_SRC_PREV, REL_DST_PREV)] = rel[behind]
        first_rel = np.full(len(exports), NULL_REF, np.int64)
        arriving = newest[index[newest] >= 0]
        first_rel[index[arriving]] = rel[arriving]
        self.nodes.write_columns(
            (
                [NODE_IN_USE_AVAILABLE] * len(exports)
                + [fields[NODE_FLAGS] for fields in resident],
                node_values + resident_ids,
                np.append(first_rel, rel[newest[index[newest] < 0]]),
                node_first_prop + [fields[NODE_FIRST_PROP] for fields in resident],
                np.append(weights, [fields[NODE_WEIGHT] for fields in resident]),
            )
        )
        if new.any():
            self._rel_ids.observe(int(rel_ids[new].max()))
        self.relationships.write_columns(tuple(image.T))

    def _property_chains(
        self, node_first_prop, encoded_nodes, starts, rel_values, row, new, downgrade,
        encoded, first_prop,
    ) -> Dict[int, int]:
        """A pair import's property work in payload order: a node's new
        chain (head into ``node_first_prop``), then each record's — a new
        one's chain, a present one's dropped on ``downgrade``, then merged.
        Returns the changed heads by image ``row`` (else ``first_prop``)."""
        first_props: Dict[int, int] = {}
        work = iter(sorted({*np.flatnonzero(downgrade).tolist(), *encoded}))
        position = next(work, None)
        for index, end in enumerate(starts[1:]):
            if index in encoded_nodes:
                node_first_prop[index] = self._new_property_chain(*encoded_nodes[index])
            while position is not None and position < end:
                at, rel_id = row[position], rel_values[position]
                if new[position]:
                    head = self._new_property_chain(rel_id, encoded[position])
                else:
                    head = first_props.get(at, int(first_prop[at]))
                    if downgrade[position]:
                        self._delete_property_chain(head)
                        head = NULL_REF
                    for property_ in encoded.get(position, ()):
                        head = self._set_property(head, rel_id, property_)
                first_props[at] = head
                position = next(work, None)
        return first_props

    def _check_import(self, export: Export, roles: Sequence[bool]) -> None:
        """The checks of :meth:`import_nodes` for one node, a record at a
        time in chain order, raising the :class:`StorageError` of the
        first that fails: the node is absent, ids, ends and weight fit a
        record, no relationship id is negative, the node is an endpoint of
        each record and none comes twice, a record here joins the same two
        nodes and is unlinked on the arriving side, properties encode."""
        node_id = export.node_id
        if node_id in self.nodes:
            raise StorageError(f"node {node_id} already exists")
        check_node_values(node_id, export.weight)
        seen = set()
        for rel in export.chain:
            rel_id, src, dst = rel[REL_ID], rel[REL_SRC], rel[REL_DST]
            if rel_id in seen:
                raise StorageError(f"relationship {rel_id} appears twice in the payload")
            seen.add(rel_id)
            if src == dst or node_id not in (src, dst):
                raise StorageError(
                    f"relationship {rel_id} ({src}, {dst}) cannot join node {node_id}"
                )
            _check_rel_values(rel_id, src, dst)
            fields = self.relationships.fields(rel_id)
            if fields is None:
                continue
            if (fields[REL_SRC], fields[REL_DST]) != (src, dst):
                raise StorageError(
                    f"relationship {rel_id} here joins ({fields[REL_SRC]}, "
                    f"{fields[REL_DST]}), not ({src}, {dst})"
                )
            side = REL_SRC_PREV if src == node_id else REL_DST_PREV
            if fields[side] != NULL_REF or fields[side + 1] != NULL_REF:
                raise StorageError(
                    f"relationship {rel_id} is already linked on node {node_id}'s side"
                )
        for position, ghost in enumerate(roles):
            if not ghost and position in export.chain_properties:
                encode_properties(export.chain_properties[position])
        encode_properties(export.properties)

    # ==================================================================
    # Logical images (durability journal / recovery fidelity)
    # ==================================================================
    def node_image(self, node_id: int) -> Dict[str, Any]:
        """Pointer-free logical content of one node, availability included.

        Unlike :meth:`node_properties` this never raises for unavailable
        nodes — the journal must capture mid-migration states too.
        """
        record = self.nodes.read(node_id)
        return {
            "weight": record.weight,
            "available": record.available,
            "properties": self._collect_properties(record.first_prop),
        }

    def relationship_image(self, rel_id: int) -> Dict[str, Any]:
        """Pointer-free logical content of one relationship record."""
        record = self.relationships.read(rel_id)
        return {
            "src": record.src,
            "dst": record.dst,
            "ghost": record.ghost,
            "properties": (
                {} if record.ghost else self._collect_properties(record.first_prop)
            ),
        }

    # ==================================================================
    # ID allocator control (membership changes / recovery)
    # ==================================================================
    def next_id_bound(self) -> int:
        """Smallest id strictly greater than anything this store has
        allocated or observed, across both allocators."""
        return max(self._rel_ids.peek(), self._prop_ids.peek())

    def rebase_ids(self, num_stripes: int, floor: int) -> None:
        """Re-stripe both allocators for a new server count.

        Every id minted after the rebase is strictly greater than
        ``floor`` (no collision with history) and congruent to this
        server's stripe mod ``num_stripes`` (no collision with peers) —
        the "generation" jump that makes server join safe.
        """
        start = floor // num_stripes + 1
        self._rel_ids = IdAllocator(
            stripe=self.server_id, num_stripes=num_stripes, start=start
        )
        self._prop_ids = IdAllocator(
            stripe=self.server_id, num_stripes=num_stripes, start=start
        )

    def set_allocator_state(
        self, num_stripes: int, rel_counter: int, prop_counter: int
    ) -> None:
        """Restore exact allocator positions (WAL recovery rebuild)."""
        self._rel_ids = IdAllocator(
            stripe=self.server_id, num_stripes=num_stripes, start=rel_counter
        )
        self._prop_ids = IdAllocator(
            stripe=self.server_id, num_stripes=num_stripes, start=prop_counter
        )

    def allocator_state(self) -> Dict[str, int]:
        return {
            "num_stripes": self._rel_ids.num_stripes,
            "rel_counter": self._rel_ids.allocated_count,
            "prop_counter": self._prop_ids.allocated_count,
        }

    # ==================================================================
    # Stats / persistence
    # ==================================================================
    def stats(self) -> StoreStats:
        ghosts = sum(1 for record in self.relationships.records() if record.ghost)
        return StoreStats(
            num_nodes=len(self.nodes),
            num_relationships=len(self.relationships),
            num_ghost_relationships=ghosts,
            num_properties=len(self.properties),
            bytes_nodes=self.nodes.size_bytes,
            bytes_relationships=self.relationships.size_bytes,
            bytes_properties=self.properties.size_bytes,
        )

    _META_FILE = "meta.json"
    #: page files of :meth:`record_stores`, in store-tag order
    _STORE_FILES = (
        "nodes.store",
        "relationships.store",
        "properties.store",
        "dynamic.store",
    )

    def save(self, directory: str) -> None:
        """Persist all stores plus allocator state into a directory."""
        os.makedirs(directory, exist_ok=True)
        for record_store, name in zip(self.record_stores(), self._STORE_FILES):
            record_store.save(os.path.join(directory, name))
        meta = {
            "server_id": self.server_id,
            "num_servers": self._rel_ids.num_stripes,
            "rel_counter": self._rel_ids.allocated_count,
            "prop_counter": self._prop_ids.allocated_count,
        }
        with open(os.path.join(directory, self._META_FILE), "w") as handle:
            json.dump(meta, handle)

    @classmethod
    def load(cls, directory: str) -> "GraphStore":
        with open(os.path.join(directory, cls._META_FILE)) as handle:
            meta = json.load(handle)
        return cls.from_pages(
            meta["server_id"],
            [
                PagedFile.load(os.path.join(directory, name))
                for name in cls._STORE_FILES
            ],
            meta["num_servers"],
            meta["rel_counter"],
            meta["prop_counter"],
        )
