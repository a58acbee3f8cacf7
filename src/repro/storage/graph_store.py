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
without building a record object, over the one chain walk
(``_chain_fields``) that ``neighbor_entries`` and ``export_node`` also
consume: a 1-hop traversal from a vertex of degree *d* costs 1 + 2d
record accesses cluster-wide.  ``is_available``, ``node``,
``neighbor_entries``, ``node_properties`` and the mutators remain the
per-record boundary for point reads, migration and recovery.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import (
    RecordNotFoundError,
    StorageError,
    VertexUnavailableError,
)
from repro.storage.ids import IdAllocator
from repro.storage.node_store import (
    FLAG_AVAILABLE,
    NODE_FIRST_REL,
    NODE_FLAGS,
    NodeRecord,
    NodeStore,
)
from repro.storage.pages import PagedFile
from repro.storage.property_store import PropertyStore
from repro.storage.records import NULL_REF, FixedRecordStore
from repro.storage.relationship_store import (
    REL_DST,
    REL_DST_NEXT,
    REL_ID,
    REL_SRC,
    REL_SRC_NEXT,
    RelationshipRecord,
    RelationshipStore,
)


class NeighborEntry(NamedTuple):
    """One hop out of a local node's adjacency chain."""

    neighbor: int
    rel_id: int
    ghost: bool


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
        self.nodes = NodeStore()
        self.relationships = RelationshipStore()
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
        positions — reopening a saved store and WAL recovery."""
        store = cls.__new__(cls)
        store.server_id = server_id
        store.nodes = NodeStore(files[0])
        store.relationships = RelationshipStore(files[1])
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
        if node_id in self.nodes:
            raise StorageError(f"node {node_id} already exists")
        record = NodeRecord(node_id=node_id, weight=weight, available=available)
        self.nodes.write(record)
        if properties:
            for key, value in properties.items():
                self.set_node_property(node_id, key, value)
            record = self.nodes.read(node_id)  # first_prop moved
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
        self.nodes.write(self.nodes.read(node_id).with_available(available))

    def _require_available(self, node_id: int) -> NodeRecord:
        record = self.nodes.read(node_id)
        if not record.available:
            raise VertexUnavailableError(
                f"node {node_id} is unavailable (being migrated away)"
            )
        return record

    def node_weight(self, node_id: int) -> float:
        return self.nodes.read(node_id).weight

    def add_node_weight(self, node_id: int, delta: float) -> float:
        return self._add_weight(self.nodes.read(node_id), delta)

    def _add_weight(self, record: NodeRecord, delta: float) -> float:
        updated = record.with_weight(record.weight + delta)
        self.nodes.write(updated)
        return updated.weight

    def point_read(self, node_id: int, popularity: float) -> Optional[Dict[str, Any]]:
        """A single-record query served from one fetch of the node record:
        adds ``popularity`` to the node's weight (one slot write) and
        returns its properties; ``None`` for a missing or unavailable
        node, which is left untouched."""
        record = self.nodes.get(node_id)
        if record is None or not record.available:
            return None
        self._add_weight(record, popularity)
        return self._collect_properties(record.first_prop)

    def delete_node(self, node_id: int) -> None:
        """Remove a node, all its relationship records and its properties."""
        record = self.nodes.read(node_id)
        entries = list(self.neighbor_entries(node_id, include_unavailable=True))
        for entry in entries:
            self.delete_relationship(entry.rel_id)
        self._delete_property_chain(record.first_prop)
        self.nodes.delete(node_id)

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
        endpoint must be local.  Ghost records reject properties.
        """
        if src == dst:
            raise StorageError("self-relationships are not allowed")
        if rel_id in self.relationships:
            raise StorageError(f"relationship {rel_id} already exists here")
        if ghost and properties:
            raise StorageError("ghost relationships cannot carry properties")
        src_node = self.nodes.get(src)
        dst_node = self.nodes.get(dst)
        if src_node is None and dst_node is None:
            raise StorageError(
                f"neither endpoint of relationship {rel_id} is local"
            )
        self._rel_ids.observe(rel_id)
        record = RelationshipRecord(rel_id=rel_id, src=src, dst=dst, ghost=ghost)
        if src_node is not None:
            record = self._link_into_chain(record, src_node)
        if dst_node is not None:
            record = self._link_into_chain(record, dst_node)
        self.relationships.write(record)
        if properties:
            for key, value in properties.items():
                self.set_relationship_property(rel_id, key, value)
            record = self.relationships.read(rel_id)  # first_prop moved
        return record

    def _link_into_chain(
        self, record: RelationshipRecord, node: NodeRecord
    ) -> RelationshipRecord:
        """Head-insert ``record`` into ``node``'s chain (record not yet
        written; the updated record is returned for the caller to write)."""
        node_id = node.node_id
        old_first = node.first_rel
        record = record.with_next_for(node_id, old_first)
        record = record.with_prev_for(node_id, NULL_REF)
        if old_first != NULL_REF:
            first = self.relationships.read(old_first)
            self.relationships.write(first.with_prev_for(node_id, record.rel_id))
        self.nodes.write(node.with_first_rel(record.rel_id))
        return record

    def _unlink_from_chain(self, record: RelationshipRecord, node_id: int) -> None:
        prev_id = record.prev_for(node_id)
        next_id = record.next_for(node_id)
        if prev_id == NULL_REF:
            node = self.nodes.read(node_id)
            self.nodes.write(node.with_first_rel(next_id))
        else:
            prev = self.relationships.read(prev_id)
            self.relationships.write(prev.with_next_for(node_id, next_id))
        if next_id != NULL_REF:
            nxt = self.relationships.read(next_id)
            self.relationships.write(nxt.with_prev_for(node_id, prev_id))

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
        record = self.relationships.read(rel_id)
        if record.src in self.nodes:
            self._unlink_from_chain(record, record.src)
        if record.dst in self.nodes:
            self._unlink_from_chain(record, record.dst)
        self._delete_property_chain(record.first_prop)
        self.relationships.delete(rel_id)

    def attach_endpoint(self, rel_id: int, node_id: int) -> None:
        """Link an existing relationship record into a local node's chain.

        Used by the migration copy step when the record's counterpart was
        already present here (the other endpoint is local) and a migrating
        endpoint arrives.
        """
        record = self.relationships.read(rel_id)
        node = self.nodes.get(node_id)
        if node is None:
            raise StorageError(f"node {node_id} is not local")
        self.relationships.write(self._link_into_chain(record, node))

    def detach_endpoint(self, rel_id: int, node_id: int) -> None:
        """Unlink a relationship from one endpoint's chain, NULLing that
        side's pointers.  The record survives for the other (local)
        endpoint — this is how a local edge becomes a cross-partition one
        when one endpoint migrates away."""
        record = self.relationships.read(rel_id)
        self._unlink_from_chain(record, node_id)
        record = record.with_prev_for(node_id, NULL_REF)
        record = record.with_next_for(node_id, NULL_REF)
        self.relationships.write(record)

    def remove_node_record(self, node_id: int) -> None:
        """Migration remove step: drop a node whose chain is already empty."""
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

    def read_frontier(
        self, node_ids: Iterable[int], expand: bool
    ) -> List[Optional[Sequence[int]]]:
        """One traversal depth's share of this store, in one pass.

        Aligned with ``node_ids``: ``None`` for a node that is missing or
        unavailable here (queries treat both identically), else the
        neighbour ids along its chain — nothing when ``expand`` is false
        (the final depth only needs the availability answer).  One node
        access plus one access per chain hop, no record objects.
        """
        node_fields = self.nodes.fields
        chain_fields = self._chain_fields
        result: List[Optional[Sequence[int]]] = []
        for node_id in node_ids:
            node = node_fields(node_id)
            if node is None or not node[NODE_FLAGS] & FLAG_AVAILABLE:
                result.append(None)
            elif expand:
                result.append(
                    [
                        rel[REL_DST] if rel[REL_SRC] == node_id else rel[REL_SRC]
                        for rel in chain_fields(node_id, node[NODE_FIRST_REL])
                    ]
                )
            else:
                result.append(())
        return result

    def neighbor_entries(
        self, node_id: int, include_unavailable: bool = False
    ) -> List[NeighborEntry]:
        """Walk ``node_id``'s relationship chain; no remote access needed.

        Raises :class:`VertexUnavailableError` for a node in the
        migration *unavailable* state unless ``include_unavailable`` is
        set (internal maintenance: the migration remove step walks chains
        of nodes it already marked unavailable).
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
    def allocate_prop_id(self) -> int:
        return self._prop_ids.allocate()

    def set_node_property(self, node_id: int, key: str, value: Any) -> None:
        node = self._require_available(node_id)
        new_first = self._set_property(node.first_prop, node_id, key, value)
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
        new_first = self._set_property(rel.first_prop, rel_id, key, value)
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

    def remove_relationship_property(self, rel_id: int, key: str) -> bool:
        rel = self.relationships.read(rel_id)
        new_first, removed = self._remove_property(rel.first_prop, key)
        if new_first != rel.first_prop:
            self.relationships.write(rel.with_first_prop(new_first))
        return removed

    # -- property chain helpers ----------------------------------------
    def _set_property(self, first_prop: int, owner: int, key: str, value: Any) -> int:
        """Update-or-insert into a property chain; returns the chain head."""
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            if self.properties.key_of(record) == key:
                self.properties.update_value(record, value)
                return first_prop
            prop_id = record.next_prop
        new_id = self._prop_ids.allocate()
        self.properties.create(new_id, owner, key, value, next_prop=first_prop)
        return new_id

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
    # Migration payloads (used by the cluster's two-step protocol)
    # ==================================================================
    def export_node(self, node_id: int) -> Dict[str, Any]:
        """Everything the copy step must ship for one node."""
        record = self._require_available(node_id)
        relationships = [
            {
                "rel_id": rel.rel_id,
                "src": rel.src,
                "dst": rel.dst,
                "ghost": rel.ghost,
                "properties": (
                    {} if rel.ghost else self._collect_properties(rel.first_prop)
                ),
            }
            for rel in self._chain(node_id, record.first_rel)
        ]
        return {
            "node": {
                "node_id": node_id,
                "weight": record.weight,
            },
            "properties": self._collect_properties(record.first_prop),
            "relationships": relationships,
        }

    def import_node(self, payload: Dict[str, Any]) -> None:
        """Copy-step insert: node + properties (relationships are merged
        separately because ghost/primary roles depend on the catalog)."""
        node = payload["node"]
        self.create_node(
            node["node_id"],
            weight=node["weight"],
            properties=payload["properties"],
        )

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
