"""The node store: fixed-size node records.

A node record keeps only the bare minimum (paper Section 4: "basic
information on nodes"): its first relationship pointer (the head of the
doubly-linked relationship chain), its first property pointer, the
weight it was loaded or inserted with (live popularity is auxiliary data,
which reads update instead), and two flags — ``in_use`` and
``available``.  The *available* flag implements the migration remove
step: an unavailable node is treated by queries as if it were not part of
the local vertex set.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Set, Tuple

from repro.storage.pages import PagedFile
from repro.storage.records import (
    FLAG_IN_USE,
    NULL_REF,
    FixedRecordStore,
    RecordCodec,
    tuple_new,
)

FLAG_AVAILABLE = 0x2

#: Positions in the raw fields of a node slot (``NodeCodec.FORMAT`` order),
#: for code that works from ``FixedRecordStore.fields`` /
#: ``write_fields`` and builds no record.
NODE_FLAGS, NODE_ID, NODE_FIRST_REL, NODE_FIRST_PROP, NODE_WEIGHT = range(5)

#: The flags of an in-use, available node slot.
NODE_IN_USE_AVAILABLE = FLAG_IN_USE | FLAG_AVAILABLE


class NodeRecord(NamedTuple):
    """One fixed-size node record (immutable; ``with_*`` return copies)."""

    node_id: int
    first_rel: int = NULL_REF
    first_prop: int = NULL_REF
    weight: float = 1.0
    available: bool = True

    def with_first_prop(self, prop_id: int) -> "NodeRecord":
        return self._replace(first_prop=prop_id)

    def with_available(self, available: bool) -> "NodeRecord":
        return self._replace(available=available)


class NodeCodec(RecordCodec):
    FORMAT = "<Bqqqd"  # flags, node_id, first_rel, first_prop, weight

    def encode(self, record: NodeRecord) -> Tuple:
        node_id, first_rel, first_prop, weight, available = record
        flags = NODE_IN_USE_AVAILABLE if available else FLAG_IN_USE
        return flags, node_id, first_rel, first_prop, weight

    def decode(self, fields: Tuple) -> NodeRecord:
        flags, node_id, first_rel, first_prop, weight = fields
        return tuple_new(
            NodeRecord,
            (node_id, first_rel, first_prop, weight, flags & FLAG_AVAILABLE != 0),
        )


class NodeStore(FixedRecordStore):
    """The node record store, keyed by each record's own ``node_id``.

    ``adjacency`` is the server's adjacency view (node id -> neighbour ids
    in chain order), shared with its :class:`RelationshipStore`, and
    ``available`` its availability set (node ids last read in use and
    available): writing or deleting a node drops that node from both,
    since its chain head, its availability or its existence may have
    changed.
    """

    def __init__(
        self,
        paged_file: Optional[PagedFile] = None,
        adjacency: Optional[Dict[int, Sequence[int]]] = None,
        available: Optional[Set[int]] = None,
    ):
        super().__init__(NodeCodec(), paged_file=paged_file)
        self.adjacency = {} if adjacency is None else adjacency
        self.available = set() if available is None else available

    def write(self, record: NodeRecord) -> None:
        self.write_fields(self.codec.encode(record))

    def write_fields(self, fields: Sequence) -> None:
        super().write_fields(fields)
        node_id = fields[NODE_ID]
        self.adjacency.pop(node_id, None)
        self.available.discard(node_id)

    def write_columns(self, columns: Sequence) -> None:
        super().write_columns(columns)
        if self.adjacency or self.available:
            for node_id in columns[NODE_ID]:
                self.adjacency.pop(node_id, None)
                self.available.discard(node_id)

    def delete(self, node_id: int) -> None:
        super().delete(node_id)
        self.adjacency.pop(node_id, None)
        self.available.discard(node_id)
