"""The node store: fixed-size node records.

A node record keeps only the bare minimum (paper Section 4: "basic
information on nodes"): its first relationship pointer (the head of the
doubly-linked relationship chain), its first property pointer, its read
popularity weight, and two flags — ``in_use`` and ``available``.  The
*available* flag implements the migration remove step: an unavailable node
is treated by queries as if it were not part of the local vertex set.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

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
#: for readers that work from ``FixedRecordStore.fields`` and build no record.
NODE_FLAGS, NODE_FIRST_REL = 0, 2


class NodeRecord(NamedTuple):
    """One fixed-size node record (immutable; ``with_*`` return copies)."""

    node_id: int
    first_rel: int = NULL_REF
    first_prop: int = NULL_REF
    weight: float = 1.0
    available: bool = True

    def with_first_rel(self, rel_id: int) -> "NodeRecord":
        return self._replace(first_rel=rel_id)

    def with_first_prop(self, prop_id: int) -> "NodeRecord":
        return self._replace(first_prop=prop_id)

    def with_weight(self, weight: float) -> "NodeRecord":
        return self._replace(weight=weight)

    def with_available(self, available: bool) -> "NodeRecord":
        return self._replace(available=available)


class NodeCodec(RecordCodec):
    FORMAT = "<Bqqqd"  # flags, node_id, first_rel, first_prop, weight

    def encode(self, record: NodeRecord) -> Tuple:
        node_id, first_rel, first_prop, weight, available = record
        flags = FLAG_IN_USE | FLAG_AVAILABLE if available else FLAG_IN_USE
        return flags, node_id, first_rel, first_prop, weight

    def decode(self, fields: Tuple) -> NodeRecord:
        flags, node_id, first_rel, first_prop, weight = fields
        return tuple_new(
            NodeRecord,
            (node_id, first_rel, first_prop, weight, flags & FLAG_AVAILABLE != 0),
        )


class NodeStore(FixedRecordStore):
    """The node record store, keyed by each record's own ``node_id``."""

    def __init__(self, paged_file: Optional[PagedFile] = None):
        super().__init__(NodeCodec(), paged_file=paged_file)

    def write(self, record: NodeRecord) -> None:
        super().write(record.node_id, record)
