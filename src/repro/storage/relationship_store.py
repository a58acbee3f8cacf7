"""The relationship store: fixed-size, doubly-linked relationship records.

Hermes "uses a doubly-linked list record model when keeping track of
relationships.  A node needs to know only the first relationship in the
list since the rest can be retrieved by following the links" (Section 4).
Each record therefore carries *four* link fields: previous/next in the
source endpoint's chain and previous/next in the destination endpoint's
chain.

Cross-partition edges get a **ghost** record on the partition that does
not own the relationship's properties: the ghost preserves the graph
structure (so adjacency lists remain fully local) but holds no property
chain.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.exceptions import StorageError
from repro.storage.pages import PagedFile
from repro.storage.records import (
    FLAG_IN_USE,
    NULL_REF,
    FixedRecordStore,
    RecordCodec,
    tuple_new,
)

_FLAG_GHOST = 0x2

#: Positions in the raw fields of a relationship slot
#: (``RelationshipCodec.FORMAT`` order), for readers that work from
#: ``FixedRecordStore.fields`` and build no record.
REL_ID, REL_SRC, REL_DST, REL_SRC_NEXT, REL_DST_NEXT = 1, 2, 3, 5, 7


class RelationshipRecord(NamedTuple):
    """One fixed-size relationship record (immutable; ``with_*`` copy)."""

    rel_id: int
    src: int
    dst: int
    src_prev: int = NULL_REF
    src_next: int = NULL_REF
    dst_prev: int = NULL_REF
    dst_next: int = NULL_REF
    first_prop: int = NULL_REF
    ghost: bool = False

    def _not_an_endpoint(self, node_id: int) -> StorageError:
        return StorageError(
            f"node {node_id} is not an endpoint of relationship {self.rel_id}"
        )

    def other_endpoint(self, node_id: int) -> int:
        if node_id == self.src:
            return self.dst
        if node_id == self.dst:
            return self.src
        raise self._not_an_endpoint(node_id)

    def next_for(self, node_id: int) -> int:
        """Next relationship in ``node_id``'s chain."""
        if node_id == self.src:
            return self.src_next
        if node_id == self.dst:
            return self.dst_next
        raise self._not_an_endpoint(node_id)

    def prev_for(self, node_id: int) -> int:
        if node_id == self.src:
            return self.src_prev
        if node_id == self.dst:
            return self.dst_prev
        raise self._not_an_endpoint(node_id)

    def with_next_for(self, node_id: int, rel_id: int) -> "RelationshipRecord":
        if node_id == self.src:
            return self._replace(src_next=rel_id)
        if node_id == self.dst:
            return self._replace(dst_next=rel_id)
        raise self._not_an_endpoint(node_id)

    def with_prev_for(self, node_id: int, rel_id: int) -> "RelationshipRecord":
        if node_id == self.src:
            return self._replace(src_prev=rel_id)
        if node_id == self.dst:
            return self._replace(dst_prev=rel_id)
        raise self._not_an_endpoint(node_id)

    def with_first_prop(self, prop_id: int) -> "RelationshipRecord":
        return self._replace(first_prop=prop_id)

    def with_ghost(self, ghost: bool) -> "RelationshipRecord":
        return self._replace(ghost=ghost)


class RelationshipCodec(RecordCodec):
    #: flags, rel_id, src, dst, src_prev, src_next, dst_prev, dst_next, first_prop
    FORMAT = "<B8q"

    def encode(self, record: RelationshipRecord) -> Tuple:
        flags = FLAG_IN_USE | _FLAG_GHOST if record.ghost else FLAG_IN_USE
        return (flags,) + record[:8]

    def decode(self, fields: Tuple) -> RelationshipRecord:
        return tuple_new(
            RelationshipRecord, fields[1:] + (fields[0] & _FLAG_GHOST != 0,)
        )


class RelationshipStore(FixedRecordStore):
    """The relationship record store, keyed by each record's ``rel_id``."""

    def __init__(self, paged_file: Optional[PagedFile] = None):
        super().__init__(RelationshipCodec(), paged_file=paged_file)

    def write(self, record: RelationshipRecord) -> None:
        super().write(record.rel_id, record)
