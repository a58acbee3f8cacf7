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

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import StorageError
from repro.storage.pages import PagedFile
from repro.storage.records import (
    FLAG_IN_USE,
    NULL_REF,
    FixedRecordStore,
    RecordCodec,
    tuple_new,
)

FLAG_GHOST = 0x2

#: Positions in the raw fields of a relationship slot
#: (``RelationshipCodec.FORMAT`` order), for code that works from
#: ``FixedRecordStore.fields`` / ``write_fields`` and builds no record.
(
    REL_FLAGS,
    REL_ID,
    REL_SRC,
    REL_DST,
    REL_SRC_PREV,
    REL_SRC_NEXT,
    REL_DST_PREV,
    REL_DST_NEXT,
    REL_FIRST_PROP,
) = range(9)


def rel_flags(ghost: bool) -> int:
    """The flags of an in-use relationship slot in the ``ghost`` role."""
    return FLAG_IN_USE | FLAG_GHOST if ghost else FLAG_IN_USE


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
        return (rel_flags(record.ghost),) + record[:8]

    def decode(self, fields: Tuple) -> RelationshipRecord:
        return tuple_new(
            RelationshipRecord, fields[1:] + (fields[0] & FLAG_GHOST != 0,)
        )


class RelationshipStore(FixedRecordStore):
    """The relationship record store, keyed by each record's ``rel_id``.

    ``adjacency`` is the server's adjacency view, shared with its
    :class:`~repro.storage.node_store.NodeStore`: writing or deleting a
    record drops the entries of both its endpoints, whose chains it may
    be part of.  The typed writers take the record's fields (or the
    record, encoded), so neither reads one back to learn its endpoints.
    """

    def __init__(
        self,
        paged_file: Optional[PagedFile] = None,
        adjacency: Optional[Dict[int, Sequence[int]]] = None,
    ):
        super().__init__(RelationshipCodec(), paged_file=paged_file)
        self.adjacency = {} if adjacency is None else adjacency

    def write(self, record: RelationshipRecord) -> None:
        self.write_fields(self.codec.encode(record))

    def write_fields(self, fields: Sequence) -> None:
        super().write_fields(fields)
        adjacency = self.adjacency
        if adjacency:  # empty during a bulk load: one test per record
            adjacency.pop(fields[REL_SRC], None)
            adjacency.pop(fields[REL_DST], None)

    def write_columns(self, columns: Sequence) -> None:
        super().write_columns(columns)
        adjacency = self.adjacency
        if adjacency:  # empty during a bulk load
            ends = {*columns[REL_SRC].tolist(), *columns[REL_DST].tolist()}
            for node_id in adjacency.keys() & ends:
                del adjacency[node_id]

    def delete(self, record: RelationshipRecord) -> None:
        """Tombstone ``record`` (as last read) and recycle its slot."""
        self.delete_fields(self.codec.encode(record))

    def delete_fields(self, fields: Sequence) -> None:
        """Tombstone the record whose fields (as last read) are
        ``fields`` and recycle its slot."""
        super().delete(fields[REL_ID])
        adjacency = self.adjacency
        adjacency.pop(fields[REL_SRC], None)
        adjacency.pop(fields[REL_DST], None)
