"""Neo4j-style storage engine (paper Section 4).

Hermes extends Neo4j's storage layer; this package rebuilds that layer in
Python with the same record model:

* three stores — **node**, **relationship** and **property** — where node
  and relationship records are fixed-size and struct-packed into pages,
  and property values live in a dynamic (variable-length) store;
* relationships are kept in **doubly-linked chains** per endpoint: a node
  records only its first relationship, the rest are reached by following
  the links — so the adjacency list is recovered with purely local reads;
* cross-partition relationships get a **ghost** counterpart record on the
  remote side that preserves graph structure but carries no properties;
* a monotonically increasing **ID allocator** plus a **hash index** from
  record ID to storage slot (Hermes replaced Neo4j's offset-based
  addressing because migrated records break contiguous ID allocation);
* a **write-ahead log** of slot images: one checksummed frame per
  committed transaction, replayed into the pages on recovery.
"""

from repro.storage.graph_store import GraphStore
from repro.storage.ids import IdAllocator
from repro.storage.node_store import NodeRecord, NodeStore
from repro.storage.pages import PagedFile
from repro.storage.property_store import PropertyRecord, PropertyStore
from repro.storage.records import RecordCodec
from repro.storage.relationship_store import RelationshipRecord, RelationshipStore
from repro.storage.values import decode_value, encode_value
from repro.storage.wal import WriteAheadLog, encode_transaction, redo

__all__ = [
    "WriteAheadLog",
    "encode_transaction",
    "redo",
    "IdAllocator",
    "PagedFile",
    "RecordCodec",
    "NodeStore",
    "NodeRecord",
    "RelationshipStore",
    "RelationshipRecord",
    "PropertyStore",
    "PropertyRecord",
    "GraphStore",
    "encode_value",
    "decode_value",
]
