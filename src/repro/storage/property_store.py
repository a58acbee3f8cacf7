"""The property store: fixed index records + dynamic key/value blobs.

Neo4j's "two layer architecture where a fixed size record store is used to
store the offsets and a dynamic size record store is used to hold the
properties" (Section 4).  Each property record points at two chains in the
dynamic store (key, value) and links to the owner's next property record.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Optional, Tuple

from repro.storage.pages import PagedFile
from repro.storage.records import (
    FLAG_IN_USE,
    NULL_REF,
    DynamicStore,
    FixedRecordStore,
    RecordCodec,
    tuple_new,
)
from repro.storage.values import decode_value, encode_value


class PropertyRecord(NamedTuple):
    """One fixed-size property index record (immutable)."""

    prop_id: int
    owner_id: int
    next_prop: int = NULL_REF
    key_blob: int = NULL_REF
    value_blob: int = NULL_REF

    def with_next_prop(self, prop_id: int) -> "PropertyRecord":
        return self._replace(next_prop=prop_id)

    def with_value_blob(self, blob: int) -> "PropertyRecord":
        return self._replace(value_blob=blob)


class PropertyCodec(RecordCodec):
    FORMAT = "<B5q"  # flags, prop_id, owner_id, next_prop, key_blob, value_blob

    def encode(self, record: PropertyRecord) -> Tuple:
        return (FLAG_IN_USE,) + record

    def decode(self, fields: Tuple) -> PropertyRecord:
        return tuple_new(PropertyRecord, fields[1:])


class PropertyStore:
    """Property index records plus their dynamic key/value storage."""

    def __init__(
        self,
        paged_file: Optional[PagedFile] = None,
        dynamic_file: Optional[PagedFile] = None,
    ):
        self._store = FixedRecordStore(PropertyCodec(), paged_file=paged_file)
        self._dynamic = DynamicStore(paged_file=dynamic_file)

    # ------------------------------------------------------------------
    def create(
        self, prop_id: int, owner_id: int, key: str, value: Any, next_prop: int = NULL_REF
    ) -> PropertyRecord:
        """Materialize a property: blobs into the dynamic store + index record."""
        record = PropertyRecord(
            prop_id=prop_id,
            owner_id=owner_id,
            next_prop=next_prop,
            key_blob=self._dynamic.store(key.encode("utf-8")),
            value_blob=self._dynamic.store(encode_value(value)),
        )
        self._store.write(record.prop_id, record)
        return record

    def write(self, record: PropertyRecord) -> None:
        self._store.write(record.prop_id, record)

    def read(self, prop_id: int) -> PropertyRecord:
        return self._store.read(prop_id)

    def key_of(self, record: PropertyRecord) -> str:
        return self._dynamic.fetch(record.key_blob).decode("utf-8")

    def value_of(self, record: PropertyRecord) -> Any:
        return decode_value(self._dynamic.fetch(record.value_blob))

    def update_value(self, record: PropertyRecord, value: Any) -> PropertyRecord:
        """Replace a property's value blob in place."""
        self._dynamic.free(record.value_blob)
        updated = record.with_value_blob(self._dynamic.store(encode_value(value)))
        self._store.write(updated.prop_id, updated)
        return updated

    def delete(self, prop_id: int) -> None:
        """Remove the index record and free both blobs."""
        record = self._store.read(prop_id)
        if record.key_blob != NULL_REF:
            self._dynamic.free(record.key_blob)
        if record.value_blob != NULL_REF:
            self._dynamic.free(record.value_blob)
        self._store.delete(prop_id)

    # ------------------------------------------------------------------
    def __contains__(self, prop_id: int) -> bool:
        return prop_id in self._store

    def __len__(self) -> int:
        return len(self._store)

    def ids(self) -> Iterator[int]:
        return self._store.ids()

    def max_id(self) -> Optional[int]:
        return self._store.max_id()

    def record_stores(self) -> Tuple[FixedRecordStore, FixedRecordStore]:
        """The index-record store and the dynamic chunk store beneath it."""
        return self._store, self._dynamic._store

    @property
    def size_bytes(self) -> int:
        return self._store.size_bytes + self._dynamic.size_bytes
