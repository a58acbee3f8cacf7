"""Fixed-size record stores and Neo4j-style dynamic (chained) records.

Two storage primitives live here:

* :class:`FixedRecordStore` — struct-packed, fixed-size records placed in
  page slots.  A hash index (a ``dict``) resolves record ID -> slot
  because Hermes cannot rely on contiguous ID allocation once records
  migrate between servers (paper Section 4); freed slots are recycled.
  Only the cold enumerations (``ids``, ``records``, ``max_id``) need the
  ids in order, and they sort on demand.
* :class:`DynamicStore` — variable-length blobs split across fixed-size
  chained chunks, exactly like Neo4j's dynamic string/array stores; the
  property store keeps its keys and values here.

**What one record access costs** (DESIGN.md "Storage access path"): one
dict probe for the slot, one ``Struct.unpack_from`` straight off the
page ``bytearray`` (no intermediate ``bytes``) and the in-use and
stored-id checks on those same unpacked fields — that is
:meth:`FixedRecordStore.fields`, the single checked access — plus, for
``get``/``read``, one immutable record value decoded from them.  No
decoded record is kept: the page bytes stay the only copy of every
record.  What the traversal read plane keeps is derived data one level
up — each server's adjacency view, neighbour ids per node, and its
availability set, the node ids answered available
(``GraphStore.read_frontier``) — and the typed writers of the node and
relationship stores, not this class, drop their entries: a write through
this class alone leaves them stale.

**One slot writer, one page writer.**  :meth:`FixedRecordStore.write_fields`
is the only place one slot image is packed and written: it takes the raw
struct fields ``(flags, record_id, ...)`` — what
:meth:`~FixedRecordStore.fields` returns — so the migration paths write
the fields they read without building a record value, and
:meth:`FixedRecordStore.write` is the codec's ``encode`` in front of it.
Writes are all-or-nothing: the whole image is packed before the index,
the free list, a page or the change set is touched, so fields that do
not fit raise :class:`StorageError` and leave the store exactly as it
was.  A bulk load or a migration pair's import writes its records a
page at a time instead (:meth:`FixedRecordStore.write_columns`, numpy
records typed by ``FORMAT``), leaving what ``write_fields`` per record
leaves.
**The log hook.**  A store attached to a write-ahead log adds every slot
it writes or deletes to :attr:`FixedRecordStore.changed`, the open
transaction's change set, which the four record stores of one server
share: an entry is the store's :attr:`~FixedRecordStore.log_key` (its
store tag above :data:`SLOT_BITS`) plus the slot.  Committing reads each
entry's current slot bytes — its after-image — with
:meth:`FixedRecordStore.slot_image`.  A detached store
(``changed is None``) pays one ``is None`` test per mutation.
"""

from __future__ import annotations

import abc
import re
import struct
from itertools import compress, repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import (
    PageError,
    RecordDeletedError,
    RecordNotFoundError,
    StorageError,
    StoreCorruptionError,
)
from repro.storage.pages import PagedFile

#: Null pointer in record link fields (chains end here).
NULL_REF = -1

#: A change-set entry is ``store tag << SLOT_BITS | slot``.
SLOT_BITS = 32

#: Every record layout starts ``<Bq``: a flags byte whose low bit is
#: *in use*, then the record's own id.  A zeroed slot is a free slot.
FLAG_IN_USE = 0x1
_HEADER = struct.Struct("<Bq")

#: How codecs build ``NamedTuple`` records in ``decode``: the fields come
#: straight out of ``unpack_from``, so the keyword/default handling of
#: ``NodeRecord(...)`` (or ``_make``'s length check) would be pure overhead
#: on every read.
tuple_new = tuple.__new__


#: numpy type of each struct code the record layouts use (``s`` is sized)
_DTYPES = {"B": "u1", "H": "<u2", "q": "<i8", "d": "<f8"}


def record_dtype(layout: str) -> np.dtype:
    """The numpy record type of the struct ``layout``, field for field
    (``f0``, ``f1``, ...): its items are the bytes the struct packs."""
    kinds: List[str] = []
    for count, code in re.findall(r"(\d*)(\w)", layout[1:]):
        kinds += [f"S{count}"] if code == "s" else [_DTYPES[code]] * int(count or 1)
    return np.dtype([(f"f{i}", kind) for i, kind in enumerate(kinds)])


class RecordCodec(abc.ABC):
    """Maps one record type to/from its fixed-size byte layout.

    A subclass names the struct ``FORMAT`` (little-endian, no padding,
    starting with the ``<Bq`` header) and converts between record
    objects and the tuple of struct fields; the layout is compiled once
    per codec instance, as a struct and as a numpy record type.
    """

    FORMAT: str = ""

    def __init__(self) -> None:
        self.layout = struct.Struct(self.FORMAT)
        self.record_size = self.layout.size
        self.dtype = record_dtype(self.FORMAT)

    @abc.abstractmethod
    def encode(self, record: Any) -> Tuple:
        """Record object -> struct fields ``(flags, record_id, ...)``."""

    @abc.abstractmethod
    def decode(self, fields: Tuple) -> Any:
        """Struct fields of an in-use slot -> record object."""

    def pack(self, record: Any) -> bytes:
        """Record object -> exactly ``record_size`` bytes."""
        return self.layout.pack(*self.encode(record))

    def unpack(self, payload: bytes) -> Any:
        """Bytes -> record object."""
        return self.decode(self.layout.unpack(payload))

    def header(self, buffer: bytes, offset: int = 0) -> Tuple[bool, int]:
        """Cheap peek: ``(in_use, record_id)`` — used to rebuild indexes."""
        flags, record_id = _HEADER.unpack_from(buffer, offset)
        return bool(flags & FLAG_IN_USE), record_id


class FixedRecordStore:
    """Slotted fixed-size record storage with a hash ID index."""

    def __init__(self, codec: RecordCodec, paged_file: Optional[PagedFile] = None):
        self.codec = codec
        self.pages = paged_file or PagedFile()
        self.record_size = codec.record_size
        if self.record_size > self.pages.page_size:
            raise PageError(
                f"record size {self.record_size} exceeds page size "
                f"{self.pages.page_size}"
            )
        self.slots_per_page = self.pages.page_size // self.record_size
        self._buffers = self.pages.buffers
        #: record id -> slot
        self._index: Dict[int, int] = {}
        self._free_slots: List[int] = []
        self._next_slot = self.pages.num_pages * self.slots_per_page
        #: change set of the open log transaction (entries
        #: ``log_key + slot``); None while no write-ahead log is attached
        self.changed: Optional[Set[int]] = None
        self.log_key = 0
        if self.pages.num_pages:
            self._rebuild_index()

    # ------------------------------------------------------------------
    def _allocate_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        slot = self._next_slot
        self._next_slot += 1
        if slot // self.slots_per_page >= self.pages.num_pages:
            self.pages.allocate_page()
        return slot

    # ------------------------------------------------------------------
    def write(self, record_id: int, record: Any) -> None:
        """Insert or update the record stored under ``record_id``: its
        encoded fields, whose id must be ``record_id``, through the
        untyped :meth:`write_fields` of this class — a subclass's typed
        writer, not this one, keeps its derived views."""
        fields = self.codec.encode(record)
        if fields[1] != record_id:
            raise StorageError(
                f"record {fields[1]!r} cannot be written under id {record_id}"
            )
        FixedRecordStore.write_fields(self, fields)

    def write_fields(self, fields: Sequence) -> None:
        """Insert or update the slot of record ``fields[1]`` with the raw
        struct ``fields`` (``flags``, id, then the codec's layout).

        The image is packed — every field checked — first; fields that do
        not fit raise :class:`StorageError` with the store untouched.
        Then the slot is found or allocated, written and added to the
        open change set."""
        record_id = fields[1]
        try:
            image = self.codec.layout.pack(*fields)
        except struct.error as error:
            raise StorageError(f"record {record_id} does not fit: {error}") from error
        slot = self._index.get(record_id)
        if slot is None:
            slot = self._allocate_slot()
            self._index[record_id] = slot
        page, index = divmod(slot, self.slots_per_page)
        offset = index * self.record_size
        self._buffers[page][offset : offset + self.record_size] = image
        if self.changed is not None:
            self.changed.add(self.log_key + slot)

    def write_columns(self, columns: Sequence) -> None:
        """Write records from raw fields as columns (one per field, or one
        value for all; the id objects key the index), each id once: what
        :meth:`write_fields` per record, in column order, leaves.  A
        record the store holds is rewritten in its slot; a new one takes
        the slot ``write_fields`` would give it — the free list from its
        end, then fresh slots, a page allocated as they cross into it.
        Each page is then written once, through ``codec.dtype``.  Values
        are cast as they are: the caller checked they fit."""
        if not len(columns[1]):
            return
        records = np.empty(len(columns[1]), self.codec.dtype)
        for name, column in zip(records.dtype.names, columns, strict=True):
            records[name] = column
        ids = columns[1].tolist() if isinstance(columns[1], np.ndarray) else columns[1]
        index = self._index
        # An empty index holds none of them: a bulk load probes nothing.
        slots = np.full(len(records), -1)
        if index:
            slots = np.fromiter(map(index.get, ids, repeat(-1)), np.int64, len(records))
        new = slots < 0
        free = self._free_slots
        reused = min(len(free), int(new.sum()))
        start = self._next_slot
        self._next_slot += int(new.sum()) - reused
        reuse = np.array(free[len(free) - reused :][::-1], np.int64)
        slots[new] = np.concatenate((reuse, np.arange(start, self._next_slot)))
        del free[len(free) - reused :]
        index.update(zip(compress(ids, new.tolist()), slots[new].tolist()))
        per_page = self.slots_per_page
        while self.pages.num_pages * per_page < self._next_slot:
            self.pages.allocate_page()
        order = np.argsort(slots)
        images = records.view(np.dtype((np.void, self.record_size)))[order]
        pages, offsets = np.divmod(slots[order], per_page)
        bounds = (np.flatnonzero(pages[1:] != pages[:-1]) + 1).tolist()
        for begin, end in zip([0, *bounds], [*bounds, len(images)]):
            page = np.frombuffer(self._buffers[pages[begin]], images.dtype, per_page)
            page[offsets[begin:end]] = images[begin:end]
        if self.changed is not None:
            self.changed.update((self.log_key + slots).tolist())

    def fields(self, record_id: int) -> Optional[Tuple]:
        """The raw struct fields ``(flags, record_id, ...)`` stored under
        ``record_id``, or ``None`` when there is none — the one checked
        access every read goes through: one index probe, one in-place
        unpack, the in-use and stored-id checks, no record object."""
        slot = self._index.get(record_id)
        if slot is None:
            return None
        page, index = divmod(slot, self.slots_per_page)
        fields = self.codec.layout.unpack_from(
            self._buffers[page], index * self.record_size
        )
        if not fields[0] & FLAG_IN_USE:
            raise RecordDeletedError(f"record {record_id} is deleted")
        if fields[1] != record_id:
            raise StoreCorruptionError(
                f"index entry for record {record_id} points at the slot of "
                f"record {fields[1]}"
            )
        return fields

    def get(self, record_id: int) -> Any:
        """The record stored under ``record_id``, or ``None`` when there
        is none — nothing raised for the ordinary "not here" answer."""
        fields = self.fields(record_id)
        return None if fields is None else self.codec.decode(fields)

    def read(self, record_id: int) -> Any:
        fields = self.fields(record_id)
        if fields is None:
            raise RecordNotFoundError(f"record {record_id} not found")
        return self.codec.decode(fields)

    def delete(self, record_id: int) -> None:
        """Tombstone the record and recycle its slot."""
        slot = self._index.get(record_id)
        if slot is None:
            raise RecordNotFoundError(f"record {record_id} not found")
        page, index = divmod(slot, self.slots_per_page)
        offset = index * self.record_size
        self._buffers[page][offset : offset + self.record_size] = bytes(
            self.record_size
        )
        del self._index[record_id]
        self._free_slots.append(slot)
        if self.changed is not None:
            self.changed.add(self.log_key + slot)

    def slot_image(self, slot: int) -> bytearray:
        """A copy of the bytes currently in ``slot``."""
        page, index = divmod(slot, self.slots_per_page)
        offset = index * self.record_size
        return self._buffers[page][offset : offset + self.record_size]

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._index

    def holding(self, record_ids: Iterable) -> List[int]:
        """The positions in ``record_ids`` of the ids stored here."""
        hits = map(self._index.__contains__, record_ids)
        return [at for at, hit in enumerate(hits) if hit]

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> Iterator[int]:
        """Every stored id, ascending (sorted on demand: a cold path)."""
        return iter(sorted(self._index))

    def records(self) -> Iterator[Any]:
        for record_id in sorted(self._index):
            yield self.read(record_id)

    def max_id(self) -> Optional[int]:
        return max(self._index, default=None)

    @property
    def size_bytes(self) -> int:
        return self.pages.size_bytes

    # ------------------------------------------------------------------
    def _rebuild_index(self) -> None:
        """Scan pages after reopening or recovery: index in-use slots,
        free the rest, in slot order."""
        index_of: Dict[int, int] = {}
        self._free_slots = []
        total_slots = self.pages.num_pages * self.slots_per_page
        self._next_slot = total_slots
        for slot in range(total_slots):
            page, index = divmod(slot, self.slots_per_page)
            in_use, record_id = self.codec.header(
                self._buffers[page], index * self.record_size
            )
            if not in_use:
                self._free_slots.append(slot)
            elif record_id in index_of:
                raise StorageError(
                    f"duplicate record id {record_id} found during scan"
                )
            else:
                index_of[record_id] = slot
        self._index = index_of

    def save(self, path: str) -> None:
        self.pages.save(path)

    @classmethod
    def load(cls, path: str, codec: RecordCodec) -> "FixedRecordStore":
        return cls(codec, paged_file=PagedFile.load(path))


# ----------------------------------------------------------------------
# Dynamic (chained-chunk) storage
# ----------------------------------------------------------------------
_CHUNK_SIZE = 64
_CHUNK_PAYLOAD = _CHUNK_SIZE - struct.calcsize("<BqqH")


class _ChunkCodec(RecordCodec):
    """Chunks are plain ``(in_use, chunk_id, next_chunk, payload)`` tuples."""

    FORMAT = f"<BqqH{_CHUNK_PAYLOAD}s"  # flags, chunk_id, next_chunk, length, data

    def encode(self, record: Tuple[bool, int, int, bytes]) -> Tuple:
        in_use, chunk_id, next_chunk, payload = record
        if len(payload) > _CHUNK_PAYLOAD:
            raise StorageError("chunk payload too large")
        # ``s`` fields are NUL-padded to their width by struct itself.
        return FLAG_IN_USE if in_use else 0, chunk_id, next_chunk, len(payload), payload

    def decode(self, fields: Tuple) -> Tuple[bool, int, int, bytes]:
        flags, chunk_id, next_chunk, length, data = fields
        return bool(flags & FLAG_IN_USE), chunk_id, next_chunk, data[:length]


class DynamicStore:
    """Variable-length blob storage over chained fixed-size chunks."""

    def __init__(self, paged_file: Optional[PagedFile] = None):
        self._store = FixedRecordStore(_ChunkCodec(), paged_file=paged_file)
        max_existing = self._store.max_id()
        self._next_chunk_id = 0 if max_existing is None else max_existing + 1

    def store(self, blob: bytes) -> int:
        """Write a blob; returns the head chunk ID."""
        chunks = [
            blob[offset : offset + _CHUNK_PAYLOAD]
            for offset in range(0, len(blob), _CHUNK_PAYLOAD)
        ] or [b""]
        head = self._next_chunk_id
        self._next_chunk_id += len(chunks)
        for index, payload in enumerate(chunks):
            chunk_id = head + index
            next_chunk = chunk_id + 1 if index + 1 < len(chunks) else NULL_REF
            self._store.write(chunk_id, (True, chunk_id, next_chunk, payload))
        return head

    def fetch(self, head: int) -> bytes:
        """Read the blob whose chain starts at ``head``."""
        parts: List[bytes] = []
        chunk_id = head
        seen = set()
        while chunk_id != NULL_REF:
            if chunk_id in seen:
                raise StorageError(f"cyclic chunk chain at {chunk_id}")
            seen.add(chunk_id)
            _, _, next_chunk, payload = self._store.read(chunk_id)
            parts.append(payload)
            chunk_id = next_chunk
        return b"".join(parts)

    def free(self, head: int) -> None:
        """Delete the whole chain starting at ``head``."""
        chunk_id = head
        while chunk_id != NULL_REF:
            _, _, next_chunk, _ = self._store.read(chunk_id)
            self._store.delete(chunk_id)
            chunk_id = next_chunk

    @property
    def num_chunks(self) -> int:
        return len(self._store)

    @property
    def size_bytes(self) -> int:
        return self._store.size_bytes

    def save(self, path: str) -> None:
        self._store.save(path)

    @classmethod
    def load(cls, path: str) -> "DynamicStore":
        return cls(paged_file=PagedFile.load(path))
