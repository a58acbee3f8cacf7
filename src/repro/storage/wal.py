"""The write-ahead log: a physical redo log of record-store slot images.

Neo4j — which Hermes extends — "provides a disk-based, transactional
persistence engine (ACID compliant)" (Section 4), and its transaction log
is a log of record commands.  This module is that log for the stores of
one server:

* :class:`WriteAheadLog` — an append-only log of framed, checksummed
  payloads.  Each frame carries its own CRC, so a torn tail write (the
  classic crash artifact) is detected and the log ends at the first
  damaged frame.
* one frame is one **committed transaction**: the allocator state at
  commit followed by the after-image of every record-store slot the
  transaction changed, as ``(store tag, slot, image)`` entries
  (:func:`encode_transaction`).  A frame is written whole and flushed
  once, so a crash keeps or loses a transaction as a unit.
* :func:`redo` — recovery: the slot images of one frame written back
  into the pages they came from.  Images are absolute, so redo is
  idempotent.

Redo only, by construction: pages reach stable storage only at a
checkpoint, a checkpoint is taken with no transaction open (no-steal),
and a transaction is never in the log before it commits — so the
durable log holds no loser and needs no before-images.  The store side
of the protocol is :class:`~repro.storage.records.FixedRecordStore`'s
change set; the per-server orchestration (commit boundaries,
checkpoints, crash and rebuild) is
:class:`~repro.cluster.durability.ServerJournal`.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.exceptions import StorageError
from repro.storage.pages import PagedFile

_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32
#: allocator state at commit: id-space stripes, relationship and property counters
_TXN_HEADER = struct.Struct("<qqq")
_ENTRY_HEADER = struct.Struct("<BIH")  # store tag, slot, image length

#: ``(num_stripes, rel_counter, prop_counter)``
AllocatorState = Tuple[int, int, int]


class WriteAheadLog:
    """Append-only framed log, in memory with optional file persistence.

    Frames are ``(length, crc32, payload)``; iteration stops at the
    first frame whose CRC fails or whose bytes are incomplete — the
    recovery-safe interpretation of a torn write.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._buffer = bytearray()
        self._flushed = 0  # bytes guaranteed durable
        if path is not None and os.path.exists(path):
            with open(path, "rb") as handle:
                self._buffer = bytearray(handle.read())
            self._flushed = len(self._buffer)

    # ------------------------------------------------------------------
    def append(self, payload: bytes) -> None:
        """Frame ``payload`` onto the tail (durable once flushed)."""
        self._buffer += _FRAME_HEADER.pack(len(payload), zlib.crc32(payload))
        self._buffer += payload

    def flush(self) -> None:
        """Force the log to stable storage (commit durability point)."""
        if self.path is not None:
            with open(self.path, "wb") as handle:
                handle.write(self._buffer)
                handle.flush()
                os.fsync(handle.fileno())
        self._flushed = len(self._buffer)

    def simulate_crash(self, keep_unflushed_bytes: int = 0) -> None:
        """Drop everything after the last flush (plus an optional torn
        prefix of unflushed bytes) — the test hook for crash injection."""
        keep = min(len(self._buffer), self._flushed + max(0, keep_unflushed_bytes))
        del self._buffer[keep:]

    # ------------------------------------------------------------------
    def frames(self) -> Iterator[bytes]:
        """Payloads in log order, up to the end or the first damaged frame."""
        offset = 0
        buffer = self._buffer
        while offset + _FRAME_HEADER.size <= len(buffer):
            length, crc = _FRAME_HEADER.unpack_from(buffer, offset)
            start = offset + _FRAME_HEADER.size
            end = start + length
            if end > len(buffer):
                return  # torn tail
            payload = bytes(buffer[start:end])
            if zlib.crc32(payload) != crc:
                return  # damaged frame: ignore it and everything after
            yield payload
            offset = end

    def __len__(self) -> int:
        return sum(1 for _ in self.frames())

    @property
    def size_bytes(self) -> int:
        return len(self._buffer)

    def truncate(self) -> None:
        """Checkpoint: all stores are known durable; restart the log."""
        self._buffer = bytearray()
        self._flushed = 0
        if self.path is not None and os.path.exists(self.path):
            os.remove(self.path)


def encode_transaction(
    allocators: AllocatorState, entries: Iterable[Tuple[int, int, bytes]]
) -> bytes:
    """One transaction frame's payload: the allocator state, then every
    ``(store tag, slot, after-image)`` entry."""
    parts = [_TXN_HEADER.pack(*allocators)]
    pack_entry = _ENTRY_HEADER.pack
    for tag, slot, image in entries:
        parts.append(pack_entry(tag, slot, len(image)))
        parts.append(image)
    return b"".join(parts)


def redo(payload: bytes, files: Sequence[PagedFile]) -> AllocatorState:
    """Write one transaction frame's slot images into ``files`` (indexed
    by store tag, growing them as needed); returns its allocator state."""
    if len(payload) < _TXN_HEADER.size:
        raise StorageError("truncated WAL transaction header")
    allocators = _TXN_HEADER.unpack_from(payload)
    offset = _TXN_HEADER.size
    while offset < len(payload):
        if offset + _ENTRY_HEADER.size > len(payload):
            raise StorageError("truncated WAL entry header")
        tag, slot, length = _ENTRY_HEADER.unpack_from(payload, offset)
        start = offset + _ENTRY_HEADER.size
        offset = start + length
        if tag >= len(files) or offset > len(payload):
            raise StorageError("malformed WAL entry")
        paged = files[tag]
        if not 0 < length <= paged.page_size:
            raise StorageError(f"WAL image of {length} bytes fits no slot")
        page, index = divmod(slot, paged.page_size // length)
        while paged.num_pages <= page:
            paged.allocate_page()
        position = index * length
        paged.buffers[page][position : position + length] = payload[start:offset]
    return allocators
