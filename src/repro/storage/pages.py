"""Paged byte storage with optional on-disk persistence.

All record stores allocate fixed-size pages from a :class:`PagedFile`.
Pages live in memory (the cluster simulator's "disk"); :meth:`save` and
:meth:`load` persist them with a checksummed header so the crash-recovery
tests can reopen a store and verify integrity.
"""

from __future__ import annotations

import struct
import zlib
from typing import List

from repro.exceptions import PageError, StoreCorruptionError

#: File header: magic, format version, page size, page count.
_HEADER = struct.Struct("<4sIII")
_MAGIC = b"HRMS"
_VERSION = 1


class PagedFile:
    """A growable array of fixed-size pages."""

    DEFAULT_PAGE_SIZE = 4096

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size < 64:
            raise PageError(f"page size must be >= 64 bytes, got {page_size}")
        self.page_size = page_size
        #: the pages themselves, in order.  Record stores hold this list
        #: and pack/unpack records in place on its bytearrays (no copy);
        #: the list object is never replaced, only appended to.
        self.buffers: List[bytearray] = []

    @property
    def num_pages(self) -> int:
        return len(self.buffers)

    @property
    def size_bytes(self) -> int:
        return self.num_pages * self.page_size

    def allocate_page(self) -> int:
        """Append a zeroed page; returns its index."""
        self.buffers.append(bytearray(self.page_size))
        return len(self.buffers) - 1

    def _page(self, index: int) -> bytearray:
        if not 0 <= index < len(self.buffers):
            raise PageError(f"page {index} out of range [0, {len(self.buffers)})")
        return self.buffers[index]

    def read(self, page: int, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` within one page."""
        data = self._page(page)
        if offset < 0 or offset + length > self.page_size:
            raise PageError(
                f"read [{offset}, {offset + length}) exceeds page size "
                f"{self.page_size}"
            )
        return bytes(data[offset : offset + length])

    def write(self, page: int, offset: int, payload: bytes) -> None:
        """Write ``payload`` at ``offset`` within one page."""
        data = self._page(page)
        if offset < 0 or offset + len(payload) > self.page_size:
            raise PageError(
                f"write [{offset}, {offset + len(payload)}) exceeds page size "
                f"{self.page_size}"
            )
        data[offset : offset + len(payload)] = payload

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write header + per-page CRC table + page bytes."""
        with open(path, "wb") as handle:
            handle.write(
                _HEADER.pack(_MAGIC, _VERSION, self.page_size, self.num_pages)
            )
            for page in self.buffers:
                handle.write(struct.pack("<I", zlib.crc32(page)))
            for page in self.buffers:
                handle.write(page)

    @classmethod
    def load(cls, path: str) -> "PagedFile":
        """Reopen a saved file, verifying the checksum of every page."""
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise StoreCorruptionError(f"{path}: truncated header")
            magic, version, page_size, num_pages = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise StoreCorruptionError(f"{path}: bad magic {magic!r}")
            if version != _VERSION:
                raise StoreCorruptionError(
                    f"{path}: unsupported format version {version}"
                )
            checksums = []
            for _ in range(num_pages):
                raw = handle.read(4)
                if len(raw) < 4:
                    raise StoreCorruptionError(f"{path}: truncated CRC table")
                checksums.append(struct.unpack("<I", raw)[0])
            paged = cls(page_size=page_size)
            for index in range(num_pages):
                payload = handle.read(page_size)
                if len(payload) < page_size:
                    raise StoreCorruptionError(f"{path}: truncated page {index}")
                if zlib.crc32(payload) != checksums[index]:
                    raise StoreCorruptionError(f"{path}: CRC mismatch on page {index}")
                paged.buffers.append(bytearray(payload))
            return paged
