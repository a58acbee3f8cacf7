"""Typed property-value serialization for the dynamic property store.

Neo4j stores property values in dynamic-length records with a type tag;
this is the equivalent codec.  ``pickle`` is deliberately avoided — stored
bytes must be safe to exchange between servers during migration.

Supported types: None, bool, int, float, str, bytes, and (possibly
nested) lists of these.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from repro.exceptions import StorageError

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6
_TAG_LIST = 7

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")


def encode_value(value: Any) -> bytes:
    """Serialize a property value to bytes (raises StorageError if untyped)."""
    parts: List[bytes] = []
    try:
        _encode_into(value, parts)
    except UnicodeEncodeError as error:
        raise StorageError(f"property text is not valid UTF-8: {error}") from error
    return b"".join(parts)


def _encode_into(value: Any, parts: List[bytes]) -> None:
    if value is None:
        parts.append(bytes([_TAG_NONE]))
    elif value is True:
        parts.append(bytes([_TAG_TRUE]))
    elif value is False:
        parts.append(bytes([_TAG_FALSE]))
    elif isinstance(value, int):
        payload = value.to_bytes(
            max(1, (value.bit_length() + 8) // 8), "little", signed=True
        )
        parts.append(bytes([_TAG_INT]))
        parts.append(_U32.pack(len(payload)))
        parts.append(payload)
    elif isinstance(value, float):
        parts.append(bytes([_TAG_FLOAT]))
        parts.append(_F64.pack(value))
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        parts.append(bytes([_TAG_STR]))
        parts.append(_U32.pack(len(payload)))
        parts.append(payload)
    elif isinstance(value, bytes):
        parts.append(bytes([_TAG_BYTES]))
        parts.append(_U32.pack(len(value)))
        parts.append(value)
    elif isinstance(value, list):
        parts.append(bytes([_TAG_LIST]))
        parts.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(item, parts)
    else:
        raise StorageError(
            f"unsupported property value type: {type(value).__name__}"
        )


def decode_value(payload: bytes) -> Any:
    """Inverse of :func:`encode_value`."""
    value, offset = _decode_from(payload, 0)
    if offset != len(payload):
        raise StorageError(
            f"trailing bytes after value: consumed {offset} of {len(payload)}"
        )
    return value


def _decode_from(payload: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(payload):
        raise StorageError("truncated value payload")
    tag = payload[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_FLOAT:
        end = offset + _F64.size
        _check_length(payload, end)
        return _F64.unpack_from(payload, offset)[0], end
    if tag in (_TAG_INT, _TAG_STR, _TAG_BYTES):
        end = offset + _U32.size
        _check_length(payload, end)
        length = _U32.unpack_from(payload, offset)[0]
        offset = end
        end = offset + length
        _check_length(payload, end)
        chunk = payload[offset:end]
        if tag == _TAG_INT:
            return int.from_bytes(chunk, "little", signed=True), end
        if tag == _TAG_STR:
            return chunk.decode("utf-8"), end
        return bytes(chunk), end
    if tag == _TAG_LIST:
        end = offset + _U32.size
        _check_length(payload, end)
        count = _U32.unpack_from(payload, offset)[0]
        offset = end
        items = []
        for _ in range(count):
            item, offset = _decode_from(payload, offset)
            items.append(item)
        return items, offset
    raise StorageError(f"unknown value tag {tag}")


def _check_length(payload: bytes, end: int) -> None:
    if end > len(payload):
        raise StorageError("truncated value payload")
