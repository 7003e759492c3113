"""Canonical byte serialization.

Every hashed or signed structure is serialized as length-prefixed
big-endian fields in declared order: unsigned integers are 8 bytes,
variable-length byte strings carry a 4-byte length prefix, collections a
4-byte count prefix. This keeps digests bit-exact and replayable.
`uint_field`, `bytes_field` and `str_field` encode one field each;
`Writer` and the one-shot encoders in `cti` and `ledger` build on them.

Reading raises EncodingError, and nothing else, for malformed input:
truncation, trailing bytes, a boolean byte other than 0 or 1, and invalid
UTF-8.
"""

from __future__ import annotations

import struct

from .errors import EncodingError

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN

Digest = bytes

UINT = struct.Struct(">Q")
COUNT = struct.Struct(">I")

_pack_uint = UINT.pack
_pack_count = COUNT.pack


def uint_field(value: int) -> bytes:
    """An unsigned integer field: 8 bytes, big-endian."""
    if value < 0:
        raise EncodingError(f"unsigned field got negative value {value}")
    return _pack_uint(value)


def bytes_field(value: bytes) -> bytes:
    """A byte-string field: its 4-byte length, then the bytes."""
    return _pack_count(len(value)) + value


def str_field(value: str) -> bytes:
    """A string field: the byte-string field of its UTF-8 encoding."""
    return bytes_field(value.encode("utf-8"))


class Writer:
    """Accumulates canonical bytes field by field."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def put_uint(self, value: int) -> "Writer":
        self._parts.append(uint_field(value))
        return self

    def put_bytes(self, value: bytes) -> "Writer":
        self._parts.append(bytes_field(bytes(value)))
        return self

    def put_str(self, value: str) -> "Writer":
        self._parts.append(str_field(value))
        return self

    def put_bool(self, value: bool) -> "Writer":
        self._parts.append(b"\x01" if value else b"\x00")
        return self

    def put_count(self, n: int) -> "Writer":
        if n < 0:
            raise EncodingError("negative collection count")
        self._parts.append(_pack_count(n))
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


_TRUNCATED = "truncated canonical data"


class Reader:
    """Mirror of Writer; raises EncodingError on truncation or trailing bytes.

    Fields are unpacked in place at the current offset; a fixed-width field
    is bounds-checked by `unpack_from` itself, a length-prefixed one once
    more against its declared length.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take_uint(self) -> int:
        pos = self._pos
        try:
            (value,) = UINT.unpack_from(self._data, pos)
        except struct.error:
            raise EncodingError(_TRUNCATED) from None
        self._pos = pos + 8
        return value

    def take_count(self) -> int:
        pos = self._pos
        try:
            (value,) = COUNT.unpack_from(self._data, pos)
        except struct.error:
            raise EncodingError(_TRUNCATED) from None
        self._pos = pos + 4
        return value

    def take_bytes(self) -> bytes:
        pos = self._pos
        try:
            (n,) = COUNT.unpack_from(self._data, pos)
        except struct.error:
            raise EncodingError(_TRUNCATED) from None
        end = pos + 4 + n
        if end > len(self._data):
            raise EncodingError(_TRUNCATED)
        self._pos = end
        return self._data[pos + 4 : end]

    def take_str(self) -> str:
        try:
            return str(self.take_bytes(), "utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError("invalid utf-8 in canonical data") from exc

    def take_bool(self) -> bool:
        pos = self._pos
        if pos >= len(self._data):
            raise EncodingError(_TRUNCATED)
        byte = self._data[pos]
        if byte > 1:
            raise EncodingError("invalid boolean byte")
        self._pos = pos + 1
        return byte == 1

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise EncodingError("trailing bytes after canonical data")
