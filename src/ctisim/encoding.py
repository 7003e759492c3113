"""Canonical byte serialization.

Every hashed structure is serialized as length-prefixed big-endian
fields in declared order: unsigned integers are 8 bytes,
variable-length byte strings carry a 4-byte length prefix, collections a
4-byte count prefix. This keeps digests bit-exact and replayable.
The `*_field` functions encode one field each; the one-shot encoders in
`cti` and `ledger` join them. `FIELD_CODECS` maps each field annotation to
its encoder and `Reader` method, and the `layout` class decorator gives a
`typing.NamedTuple` the wire layout of its annotated fields through that
table. Each such class gets one generated encoder, compiled once when the
class is defined, that writes its fields in order without a per-field
lookup: its bytes, str, int and bool fields inline, in one `b"".join`,
exactly as their codecs in the table write them, and only a collection
through its codec. It also gets a decoder that builds the tuple with one
`tuple.__new__`. A named tuple, not a dataclass, because a dataclass
generates and compiles its `__init__`, `__repr__`, `__eq__`,
`__setattr__`, `__delattr__` and `__hash__` at every import, and builds
each instance with one `__setattr__` per field. For the same reason the
mutable state classes are slotted classes, and the six that tests
compare share one `__eq__` and `__repr__` through `ComparedByFields`.

Reading raises EncodingError, and nothing else, for malformed input:
truncation, trailing bytes, a boolean byte other than 0 or 1, and invalid
UTF-8.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import Callable, Sequence, TypeVar, get_type_hints

from .errors import EncodingError

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN

Digest = bytes

UINT = struct.Struct(">Q")
UINT_LIMIT = 1 << 64  # an unsigned field holds an integer in [0, UINT_LIMIT)
COUNT = struct.Struct(">I")

_pack_uint = UINT.pack
_pack_count = COUNT.pack


def uint_field(value: int) -> bytes:
    """An unsigned integer field: 8 bytes, big-endian. A value outside
    [0, UINT_LIMIT) raises EncodingError."""
    try:
        return _pack_uint(value)
    except struct.error:
        raise EncodingError(f"unsigned field got {value!r}, not an integer in [0, 2**64)") from None


def bytes_field(value: bytes) -> bytes:
    """A byte-string field: its 4-byte length, then the bytes."""
    return _pack_count(len(value)) + value


def str_field(value: str) -> bytes:
    """A string field: the byte-string field of its UTF-8 encoding."""
    return bytes_field(value.encode("utf-8"))


class TaggedEnum(Enum):
    """An Enum whose members carry `tag`, their value as a string field, so
    an encoder reads an attribute rather than hashing the member."""

    def __init__(self, value: str):
        self.tag = str_field(value)


class ComparedByFields:
    """Equality and repr for a mutable slotted class, read from its
    `__slots__` in order, as a dataclass generates them: equal to an
    instance of the same class whose fields are equal, unhashable, and
    printed as `Name(field=value, ...)`. Written once here, not generated
    per class at import."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def bool_field(value: bool) -> bytes:
    """A boolean field: one byte, 1 or 0."""
    return b"\x01" if value else b"\x00"


def str_seq_field(values: Sequence[str]) -> bytes:
    """A string collection: its 4-byte count, then each string field."""
    return _pack_count(len(values)) + b"".join(map(str_field, values))


def bytes_seq_field(values: Sequence[bytes]) -> bytes:
    """A byte-string collection: its 4-byte count, then each byte-string field."""
    return _pack_count(len(values)) + b"".join(map(bytes_field, values))


_TRUNCATED = "truncated canonical data"


class Reader:
    """Reads fields back in order; raises EncodingError on malformed input.

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

    def take_str_seq(self) -> tuple[str, ...]:
        return tuple([self.take_str() for _ in range(self.take_count())])

    def take_bytes_seq(self) -> tuple[bytes, ...]:
        return tuple([self.take_bytes() for _ in range(self.take_count())])

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise EncodingError("trailing bytes after canonical data")


# The wire format of every field a layout declares: its annotation's
# encoder and the Reader method that reads it back.
FIELD_CODECS: dict[object, tuple[Callable, Callable]] = {
    bytes: (bytes_field, Reader.take_bytes),
    str: (str_field, Reader.take_str),
    int: (uint_field, Reader.take_uint),
    bool: (bool_field, Reader.take_bool),
    tuple[str, ...]: (str_seq_field, Reader.take_str_seq),
    tuple[bytes, ...]: (bytes_seq_field, Reader.take_bytes_seq),
}


_T = TypeVar("_T", bound=type)
_tuple_new = tuple.__new__


def layout(cls: _T) -> _T:
    """Make a named tuple's fields, in declared order, its bytes.

    Looks each field's annotation up in FIELD_CODECS once, so an annotation
    with no codec raises TypeError when the class is defined, and generates
    the class's `encode` from that table: one function that unpacks the
    tuple once and writes a bytes, str, int or bool field inline, and a
    collection through its codec (an int that does not fit raises
    `uint_field`'s EncodingError). `decode` reads the fields back with no
    bytes left over and builds the instance from them with one
    `tuple.__new__`.
    """
    hints = get_type_hints(cls)
    for name, hint in hints.items():
        if hint not in FIELD_CODECS:
            raise TypeError(f"{cls.__name__}.{name}: no wire codec for {hint!r}")
    cls.encode = _generated_encoder(cls.__name__, hints)
    cls._readers = tuple(FIELD_CODECS[hint][1] for hint in hints.values())
    cls.decode = classmethod(_decode)
    return cls


def _decode(cls, data: bytes):
    r = Reader(data)
    values = [read(r) for read in cls._readers]
    r.expect_end()
    return _tuple_new(cls, values)


def _generated_encoder(class_name: str, hints: dict[str, object]) -> Callable:
    """Compile `encode(self)` for a layout with these field hints.

    A bytes, str, int or bool field is written inline, as its codec in
    FIELD_CODECS writes it; a collection calls its codec. A struct.error
    from an int field re-raises through `uint_field`, field by field in
    order, so the first bad value raises uint_field's EncodingError.
    """
    # a named tuple's field names cannot start with "_", so no field's
    # local shadows these
    namespace: dict[str, object] = {
        "__name__": __name__,
        "_pack_count": _pack_count,
        "_pack_uint": _pack_uint,
        "_struct_error": struct.error,
        "_uint_field": uint_field,
    }
    parts = []
    for name, hint in hints.items():
        if hint is bytes:
            parts.append(f"_pack_count(len({name})), {name}")
        elif hint is str:
            # assigned inside the join, so fields still encode in order
            parts.append(f"_pack_count(len(_utf8_{name} := {name}.encode('utf-8'))), _utf8_{name}")
        elif hint is int:
            parts.append(f"_pack_uint({name})")
        elif hint is bool:
            parts.append(f"(b'\\x01' if {name} else b'\\x00')")
        else:
            namespace[f"_encode_{name}"] = FIELD_CODECS[hint][0]
            parts.append(f"_encode_{name}({name})")
    join = f"b''.join(({''.join(part + ', ' for part in parts)}))"
    uints = [name for name, hint in hints.items() if hint is int]
    lines = ["def encode(self):", f"    {''.join(name + ', ' for name in hints)}= self"]
    if uints:
        lines += ["    try:", f"        return {join}", "    except _struct_error:"]
        lines += [f"        _uint_field({name})" for name in uints]
        lines.append("        raise")
    else:
        lines.append(f"    return {join}")
    exec("\n".join(lines) + "\n", namespace)
    fn = namespace["encode"]
    fn.__qualname__ = f"{class_name}.encode"
    return fn
