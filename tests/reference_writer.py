"""Reference copy of the field-by-field canonical writer.

The package encodes with one-shot field helpers (`ctisim.encoding`); tests
build the bytes those helpers must match with this independent writer, and
the transaction id `ctisim.ledger.Transaction.create` must match with
`ref_id`.
"""

import hashlib
import struct

from ctisim.errors import EncodingError


class Writer:
    """Accumulates canonical bytes field by field."""

    def __init__(self):
        self._parts = []

    def put_uint(self, value):
        if not 0 <= value < 2**64:
            raise EncodingError(f"unsigned field got {value}, not in [0, 2**64)")
        self._parts.append(struct.pack(">Q", value))
        return self

    def put_bytes(self, value):
        value = bytes(value)
        self._parts.append(struct.pack(">I", len(value)) + value)
        return self

    def put_str(self, value):
        return self.put_bytes(value.encode("utf-8"))

    def put_bool(self, value):
        self._parts.append(b"\x01" if value else b"\x00")
        return self

    def put_count(self, n):
        if n < 0:
            raise EncodingError("negative collection count")
        self._parts.append(struct.pack(">I", n))
        return self

    def getvalue(self):
        return b"".join(self._parts)


def ref_id(author, kind, payload):
    """A transaction id: sha256 of the encoding of (author, kind name, payload)."""
    return hashlib.sha256(Writer().put_bytes(author).put_str(kind.value).put_bytes(payload).getvalue()).digest()
