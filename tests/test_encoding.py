from typing import NamedTuple

import pytest

from ctisim.encoding import COUNT, UINT_LIMIT, Reader, layout, bytes_field, str_field, uint_field
from ctisim.errors import EncodingError


ALL_KINDS = uint_field(7) + bytes_field(b"\x01\x02") + str_field("hello") + b"\x01" + COUNT.pack(3)


def read_all_kinds(data):
    r = Reader(data)
    fields = (r.take_uint(), r.take_bytes(), r.take_str(), r.take_bool(), r.take_count())
    r.expect_end()
    return fields


def test_round_trip_all_field_kinds():
    uint, raw, text, flag, count = read_all_kinds(ALL_KINDS)
    assert uint == 7
    assert raw == b"\x01\x02"
    assert text == "hello"
    assert flag is True
    assert count == 3


def test_cut_at_any_offset_raises():
    for cut in range(len(ALL_KINDS)):
        with pytest.raises(EncodingError, match="truncated"):
            read_all_kinds(ALL_KINDS[:cut])


def test_uint_is_big_endian_fixed_width():
    assert uint_field(1) == b"\x00" * 7 + b"\x01"


def test_bytes_are_length_prefixed():
    assert bytes_field(b"ab") == b"\x00\x00\x00\x02ab"


def test_negative_uint_rejected():
    with pytest.raises(EncodingError):
        uint_field(-1)


def test_uint_at_or_past_the_limit_rejected():
    assert uint_field(UINT_LIMIT - 1) == b"\xff" * 8
    for value in (UINT_LIMIT, UINT_LIMIT + 1, 2**100):
        with pytest.raises(EncodingError, match="not an integer in"):
            uint_field(value)


def test_truncated_data_raises():
    data = bytes_field(b"abcdef")
    with pytest.raises(EncodingError):
        Reader(data[:-2]).take_bytes()


def test_trailing_bytes_rejected():
    data = uint_field(1) + b"\x00"
    r = Reader(data)
    r.take_uint()
    with pytest.raises(EncodingError):
        r.expect_end()


def test_bad_bool_byte_rejected():
    with pytest.raises(EncodingError):
        Reader(b"\x02").take_bool()


def test_invalid_utf8_rejected():
    with pytest.raises(EncodingError, match="utf-8"):
        Reader(bytes_field(b"\xff\xfe")).take_str()


def test_layout_field_without_a_codec_fails_at_class_definition():
    with pytest.raises(TypeError, match="Quote.price"):

        @layout
        class Quote(NamedTuple):
            contract_id: bytes
            price: float

