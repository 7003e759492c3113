import pytest

from ctisim.encoding import Reader, Writer
from ctisim.errors import EncodingError


ALL_KINDS = (
    Writer()
    .put_uint(7)
    .put_bytes(b"\x01\x02")
    .put_str("hello")
    .put_bool(True)
    .put_count(3)
    .getvalue()
)


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
    assert Writer().put_uint(1).getvalue() == b"\x00" * 7 + b"\x01"


def test_bytes_are_length_prefixed():
    assert Writer().put_bytes(b"ab").getvalue() == b"\x00\x00\x00\x02ab"


def test_negative_uint_rejected():
    with pytest.raises(EncodingError):
        Writer().put_uint(-1)


def test_truncated_data_raises():
    data = Writer().put_bytes(b"abcdef").getvalue()
    with pytest.raises(EncodingError):
        Reader(data[:-2]).take_bytes()


def test_trailing_bytes_rejected():
    data = Writer().put_uint(1).getvalue() + b"\x00"
    r = Reader(data)
    r.take_uint()
    with pytest.raises(EncodingError):
        r.expect_end()


def test_bad_bool_byte_rejected():
    with pytest.raises(EncodingError):
        Reader(b"\x02").take_bool()


def test_invalid_utf8_rejected():
    with pytest.raises(EncodingError, match="utf-8"):
        Reader(Writer().put_bytes(b"\xff\xfe").getvalue()).take_str()
