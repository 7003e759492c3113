import pytest

from ctisim.access_control import TlpChannel, TlpLabel, parse_policy
from ctisim.encoding import ZERO_DIGEST
from ctisim.cti import (
    CtiCategory,
    IntelLevel,
    Ioc,
    IocKind,
    classify_level,
    decode_record,
    make_record,
    record_bytes,
    validate_format,
)
from ctisim.ledger import sha256

PRODUCER = sha256(b"producer")
WHITE = TlpLabel(TlpChannel.White)


def technical(indicators, **kwargs):
    defaults = dict(
        producer=PRODUCER,
        category=CtiCategory.Technical,
        indicators=indicators,
        narrative_digest=ZERO_DIGEST,
        tlp=WHITE,
        policy=None,
        sale_price=None,
        created_round=1,
    )
    defaults.update(kwargs)
    return make_record(**defaults)


def test_valid_ip_record_passes():
    rec = technical((Ioc(IocKind.IpAddress, "10.0.0.1", 1),))
    assert validate_format(rec) == []


def test_technical_requires_indicators():
    rec = technical(())
    fields = [v.field for v in validate_format(rec)]
    assert "indicators.empty" in fields


def test_bad_ip_octet_flagged():
    rec = technical((Ioc(IocKind.IpAddress, "999.1.1.1", 1),))
    fields = [v.field for v in validate_format(rec)]
    assert fields == ["indicators[0].value"]


@pytest.mark.parametrize(
    "kind,value,ok",
    [
        (IocKind.IpAddress, "192.168.0.255", True),
        (IocKind.IpAddress, "1.2.3", False),
        (IocKind.IpAddress, "a.b.c.d", False),
        (IocKind.Domain, "evil.example", True),
        (IocKind.Domain, "nodots", False),
        (IocKind.Domain, "spa ced.example", False),
        (IocKind.Domain, " evil.example", False),
        (IocKind.Domain, "evil.example\n", False),
        (IocKind.Domain, "evil\u3000.example", False),
        (IocKind.Domain, "evil\x1c.example", False),
        (IocKind.Domain, " . ", False),
        (IocKind.Domain, "evil\u200b.example", True),
        (IocKind.Url, "http://evil.example/x", True),
        (IocKind.Url, "evil.example/x", False),
        (IocKind.FileHash, "a" * 64, True),
        (IocKind.FileHash, "zz" * 20, False),
        (IocKind.FileHash, "ab", False),
        (IocKind.Rule, "alert tcp any any -> any any", True),
        (IocKind.Rule, "", False),
    ],
)
def test_ioc_kind_syntax(kind, value, ok):
    rec = technical((Ioc(kind, value, 1),))
    violations = validate_format(rec)
    assert (violations == []) is ok


def test_split_finds_whitespace_exactly_where_isspace_does():
    """The domain check's `value.split() != [value]` against `c.isspace()`,
    on every code point."""
    def split_finds_space(c):
        value = "a" + c + "b"
        return value.split() != [value]

    chars = map(chr, range(0x110000))
    assert [c for c in chars if split_finds_space(c) != c.isspace()] == []


def test_tlp_structure_checked():
    """A label no record may carry cannot be built, so no record carries one."""
    for channel, names, problem in [
        (TlpChannel.Red, [], "Red requires exactly one designated recipient"),
        (TlpChannel.Red, ["a", "b"], "Red requires exactly one designated recipient"),
        (TlpChannel.Orange, [], "Orange requires a non-empty designated group"),
        (TlpChannel.Green, ["a"], "Green must not carry a designated set"),
        (TlpChannel.White, ["a"], "White must not carry a designated set"),
    ]:
        with pytest.raises(ValueError, match=f"^{problem}$"):
            TlpLabel(channel, frozenset(sha256(n.encode()) for n in names))


def test_single_ioc_technical_record_is_data():
    rec = technical((Ioc(IocKind.IpAddress, "10.0.0.1", 1),))
    assert rec.level is IntelLevel.Data
    assert classify_level(rec) is IntelLevel.Data


def test_tactical_with_narrative_is_intelligence():
    rec = make_record(
        producer=PRODUCER,
        category=CtiCategory.Tactical,
        indicators=(),
        narrative_digest=sha256(b"ttp narrative"),
        tlp=WHITE,
        policy=None,
        sale_price=None,
        created_round=2,
    )
    assert rec.level is IntelLevel.Intelligence


def test_campaign_linked_indicators_are_information():
    rec = technical(
        (
            Ioc(IocKind.Domain, "shared-1.example", 1),
            Ioc(IocKind.Domain, "shared-2.example", 1),
        )
    )
    linked = frozenset({"shared-1.example", "shared-2.example"})
    assert classify_level(rec, linked_values=linked) is IntelLevel.Information
    assert classify_level(rec) is IntelLevel.Data


def test_technical_never_intelligence():
    rec = technical(
        (Ioc(IocKind.Domain, "a.example", 1),), narrative_digest=sha256(b"story")
    )
    assert rec.level in (IntelLevel.Data, IntelLevel.Information)


def test_record_id_stable_across_round_trip():
    rec = technical(
        (Ioc(IocKind.Domain, "a.example", 1),),
        policy=parse_policy("(and ICS-ISAC gov)"),
        sale_price=5,
    )
    decoded = decode_record(record_bytes(rec))
    assert decoded == rec
    assert decoded.record_id == rec.record_id


def test_record_id_changes_with_content():
    a = technical((Ioc(IocKind.Domain, "a.example", 1),))
    b = technical((Ioc(IocKind.Domain, "b.example", 1),))
    assert a.record_id != b.record_id
