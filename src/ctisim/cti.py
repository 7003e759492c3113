"""Data model for shared intelligence records and their indicators.

A record's id is the digest of its canonical bytes (`record_bytes`), and
those are the only bytes `decode_record` reads: a record has one spelling,
so a decoded record's id is the digest of the very bytes decoded. A
record from `make_record` or `decode_record` keeps the exact bytes its id
hashes (`encoded`), so `record_bytes` returns them without encoding again;
a record built any other way, directly or by `dataclasses.replace`, keeps
none and is encoded from its fields. Decoding raises EncodingError, and
nothing else, for input that does not decode to a record or is not its
canonical spelling. It parses each distinct policy text once (the last
`POLICY_MEMO_SIZE` are kept). Every field but `record_id` and `encoded` is
serialized, and no label or policy can be built illegal, so every record
`make_record` returns decodes back equal to itself, with the same id. What
the simulation knows and the chain must not (whether a record is genuine)
the engine keeps beside its records, not on them.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

from .access_control import AttributePolicy, TlpChannel, TlpLabel, parse_policy, policy_to_string
from .encoding import (
    COUNT, ZERO_DIGEST, Digest, Reader, TaggedEnum, bytes_field, bytes_seq_field, str_field, uint_field,
)
from .errors import EncodingError, PolicyParseError
from .ledger import sha256


class CtiCategory(TaggedEnum):
    Strategic = "Strategic"
    Operational = "Operational"
    Tactical = "Tactical"
    Technical = "Technical"


class IntelLevel(TaggedEnum):
    Data = "Data"
    Information = "Information"
    Intelligence = "Intelligence"


class IocKind(TaggedEnum):
    IpAddress = "IpAddress"
    Domain = "Domain"
    FileHash = "FileHash"
    Url = "Url"
    Rule = "Rule"


# Members bound once, compared by identity (why: see the note at the bound
# members in `contracts`).
_TECHNICAL = CtiCategory.Technical
_DATA, _INFORMATION, _INTELLIGENCE = IntelLevel.Data, IntelLevel.Information, IntelLevel.Intelligence
_IP_ADDRESS, _DOMAIN, _FILE_HASH, _URL = IocKind.IpAddress, IocKind.Domain, IocKind.FileHash, IocKind.Url


class Ioc(NamedTuple):
    kind: IocKind
    value: str
    observed_round: int


class FormatViolation(NamedTuple):
    field: str
    message: str


@dataclass(frozen=True)
class CtiRecord:
    record_id: Digest
    producer: Digest
    category: CtiCategory
    level: IntelLevel
    indicators: tuple[Ioc, ...]
    narrative_digest: Digest
    tlp: TlpLabel
    policy: Optional[AttributePolicy]
    sale_price: Optional[int]
    created_round: int
    # the bytes record_id hashes, set only by make_record and decode_record
    encoded: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)


def _ioc_syntax_problem(ioc: Ioc) -> Optional[str]:
    value, kind = ioc.value, ioc.kind
    if not value:
        return "empty value"
    if kind is _IP_ADDRESS:
        try:
            ipaddress.IPv4Address(value)
        except (ipaddress.AddressValueError, ValueError):
            return "not a dotted-quad IPv4 address"
    elif kind is _DOMAIN:
        # split() breaks at exactly the characters isspace() accepts
        if "." not in value or value.split() != [value] or "://" in value:
            return "not a plausible domain name"
    elif kind is _URL:
        if "://" not in value:
            return "missing scheme"
    elif kind is _FILE_HASH:
        stripped = value.lower()
        if len(stripped) < 32 or len(stripped) % 2 or any(c not in "0123456789abcdef" for c in stripped):
            return "not a hex digest"
    return None


def validate_format(record: CtiRecord) -> list[FormatViolation]:
    """Sharing-standard checks; an empty list means the record is well formed."""
    out: list[FormatViolation] = []
    technical = record.category is _TECHNICAL
    if technical and not record.indicators:
        out.append(FormatViolation("indicators.empty", "Technical records need indicators"))
    if technical and record.level is _INTELLIGENCE:
        out.append(FormatViolation("level", "Technical records are data or information only"))
    for i, ioc in enumerate(record.indicators):
        problem = _ioc_syntax_problem(ioc)
        if problem:
            out.append(FormatViolation(f"indicators[{i}].value", problem))
        if ioc.observed_round < 0:
            out.append(FormatViolation(f"indicators[{i}].observed_round", "negative round"))
    if record.sale_price is not None and record.sale_price < 0:
        out.append(FormatViolation("sale_price", "negative price"))
    if record.created_round < 0:
        out.append(FormatViolation("created_round", "negative round"))
    return out


def classify_level(
    record: CtiRecord, linked_values: frozenset[str] = frozenset()
) -> IntelLevel:
    """Data / information / intelligence classification.

    linked_values are indicator values known (from mining) to be campaign
    correlated; two or more of them in one record lift it to Information.
    A non-zero narrative digest on a non-technical record is Intelligence.
    """
    return _level_of(record.category, record.indicators, record.narrative_digest, linked_values)


def _level_of(
    category: CtiCategory,
    indicators: tuple[Ioc, ...],
    narrative_digest: Digest,
    linked_values: frozenset[str] = frozenset(),
) -> IntelLevel:
    if category is not _TECHNICAL and narrative_digest != ZERO_DIGEST:
        return _INTELLIGENCE
    linked = sum(1 for ioc in indicators if ioc.value in linked_values)
    if linked >= 2:
        return _INFORMATION
    return _DATA


# --- canonical serialization -------------------------------------------------

_pack_count = COUNT.pack

_CATEGORY = {c.value: c for c in CtiCategory}
_LEVEL = {lv.value: lv for lv in IntelLevel}
_IOC_KIND = {k.value: k for k in IocKind}
_CHANNEL = {c.value: c for c in TlpChannel}

POLICY_MEMO_SIZE = 256  # policy texts decode_record keeps parsed, least recent out first


def _canonical_bytes(
    producer: Digest,
    category: CtiCategory,
    level: IntelLevel,
    indicators: tuple[Ioc, ...],
    narrative_digest: Digest,
    tlp: TlpLabel,
    policy: Optional[AttributePolicy],
    sale_price: Optional[int],
    created_round: int,
) -> bytes:
    parts = [
        bytes_field(producer),
        category.tag,
        level.tag,
        _pack_count(len(indicators)),
    ]
    for ioc in indicators:
        parts += (ioc.kind.tag, str_field(ioc.value), uint_field(ioc.observed_round))
    parts += (bytes_field(narrative_digest), tlp.channel.tag, bytes_seq_field(sorted(tlp.designated)))
    if policy is None:
        parts.append(b"\x00")
    else:
        parts += (b"\x01", str_field(policy_to_string(policy)))
    if sale_price is None:
        parts.append(b"\x00")
    else:
        parts += (b"\x01", uint_field(sale_price))
    parts.append(uint_field(created_round))
    return b"".join(parts)


def record_bytes(record: CtiRecord) -> bytes:
    """Canonical bytes: every field except record_id."""
    if record.encoded is not None:
        return record.encoded
    return _canonical_bytes(
        record.producer,
        record.category,
        record.level,
        record.indicators,
        record.narrative_digest,
        record.tlp,
        record.policy,
        record.sale_price,
        record.created_round,
    )


def record_id_for(data: bytes) -> Digest:
    return sha256(b"cti-record:" + data)


def _keeping(record: CtiRecord, data: bytes) -> CtiRecord:
    """`record`, carrying `data`, the bytes its id is the digest of."""
    object.__setattr__(record, "encoded", data)
    return record


def make_record(
    producer: Digest,
    category: CtiCategory,
    indicators: tuple[Ioc, ...],
    narrative_digest: Digest,
    tlp: TlpLabel,
    policy: Optional[AttributePolicy],
    sale_price: Optional[int],
    created_round: int,
    level: Optional[IntelLevel] = None,
) -> CtiRecord:
    """Build a record, deriving its level and content-addressed id."""
    if level is None:
        level = _level_of(category, indicators, narrative_digest)
    data = _canonical_bytes(
        producer, category, level, indicators, narrative_digest, tlp, policy, sale_price, created_round
    )
    return _keeping(CtiRecord(
        record_id=record_id_for(data),
        producer=producer,
        category=category,
        level=level,
        indicators=indicators,
        narrative_digest=narrative_digest,
        tlp=tlp,
        policy=policy,
        sale_price=sale_price,
        created_round=created_round,
    ), data)


def _member(table: dict, name: str, field: str):
    member = table.get(name)
    if member is None:
        raise EncodingError(f"unknown {field} {name!r}")
    return member


@lru_cache(maxsize=POLICY_MEMO_SIZE)
def _decoded_policy(text: str) -> AttributePolicy:
    """A record's policy text parsed. Memoised by text: records repeat a few
    policies, and a parsed policy is immutable. Text that does not parse,
    or is not `policy_to_string` of its parse, raises and so is not cached."""
    try:
        policy = parse_policy(text)
    except PolicyParseError as exc:
        raise EncodingError(f"bad policy in record: {exc}") from None
    if policy_to_string(policy) != text:
        raise EncodingError("policy in record not in its canonical spelling")
    return policy


def decode_record(data: bytes) -> CtiRecord:
    """Inverse of record_bytes: `data` is the record's canonical bytes, and
    its id is `record_id_for(data)`.

    Raises EncodingError for any malformed input, including an unknown
    category, level, indicator kind or TLP channel name, a label or policy
    its constructor refuses (with the constructor's words), and for every
    spelling `record_bytes` never writes: designated entries that are not
    sorted and unique, a policy not in `policy_to_string`'s spelling.
    """
    r = Reader(data)
    producer = r.take_bytes()
    category = _member(_CATEGORY, r.take_str(), "category")
    level = _member(_LEVEL, r.take_str(), "level")
    indicators = tuple(
        Ioc(_member(_IOC_KIND, r.take_str(), "indicator kind"), r.take_str(), r.take_uint())
        for _ in range(r.take_count())
    )
    narrative = r.take_bytes()
    channel = _member(_CHANNEL, r.take_str(), "TLP channel")
    entries = r.take_bytes_seq()
    if any(a >= b for a, b in zip(entries, entries[1:])):
        raise EncodingError("designated entries not sorted and unique")
    try:
        tlp = TlpLabel(channel, frozenset(entries))
    except ValueError as exc:
        raise EncodingError(str(exc)) from None
    policy = _decoded_policy(r.take_str()) if r.take_bool() else None
    sale_price = r.take_uint() if r.take_bool() else None
    created_round = r.take_uint()
    r.expect_end()
    return _keeping(CtiRecord(
        record_id_for(data), producer, category, level, indicators, narrative, tlp,
        policy, sale_price, created_round,
    ), data)
