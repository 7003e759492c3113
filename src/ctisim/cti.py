"""Data model for shared intelligence records and their indicators.

A record's id is the digest of its canonical bytes. Two fields never
serialize: ground_truth (the simulation's hidden oracle for measuring
verifier behavior) and each indicator's campaign_hint (a hidden generator
label used only to score the miner). Nothing agent-visible or on-chain may
carry either.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .access_control import AttributePolicy, TlpChannel, TlpLabel, parse_policy, policy_to_string
from .encoding import ZERO_DIGEST, Digest, Reader, Writer
from .ledger import sha256


class CtiCategory(Enum):
    Strategic = "Strategic"
    Operational = "Operational"
    Tactical = "Tactical"
    Technical = "Technical"


class IntelLevel(Enum):
    Data = "Data"
    Information = "Information"
    Intelligence = "Intelligence"


class GroundTruth(Enum):
    Genuine = "Genuine"
    Fabricated = "Fabricated"


class IocKind(Enum):
    IpAddress = "IpAddress"
    Domain = "Domain"
    FileHash = "FileHash"
    Url = "Url"
    Rule = "Rule"


@dataclass(frozen=True)
class Ioc:
    kind: IocKind
    value: str
    observed_round: int
    campaign_hint: Optional[str] = None  # generator-only; never serialized


@dataclass(frozen=True)
class FormatViolation:
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
    ground_truth: Optional[GroundTruth] = None  # hidden oracle; None once decoded


def _ioc_syntax_problem(ioc: Ioc) -> Optional[str]:
    if not ioc.value:
        return "empty value"
    if ioc.kind is IocKind.IpAddress:
        try:
            ipaddress.IPv4Address(ioc.value)
        except (ipaddress.AddressValueError, ValueError):
            return "not a dotted-quad IPv4 address"
    elif ioc.kind is IocKind.Domain:
        if "." not in ioc.value or any(c.isspace() for c in ioc.value) or "://" in ioc.value:
            return "not a plausible domain name"
    elif ioc.kind is IocKind.Url:
        if "://" not in ioc.value:
            return "missing scheme"
    elif ioc.kind is IocKind.FileHash:
        stripped = ioc.value.lower()
        if len(stripped) < 32 or len(stripped) % 2 or any(c not in "0123456789abcdef" for c in stripped):
            return "not a hex digest"
    return None


def validate_format(record: CtiRecord) -> list[FormatViolation]:
    """Sharing-standard checks; an empty list means the record is well formed."""
    out: list[FormatViolation] = []
    if record.category is CtiCategory.Technical and not record.indicators:
        out.append(FormatViolation("indicators.empty", "Technical records need indicators"))
    if record.category is CtiCategory.Technical and record.level is IntelLevel.Intelligence:
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
    for problem in record.tlp.problems():
        out.append(FormatViolation("tlp.designated", problem))
    return out


def classify_level(
    record: CtiRecord, linked_values: frozenset[str] = frozenset()
) -> IntelLevel:
    """Data / information / intelligence classification.

    linked_values are indicator values known (from mining) to be campaign
    correlated; two or more of them in one record lift it to Information.
    A non-zero narrative digest on a non-technical record is Intelligence.
    """
    has_narrative = record.narrative_digest != ZERO_DIGEST
    if record.category is not CtiCategory.Technical and has_narrative:
        return IntelLevel.Intelligence
    linked = sum(1 for ioc in record.indicators if ioc.value in linked_values)
    if linked >= 2:
        return IntelLevel.Information
    return IntelLevel.Data


# --- canonical serialization -------------------------------------------------

def record_bytes(record: CtiRecord) -> bytes:
    """Canonical bytes: every field except record_id and the hidden ones."""
    w = Writer()
    w.put_bytes(record.producer)
    w.put_str(record.category.value)
    w.put_str(record.level.value)
    w.put_count(len(record.indicators))
    for ioc in record.indicators:
        w.put_str(ioc.kind.value)
        w.put_str(ioc.value)
        w.put_uint(ioc.observed_round)
    w.put_bytes(record.narrative_digest)
    w.put_str(record.tlp.channel.value)
    designated = sorted(record.tlp.designated) if record.tlp.designated else []
    w.put_count(len(designated))
    for d in designated:
        w.put_bytes(d)
    w.put_bool(record.policy is not None)
    if record.policy is not None:
        w.put_str(policy_to_string(record.policy))
    w.put_bool(record.sale_price is not None)
    if record.sale_price is not None:
        w.put_uint(record.sale_price)
    w.put_uint(record.created_round)
    return w.getvalue()


def record_id_for(data: bytes) -> Digest:
    return sha256(b"cti-record:" + data)


def make_record(
    producer: Digest,
    category: CtiCategory,
    indicators: tuple[Ioc, ...],
    narrative_digest: Digest,
    tlp: TlpLabel,
    policy: Optional[AttributePolicy],
    sale_price: Optional[int],
    created_round: int,
    ground_truth: Optional[GroundTruth],
    level: Optional[IntelLevel] = None,
) -> CtiRecord:
    """Build a record, deriving its level and content-addressed id."""
    rec = CtiRecord(
        record_id=ZERO_DIGEST,
        producer=producer,
        category=category,
        level=level or IntelLevel.Data,
        indicators=indicators,
        narrative_digest=narrative_digest,
        tlp=tlp,
        policy=policy,
        sale_price=sale_price,
        created_round=created_round,
        ground_truth=ground_truth,
    )
    if level is None:
        rec = replace(rec, level=classify_level(rec))
    return replace(rec, record_id=record_id_for(record_bytes(rec)))


def decode_record(data: bytes) -> CtiRecord:
    """Inverse of record_bytes; hidden fields come back unknown (None)."""
    r = Reader(data)
    producer = r.take_bytes()
    category = CtiCategory(r.take_str())
    level = IntelLevel(r.take_str())
    indicators = []
    for _ in range(r.take_count()):
        kind = IocKind(r.take_str())
        value = r.take_str()
        observed = r.take_uint()
        indicators.append(Ioc(kind, value, observed))
    narrative = r.take_bytes()
    channel = TlpChannel(r.take_str())
    n_designated = r.take_count()
    designated = frozenset(r.take_bytes() for _ in range(n_designated)) or None
    if channel in (TlpChannel.Green, TlpChannel.White):
        designated = None
    policy = parse_policy(r.take_str()) if r.take_bool() else None
    sale_price = r.take_uint() if r.take_bool() else None
    created_round = r.take_uint()
    r.expect_end()
    rec = CtiRecord(
        record_id=ZERO_DIGEST,
        producer=producer,
        category=category,
        level=level,
        indicators=tuple(indicators),
        narrative_digest=narrative,
        tlp=TlpLabel(channel, designated),
        policy=policy,
        sale_price=sale_price,
        created_round=created_round,
        ground_truth=None,
    )
    computed = record_id_for(record_bytes(rec))
    return replace(rec, record_id=computed)
