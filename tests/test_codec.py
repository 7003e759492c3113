"""Property tests for the canonical codecs: payload bodies and CTI records.

Payload bodies are checked against reference encoders written field by
field with the reference `Writer`. Every body class in `ctisim.payloads`
must have a strategy and a reference encoder here, so a new body cannot
ship untested. The record codec is checked against reference copies of the
encoder and decoder it replaced (a `Writer`-based `record_bytes`, a decoder
over a slice-taking reader that re-encodes what it parsed and refuses input
that differs from that re-encoding), on canonical, non-canonical and
mutated bytes. A reader accepts one spelling of a record: the one
`record_bytes` writes.
"""

import functools
import struct
from dataclasses import replace
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctisim import cti, encoding, payloads
from ctisim.access_control import (
    MAX_POLICY_DEPTH,
    AttributePolicy,
    TlpChannel,
    TlpLabel,
    parse_policy,
    policy_to_string,
)
from ctisim.cti import (
    POLICY_MEMO_SIZE,
    CtiCategory,
    CtiRecord,
    IntelLevel,
    Ioc,
    IocKind,
    classify_level,
    decode_record,
    make_record,
    record_bytes,
    record_id_for,
)
from ctisim.encoding import ZERO_DIGEST
from ctisim.errors import EncodingError, PolicyParseError
from ctisim.payloads import (
    AccessGrantBody,
    FinalizeBody,
    PurchaseBody,
    RegisterBody,
    RenewBody,
    ReputationUpdateBody,
    SubmitCtiBody,
    VoteBody,
)
from tests.reference_writer import Writer

# --- reference codec ----------------------------------------------------------


def ref_record_bytes(record):
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
    designated = sorted(record.tlp.designated)
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


def ref_make_record(producer, category, indicators, narrative_digest, tlp, policy,
                    sale_price, created_round, level=None):
    rec = CtiRecord(ZERO_DIGEST, producer, category, level or IntelLevel.Data, indicators,
                    narrative_digest, tlp, policy, sale_price, created_round)
    if level is None:
        rec = replace(rec, level=classify_level(rec))
    return replace(rec, record_id=record_id_for(ref_record_bytes(rec)))


class RefReader:
    def __init__(self, data):
        self._data = data
        self._pos = 0

    def _take(self, n):
        if self._pos + n > len(self._data):
            raise EncodingError("truncated canonical data")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def take_uint(self):
        return struct.unpack(">Q", self._take(8))[0]

    def take_count(self):
        return struct.unpack(">I", self._take(4))[0]

    def take_bytes(self):
        return self._take(self.take_count())

    def take_str(self):
        try:
            return self.take_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError("invalid utf-8 in canonical data") from exc

    def take_bool(self):
        byte = self._take(1)
        if byte not in (b"\x00", b"\x01"):
            raise EncodingError("invalid boolean byte")
        return byte == b"\x01"

    def expect_end(self):
        if self._pos != len(self._data):
            raise EncodingError("trailing bytes after canonical data")


def ref_decode_record(data):
    """Parse, build, re-encode; bad names and policies, and input that is not
    its own re-encoding, are EncodingError."""
    r = RefReader(data)
    try:
        producer = r.take_bytes()
        category = CtiCategory(r.take_str())
        level = IntelLevel(r.take_str())
        indicators = []
        for _ in range(r.take_count()):
            kind = IocKind(r.take_str())
            indicators.append(Ioc(kind, r.take_str(), r.take_uint()))
        narrative = r.take_bytes()
        channel = TlpChannel(r.take_str())
        n_designated = r.take_count()
        tlp = TlpLabel(channel, frozenset(r.take_bytes() for _ in range(n_designated)))
        policy = parse_policy(r.take_str()) if r.take_bool() else None
    except (ValueError, PolicyParseError) as exc:
        raise EncodingError(str(exc)) from exc
    sale_price = r.take_uint() if r.take_bool() else None
    created_round = r.take_uint()
    r.expect_end()
    rec = CtiRecord(ZERO_DIGEST, producer, category, level, tuple(indicators), narrative,
                    tlp, policy, sale_price, created_round)
    if ref_record_bytes(rec) != data:
        raise EncodingError("not the canonical spelling")
    return replace(rec, record_id=record_id_for(data))


def outcome(fn, *args):
    """The value fn returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except (EncodingError, struct.error) as exc:
        return type(exc)


# --- strategies ---------------------------------------------------------------

uints = st.integers(min_value=0, max_value=2**64 - 1)
small_uints = st.integers(min_value=0, max_value=1000)
blobs = st.binary(max_size=40)
digests = st.binary(min_size=32, max_size=32)
texts = st.text(max_size=16)

tags = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-ISAC0123", min_size=1, max_size=8)
policies = st.recursive(
    st.builds(AttributePolicy, op=st.just("attr"), tag=tags),
    lambda children: st.builds(
        AttributePolicy,
        op=st.sampled_from(["and", "or"]),
        children=st.lists(children, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=6,
)
iocs = st.builds(Ioc, kind=st.sampled_from(IocKind), value=texts, observed_round=uints)


# the fewest and most designated recipients drawn for each channel's label
DESIGNATED_SIZES = {
    TlpChannel.Red: (1, 1), TlpChannel.Orange: (1, 3), TlpChannel.Green: (0, 0), TlpChannel.White: (0, 0),
}


@st.composite
def tlp_labels(draw):
    """Labels a record may carry: one recipient under Red, one to three
    under Orange, none under Green or White."""
    channel = draw(st.sampled_from(TlpChannel))
    fewest, most = DESIGNATED_SIZES[channel]
    return TlpLabel(channel, draw(st.frozensets(digests, min_size=fewest, max_size=most)))


record_fields = dict(
    producer=blobs,
    category=st.sampled_from(CtiCategory),
    indicators=st.lists(iocs, max_size=4).map(tuple),
    narrative_digest=blobs,
    tlp=tlp_labels(),
    policy=st.none() | policies,
    sale_price=st.none() | uints,
    created_round=uints,
)
records = st.builds(make_record, level=st.none() | st.sampled_from(IntelLevel), **record_fields)

# Any field values a record can be built with, including uints the
# canonical form rejects.
loose_records = st.builds(
    CtiRecord,
    record_id=st.just(ZERO_DIGEST),
    producer=blobs,
    category=st.sampled_from(CtiCategory),
    level=st.sampled_from(IntelLevel),
    indicators=st.lists(
        st.builds(Ioc, kind=st.sampled_from(IocKind), value=texts,
                  observed_round=st.integers(min_value=-2, max_value=2**64 + 1)),
        max_size=3,
    ).map(tuple),
    narrative_digest=blobs,
    tlp=tlp_labels(),
    policy=st.none() | policies,
    sale_price=st.none() | st.integers(min_value=-2, max_value=2**64 + 1),
    created_round=st.integers(min_value=-2, max_value=2**64 + 1),
)

# --- payload bodies -----------------------------------------------------------

PAYLOADS_CLASSES = tuple(
    obj for obj in vars(payloads).values() if isinstance(obj, type) and obj.__module__ == payloads.__name__
)
# the bodies are the classes `encoding.layout` gave a codec
BODY_CLASSES = tuple(cls for cls in PAYLOADS_CLASSES if "decode" in vars(cls))

BODY_STRATEGIES = {
    RegisterBody: st.builds(
        RegisterBody, stakeholder=digests, roles=st.lists(texts, max_size=3).map(tuple),
        attributes=st.lists(texts, max_size=3).map(tuple), evidence_digest=digests, endowment=uints),
    SubmitCtiBody: st.builds(
        SubmitCtiBody, contract_id=digests, record_bytes=blobs, deposit=uints,
        verification_fee=uints, verifiers=st.lists(digests, max_size=4).map(tuple)),
    VoteBody: st.builds(VoteBody, contract_id=digests, vote=texts),
    FinalizeBody: st.builds(
        FinalizeBody, contract_id=digests, status=texts, score_micro=uints, deposit_state=texts),
    PurchaseBody: st.builds(PurchaseBody, contract_id=digests, price=uints),
    RenewBody: st.builds(RenewBody, charge=uints, paid_through=uints),
    ReputationUpdateBody: st.builds(
        ReputationUpdateBody, stakeholder=digests, score=uints, revoked=st.booleans(), reason=texts),
    AccessGrantBody: st.builds(AccessGrantBody, contract_id=digests, consumer=digests),
}


def ref_register(b):
    w = Writer().put_bytes(b.stakeholder)
    w.put_count(len(b.roles))
    for role in b.roles:
        w.put_str(role)
    w.put_count(len(b.attributes))
    for attr in b.attributes:
        w.put_str(attr)
    return w.put_bytes(b.evidence_digest).put_uint(b.endowment).getvalue()


def ref_submit(b):
    w = Writer().put_bytes(b.contract_id).put_bytes(b.record_bytes)
    w.put_uint(b.deposit).put_uint(b.verification_fee)
    w.put_count(len(b.verifiers))
    for v in b.verifiers:
        w.put_bytes(v)
    return w.getvalue()


REFERENCE_ENCODERS = {
    RegisterBody: ref_register,
    SubmitCtiBody: ref_submit,
    VoteBody: lambda b: Writer().put_bytes(b.contract_id).put_str(b.vote).getvalue(),
    FinalizeBody: lambda b: (
        Writer().put_bytes(b.contract_id).put_str(b.status)
        .put_uint(b.score_micro).put_str(b.deposit_state).getvalue()
    ),
    PurchaseBody: lambda b: Writer().put_bytes(b.contract_id).put_uint(b.price).getvalue(),
    RenewBody: lambda b: Writer().put_uint(b.charge).put_uint(b.paid_through).getvalue(),
    ReputationUpdateBody: lambda b: (
        Writer().put_bytes(b.stakeholder).put_uint(b.score)
        .put_bool(b.revoked).put_str(b.reason).getvalue()
    ),
    AccessGrantBody: lambda b: Writer().put_bytes(b.contract_id).put_bytes(b.consumer).getvalue(),
}


def body_strategy(cls):
    assert cls in BODY_STRATEGIES, f"{cls.__name__} has no Hypothesis strategy"
    return BODY_STRATEGIES[cls]


payload_bodies = st.sampled_from(BODY_CLASSES).flatmap(body_strategy)


def test_every_payload_body_has_a_strategy_and_reference_encoder():
    assert len(BODY_CLASSES) >= 8
    assert set(BODY_STRATEGIES) == set(BODY_CLASSES)
    assert set(REFERENCE_ENCODERS) == set(BODY_CLASSES)


def test_no_payload_body_defines_its_own_codec():
    """Every class in `payloads` is a layout named tuple whose encode and
    decode are the ones `encoding.layout` made."""
    assert BODY_CLASSES == PAYLOADS_CLASSES
    for cls in BODY_CLASSES:
        assert issubclass(cls, tuple) and cls._fields == tuple(get_type_hints(cls)), cls.__name__
        assert cls.encode.__module__ == cls.decode.__module__ == encoding.__name__, cls.__name__


@settings(max_examples=300, deadline=None)
@given(body=payload_bodies)
def test_payload_body_round_trips(body):
    # a body equals any tuple of its values, so the class is checked too
    decoded = type(body).decode(body.encode())
    assert type(decoded) is type(body) and decoded == body


@settings(max_examples=300, deadline=None)
@given(body=payload_bodies)
def test_payload_body_matches_reference_encoder(body):
    data = REFERENCE_ENCODERS[type(body)](body)
    assert body.encode() == data
    assert type(body).decode(data) == body


@settings(max_examples=60, deadline=None)
@given(body=payload_bodies)
def test_payload_body_cut_or_extended_is_encoding_error(body):
    data = body.encode()
    for cut in range(len(data)):
        with pytest.raises(EncodingError):
            type(body).decode(data[:cut])
    with pytest.raises(EncodingError):
        type(body).decode(data + b"\x00")


UINT_BODIES = [cls for cls in BODY_CLASSES if int in get_type_hints(cls).values()]


@settings(max_examples=100, deadline=None)
@given(body=st.sampled_from(UINT_BODIES).flatmap(body_strategy), value=st.integers(max_value=-1),
       data=st.data())
def test_payload_body_negative_uint_is_encoding_error(body, value, data):
    uint_fields = [name for name, hint in get_type_hints(type(body)).items() if hint is int]
    body = body._replace(**{data.draw(st.sampled_from(uint_fields)): value})
    with pytest.raises(EncodingError):
        body.encode()


@pytest.mark.parametrize(
    "data",
    [
        Writer().put_bytes(ZERO_DIGEST).put_uint(5).getvalue() + b"\x02" + Writer().put_str("r").getvalue(),
        Writer().put_bytes(ZERO_DIGEST).put_uint(5).put_bool(True).put_bytes(b"\xff").getvalue(),
    ],
    ids=["bad-bool", "bad-utf8"],
)
def test_payload_body_bad_bool_or_utf8_is_encoding_error(data):
    with pytest.raises(EncodingError):
        ReputationUpdateBody.decode(data)


# --- CTI records --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(record=records)
def test_record_round_trips(record):
    data = record_bytes(record)
    assert data == ref_record_bytes(record)
    assert record.record_id == record_id_for(data)
    decoded = decode_record(data)
    assert decoded == record
    assert decoded.record_id == record_id_for(data)


@settings(max_examples=200, deadline=None)
@given(record=records, sale_price=st.none() | uints, created_round=uints)
def test_record_bytes_of_a_record_built_another_way_encode_its_fields(record, sale_price, created_round):
    """Only make_record and decode_record keep bytes; a replaced or directly
    built record is encoded from its fields, never given stale bytes."""
    changed = replace(record, sale_price=sale_price, created_round=created_round)
    assert changed.encoded is None
    assert record_bytes(changed) == ref_record_bytes(changed)
    built = CtiRecord(record.record_id, record.producer, record.category, record.level,
                      record.indicators, record.narrative_digest, record.tlp, record.policy,
                      record.sale_price, record.created_round)
    assert built.encoded is None
    assert built == record and hash(built) == hash(record)
    assert record_bytes(built) == ref_record_bytes(built) == record_bytes(record)


@settings(max_examples=200, deadline=None)
@given(record=loose_records)
def test_record_bytes_match_reference_encoder(record):
    assert outcome(record_bytes, record) == outcome(ref_record_bytes, record)


@settings(max_examples=100, deadline=None)
@given(fields=st.fixed_dictionaries(record_fields),
       level=st.none() | st.sampled_from(IntelLevel))
def test_make_record_matches_reference(fields, level):
    fields.update(level=level)
    assert make_record(**fields) == ref_make_record(**fields)


# --- legal by construction ------------------------------------------------------
#
# A label or policy is drawn as plain values, legal or not, and built. An
# illegal one must raise at construction; a legal one goes into a record,
# which must decode back equal, with the same id. Legality is restated here
# without the constructors: a label by the TLP rule, a policy by whether its
# text parses back to the very tree drawn.

def label_is_legal(channel, designated):
    n = len(designated)
    if channel is TlpChannel.Red:
        return n == 1
    return n >= 1 if channel is TlpChannel.Orange else n == 0


raw_tags = st.sampled_from(["a", "gov", "ICS-ISAC", "and"] * 6 + ["", "a b", "(a", "b)", "\u00a0x"])
raw_leaves = st.one_of(
    *[st.tuples(st.just("attr"), raw_tags, st.just(()))] * 5,
    st.tuples(st.sampled_from(["and", "or", "xor"]), st.just(""), st.just(())),
)
raw_policies = st.one_of(
    st.recursive(
        raw_leaves,
        lambda children: st.tuples(
            st.sampled_from(["and", "or"] * 4 + ["xor", "attr"]),
            st.sampled_from([""] * 6 + ["t"]),
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
        max_leaves=6,
    ),
    # around the nesting bound: the text of 33 nested operators does not parse
    st.integers(min_value=MAX_POLICY_DEPTH - 1, max_value=MAX_POLICY_DEPTH + 1).map(
        lambda depth: functools.reduce(lambda inner, _: ("or", "", (inner,)), range(depth), ("attr", "a", ()))
    ),
)


def render(raw):
    op, tag, children = raw
    return tag if op == "attr" else f"({op} {' '.join(map(render, children))})"


def as_raw(policy):
    return policy.op, policy.tag, tuple(map(as_raw, policy.children))


def policy_is_legal(raw):
    try:
        return as_raw(parse_policy(render(raw))) == raw
    except PolicyParseError:
        return False


def build(raw):
    op, tag, children = raw
    return AttributePolicy(op, tag, tuple(map(build, children)))


@settings(max_examples=300, deadline=None)
@given(channel=st.sampled_from(TlpChannel), designated=st.frozensets(digests, max_size=3),
       raw=st.none() | raw_policies, level=st.none() | st.sampled_from(IntelLevel),
       fields=st.fixed_dictionaries({k: v for k, v in record_fields.items() if k not in ("tlp", "policy")}))
def test_every_record_make_record_returns_decodes_back_equal(channel, designated, raw, level, fields):
    try:
        tlp = TlpLabel(channel, designated)
    except ValueError:
        tlp = None
    assert (tlp is not None) == label_is_legal(channel, designated)
    policy, built = None, True
    if raw is not None:
        try:
            policy = build(raw)
        except PolicyParseError:
            built = False
        assert built == policy_is_legal(raw)
    if tlp is None or not built:
        return
    record = make_record(tlp=tlp, policy=policy, level=level, **fields)
    decoded = decode_record(record_bytes(record))
    assert decoded == record
    assert decoded.record_id == record.record_id == record_id_for(record_bytes(record))


# Raw record bytes built from names and lists as they might sit on a chain:
# unknown names, unsorted or duplicate designated entries, a designated set
# under Green or White, policies with odd spacing or none that parses.

def names(enum):
    """Mostly valid names, so that most drawn records decode."""
    return st.sampled_from([m.value for m in enum] * 4 + ["", "Bogus", enum.__name__])


separators = st.sampled_from([" ", "  ", "\t", " \n "])
paren_gaps = st.sampled_from(["", "", " ", "\t"])


@st.composite
def spaced_policy_texts(draw):
    def render(policy):
        if policy.op == "attr":
            return policy.tag
        parts = [policy.op] + [render(c) for c in policy.children]
        body = "".join(p + draw(separators) for p in parts[:-1]) + parts[-1]
        return "(" + draw(paren_gaps) + body + draw(paren_gaps) + ")"

    return draw(paren_gaps) + render(draw(policies)) + draw(paren_gaps)


policy_texts = st.one_of(
    policies.map(policy_to_string),
    spaced_policy_texts(),
    st.sampled_from(["", "(", ")", "()", "(and)", "(xor a)", "a b", "(and a))"]),
)


@st.composite
def raw_record_bytes(draw):
    w = Writer().put_bytes(draw(blobs))
    w.put_str(draw(names(CtiCategory))).put_str(draw(names(IntelLevel)))
    indicators = draw(st.lists(st.tuples(names(IocKind), texts, small_uints), max_size=3))
    w.put_count(len(indicators))
    for kind, value, observed in indicators:
        w.put_str(kind).put_str(value).put_uint(observed)
    w.put_bytes(draw(blobs)).put_str(draw(names(TlpChannel)))
    pool = draw(st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=3))
    entries = draw(st.lists(st.sampled_from(pool), max_size=4))
    w.put_count(len(entries))
    for entry in entries:
        w.put_bytes(entry)
    policy = draw(st.none() | policy_texts)
    w.put_bool(policy is not None)
    if policy is not None:
        w.put_str(policy)
    price = draw(st.none() | small_uints)
    w.put_bool(price is not None)
    if price is not None:
        w.put_uint(price)
    return w.put_uint(draw(small_uints)).getvalue()


@st.composite
def mutated_record_bytes(draw):
    data = bytearray(record_bytes(draw(records)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        edit = draw(st.sampled_from(["cut", "set", "insert", "delete"]))
        if edit == "cut":
            del data[at:]
        elif edit == "insert":
            data[at:at] = bytes([draw(st.integers(0, 255))])
        elif at < len(data):
            if edit == "set":
                data[at] = draw(st.integers(0, 255))
            else:
                del data[at]
    return bytes(data)


def check_against_reference(data):
    got = outcome(decode_record, data)
    assert got == outcome(ref_decode_record, data)
    if isinstance(got, CtiRecord):
        assert record_bytes(got) == ref_record_bytes(got)
        assert got.record_id == record_id_for(record_bytes(got))


@settings(max_examples=300, deadline=None)
@given(data=raw_record_bytes())
def test_decode_matches_reference_on_non_canonical_bytes(data):
    check_against_reference(data)


@settings(max_examples=300, deadline=None)
@given(data=mutated_record_bytes())
def test_decode_matches_reference_on_mutated_bytes(data):
    check_against_reference(data)


@pytest.mark.parametrize(
    "channel,entries,policy",
    [
        (TlpChannel.Orange, [b"\x02", b"\x01"], None),
        (TlpChannel.Red, [b"\x01", b"\x01"], None),
        (TlpChannel.Green, [b"\x01"], None),
        (TlpChannel.White, [], "(and  a\t(or b c) )"),
    ],
    ids=["unsorted-designated", "duplicate-designated", "green-designated", "spaced-policy"],
)
def test_non_canonical_record_gets_the_canonical_id(channel, entries, policy):
    """The id is never the digest of non-canonical input bytes: such input
    is refused, and only its canonical spelling decodes, to the canonical id."""
    w = Writer().put_bytes(b"p").put_str("Technical").put_str("Data").put_count(0)
    w.put_bytes(ZERO_DIGEST).put_str(channel.value)
    w.put_count(len(entries))
    for entry in entries:
        w.put_bytes(entry)
    w.put_bool(policy is not None)
    if policy is not None:
        w.put_str(policy)
    data = w.put_bool(False).put_uint(1).getvalue()

    with pytest.raises(EncodingError):
        decode_record(data)
    designated = frozenset(entries) if channel in (TlpChannel.Red, TlpChannel.Orange) else frozenset()
    rec = make_record(b"p", CtiCategory.Technical, (), ZERO_DIGEST, TlpLabel(channel, designated),
                      policy and parse_policy(policy), None, 1, IntelLevel.Data)
    canonical = record_bytes(rec)
    assert canonical != data
    assert decode_record(canonical) == rec
    assert decode_record(canonical).record_id == record_id_for(canonical)


# --- the policy memo ------------------------------------------------------------

def record_with_policy(text):
    """A White Technical record's bytes with `text` as its policy spelling."""
    w = Writer().put_bytes(b"p").put_str("Technical").put_str("Data").put_count(0)
    w.put_bytes(ZERO_DIGEST).put_str("White").put_count(0)
    return w.put_bool(True).put_str(text).put_bool(False).put_uint(1).getvalue()


def test_repeated_non_canonical_policy_gets_the_canonical_id_every_time():
    """A spaced policy is refused on every repeat, before and after its
    canonical spelling is memoised; the canonical spelling keeps its id."""
    cti._decoded_policy.cache_clear()
    canonical = record_with_policy("(and a (or b c))")
    spaced = record_with_policy("(and  a\t(or b c) )")
    for _ in range(2):
        with pytest.raises(EncodingError, match="canonical spelling"):
            decode_record(spaced)
    assert decode_record(canonical).record_id == record_id_for(canonical)
    with pytest.raises(EncodingError, match="canonical spelling"):
        decode_record(spaced)
    assert decode_record(canonical).record_id == record_id_for(canonical)


def test_malformed_policy_raises_on_every_repeat():
    data = record_with_policy("(xor a b)")
    for _ in range(3):
        with pytest.raises(EncodingError, match="bad policy"):
            decode_record(data)


def test_policy_memo_stays_within_its_bound():
    cti._decoded_policy.cache_clear()
    for i in range(POLICY_MEMO_SIZE + 10):
        assert decode_record(record_with_policy(f"(or tag-{i} shared)")).policy is not None
    assert cti._decoded_policy.cache_info().currsize == POLICY_MEMO_SIZE
