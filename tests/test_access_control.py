import itertools
import re
import random

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from ctisim.access_control import (
    MAX_POLICY_DEPTH,
    AttributePolicy,
    TlpChannel,
    TlpLabel,
    attr,
    authorize,
    evaluate_policy,
    open_envelope,
    parse_policy,
    policy_to_string,
    seal,
)
from ctisim.errors import AccessDenied, PolicyParseError
from ctisim.cti import CtiCategory, Ioc, IocKind, make_record
from ctisim.identity import Credential, Role
from ctisim.ledger import sha256


def cred(name, attributes=(), revoked=False):
    return Credential(
        stakeholder=sha256(name.encode()),
        roles=frozenset({Role.Consumer}),
        attributes=frozenset(attributes),
        revoked=revoked,
    )


def all_of(*children: AttributePolicy) -> AttributePolicy:
    return AttributePolicy(op="and", children=tuple(children))


def any_of(*children: AttributePolicy) -> AttributePolicy:
    return AttributePolicy(op="or", children=tuple(children))


# --- policy evaluation --------------------------------------------------------

def test_single_leaf():
    assert evaluate_policy(attr("ICS-ISAC"), {"ICS-ISAC"})
    assert not evaluate_policy(attr("ICS-ISAC"), {"other"})


def test_and_needs_all():
    p = all_of(attr("a"), attr("b"))
    assert not evaluate_policy(p, {"a"})
    assert evaluate_policy(p, {"a", "b"})


def test_or_needs_any():
    p = any_of(attr("a"), attr("b"))
    assert evaluate_policy(p, {"b"})
    assert not evaluate_policy(p, set())


def test_parse_round_trip():
    text = "(and ICS-ISAC (or critical-infra gov))"
    p = parse_policy(text)
    assert policy_to_string(p) == text
    assert evaluate_policy(p, {"ICS-ISAC", "gov"})
    assert not evaluate_policy(p, {"ICS-ISAC"})


def test_parse_bare_atom():
    assert parse_policy("ICS-ISAC") == attr("ICS-ISAC")


@pytest.mark.parametrize("bad", ["", "(", "(and)", "(not a)", "(and a))", "a b", "(xor a b)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(PolicyParseError):
        parse_policy(bad)


def test_parse_nesting_bound():
    deepest = "(and " * MAX_POLICY_DEPTH + "gov" + ")" * MAX_POLICY_DEPTH
    assert policy_to_string(parse_policy(deepest)) == deepest
    with pytest.raises(PolicyParseError, match="nested deeper"):
        parse_policy("(or " + deepest + ")")


def random_policy(rng: random.Random, leaves: list[str], depth: int = 3) -> AttributePolicy:
    if depth == 0 or rng.random() < 0.35:
        return attr(rng.choice(leaves))
    op = rng.choice([all_of, any_of])
    children = [random_policy(rng, leaves, depth - 1) for _ in range(rng.randint(1, 3))]
    return op(*children)


def policy_leaves(policy: AttributePolicy) -> list[str]:
    if policy.op == "attr":
        return [policy.tag]
    out: list[str] = []
    for child in policy.children:
        out.extend(policy_leaves(child))
    return out


def brute_force_eval(policy: AttributePolicy, attrs: set[str]) -> bool:
    if policy.op == "attr":
        return policy.tag in attrs
    results = [brute_force_eval(c, attrs) for c in policy.children]
    return all(results) if policy.op == "and" else any(results)


def test_random_formulas_match_exhaustive_truth_table():
    rng = random.Random(7)
    tags = [f"t{i}" for i in range(6)]
    for _ in range(50):
        policy = random_policy(rng, tags)
        names = sorted(set(policy_leaves(policy)))
        for bits in itertools.product([False, True], repeat=len(names)):
            attrs = {n for n, b in zip(names, bits) if b}
            assert evaluate_policy(policy, attrs) == brute_force_eval(policy, attrs)


def generator_evaluate_policy(policy: AttributePolicy, attributes) -> bool:
    """evaluate_policy as it was written over all()/any() generators."""
    if policy.op == "attr":
        return policy.tag in attributes
    if policy.op == "and":
        return all(generator_evaluate_policy(c, attributes) for c in policy.children)
    if policy.op == "or":
        return any(generator_evaluate_policy(c, attributes) for c in policy.children)
    raise PolicyParseError(f"unknown policy operator {policy.op!r}")


POLICY_TAGS = [f"t{i}" for i in range(6)]


@given(seed=st.integers(min_value=0, max_value=2**32), attrs=st.frozensets(st.sampled_from(POLICY_TAGS)))
def test_evaluate_policy_matches_the_generator_definition(seed, attrs):
    policy = random_policy(random.Random(seed), POLICY_TAGS, depth=4)
    assert evaluate_policy(policy, attrs) == generator_evaluate_policy(policy, attrs)


def test_an_operator_without_operands_cannot_be_built():
    """No text spells one, so evaluate_policy never meets one."""
    for build in (all_of, any_of):
        with pytest.raises(PolicyParseError, match="needs at least one operand"):
            build()
    for text in ("(and)", "(or)"):
        with pytest.raises(PolicyParseError, match="needs at least one operand"):
            parse_policy(text)


def nested(depth):
    """`depth` "or" operators around one attribute."""
    policy = attr("gov")
    for _ in range(depth):
        policy = any_of(policy)
    return policy


@pytest.mark.parametrize("build, problem", [
    (lambda: attr(""), "attribute '' is not one token"),
    (lambda: attr("a b"), "attribute 'a b' is not one token"),
    (lambda: attr("(a"), "attribute '(a' is not one token"),
    (lambda: AttributePolicy("attr", "a", (attr("b"),)), "attribute 'a' is not one token without operands"),
    (lambda: AttributePolicy("xor", children=(attr("a"),)), "operator must be 'and' or 'or', got 'xor'"),
    (lambda: AttributePolicy("and", "a", (attr("b"),)), "'and' needs at least one operand and no tag"),
    (lambda: nested(MAX_POLICY_DEPTH + 1), f"policy nested deeper than {MAX_POLICY_DEPTH}"),
], ids=["empty-tag", "spaced-tag", "parenthesised-tag", "leaf-with-operands", "unknown-operator",
        "operator-with-tag", "too-deep"])
def test_a_policy_no_text_spells_cannot_be_built(build, problem):
    with pytest.raises(PolicyParseError, match=f"^{re.escape(problem)}"):
        build()


def test_monotonicity_adding_attributes_never_revokes():
    rng = random.Random(21)
    tags = [f"t{i}" for i in range(6)]
    for _ in range(200):
        policy = random_policy(rng, tags)
        base = {t for t in tags if rng.random() < 0.5}
        extra = base | {rng.choice(tags)}
        if evaluate_policy(policy, base):
            assert evaluate_policy(policy, extra)


# --- TLP semantics -------------------------------------------------------------

def test_red_admits_only_the_designated_one():
    b, c = cred("b"), cred("c")
    tlp = TlpLabel(TlpChannel.Red, frozenset({b.stakeholder}))
    assert authorize(b, tlp, None, set())
    assert not authorize(c, tlp, None, set())


def test_orange_admits_the_producer_defined_group():
    b, c, d = cred("b"), cred("c"), cred("d")
    tlp = TlpLabel(TlpChannel.Orange, frozenset({b.stakeholder, c.stakeholder}))
    assert authorize(b, tlp, None, set())
    assert authorize(c, tlp, None, set())
    assert not authorize(d, tlp, None, set())


def test_green_admits_platform_members_only():
    b, c = cred("b"), cred("c")
    tlp = TlpLabel(TlpChannel.Green)
    group = {b.stakeholder}
    assert authorize(b, tlp, None, group)
    assert not authorize(c, tlp, None, group)


def test_white_admits_any_registered_requester():
    assert authorize(cred("anyone"), TlpLabel(TlpChannel.White), None, set())


def test_revoked_requester_always_denied():
    gone = cred("gone", revoked=True)
    assert not authorize(gone, TlpLabel(TlpChannel.White), None, set())


def test_policy_composes_with_tlp():
    policy = parse_policy("(and ICS-ISAC (or critical-infra gov))")
    member = cred("m", {"ICS-ISAC", "gov"})
    partial = cred("p", {"ICS-ISAC"})
    tlp = TlpLabel(TlpChannel.Green)
    group = {member.stakeholder, partial.stakeholder}
    assert authorize(member, tlp, policy, group)
    assert not authorize(partial, tlp, policy, group)


def test_admitted_sets_nest_as_channels_widen():
    # with nested designated sets, Red's admitted set is within Orange's,
    # Orange's within Green's (the platform group), Green's within White's
    users = [cred(f"u{i}", {"x"}) for i in range(6)]
    ids = [u.stakeholder for u in users]
    group = set(ids[:5])
    labels = [
        TlpLabel(TlpChannel.Red, frozenset({ids[0]})),
        TlpLabel(TlpChannel.Orange, frozenset(ids[:3])),
        TlpLabel(TlpChannel.Green),
        TlpLabel(TlpChannel.White),
    ]
    admitted = [
        {u.stakeholder for u in users if authorize(u, label, None, group)}
        for label in labels
    ]
    for narrower, wider in zip(admitted, admitted[1:]):
        assert narrower <= wider


# --- envelopes -------------------------------------------------------------------

def sealed_record(tlp, policy=None):
    return make_record(
        producer=sha256(b"producer"),
        category=CtiCategory.Technical,
        indicators=(Ioc(IocKind.Domain, "evil.example", 1),),
        narrative_digest=sha256(b"content"),
        tlp=tlp,
        policy=policy,
        sale_price=None,
        created_round=1,
    )


def test_seal_open_round_trip():
    record = sealed_record(TlpLabel(TlpChannel.White))
    envelope = seal(record)
    got = open_envelope(envelope, cred("reader"), set())
    assert got == record.narrative_digest


def test_open_denied_without_policy_match():
    record = sealed_record(TlpLabel(TlpChannel.White), parse_policy("(and a b)"))
    envelope = seal(record)
    with pytest.raises(AccessDenied):
        open_envelope(envelope, cred("reader", {"a"}), set())
    assert open_envelope(envelope, cred("reader", {"a", "b"}), set()) == record.narrative_digest


def test_open_monotone_in_attributes():
    rng = random.Random(5)
    tags = [f"t{i}" for i in range(5)]
    for _ in range(60):
        policy = random_policy(rng, tags)
        record = sealed_record(TlpLabel(TlpChannel.White), policy)
        envelope = seal(record)
        attrs = {t for t in tags if rng.random() < 0.5}
        try:
            open_envelope(envelope, cred("r", attrs), set())
            opened = True
        except AccessDenied:
            opened = False
        if opened:
            # any superset must open too
            open_envelope(envelope, cred("r", attrs | {rng.choice(tags)}), set())


PEOPLE = [f"p{i}" for i in range(5)]


@st.composite
def labels(draw):
    channel = draw(st.sampled_from(list(TlpChannel)))
    if channel is TlpChannel.Red:
        designated = frozenset({draw(st.sampled_from(PEOPLE))})
    elif channel is TlpChannel.Orange:
        designated = draw(st.frozensets(st.sampled_from(PEOPLE), min_size=1))
    else:
        return TlpLabel(channel)
    return TlpLabel(channel, frozenset(sha256(p.encode()) for p in designated))


@given(
    label=labels(),
    policy_seed=st.none() | st.integers(min_value=0, max_value=2**32),
    reader=st.sampled_from(PEOPLE),
    attrs=st.frozensets(st.sampled_from(POLICY_TAGS)),
    group=st.frozensets(st.sampled_from(PEOPLE)),
    revoked=st.booleans(),
)
def test_open_returns_the_content_exactly_when_authorize_admits(
    label, policy_seed, reader, attrs, group, revoked
):
    policy = None if policy_seed is None else random_policy(random.Random(policy_seed), POLICY_TAGS)
    record = sealed_record(label, policy)
    requester = cred(reader, attrs, revoked=revoked)
    members = {sha256(p.encode()) for p in group}
    admitted = authorize(requester, label, policy, members)
    event(f"{label.channel.value} {'admitted' if admitted else 'denied'}")
    if admitted:
        assert open_envelope(seal(record), requester, members) == record.narrative_digest
    else:
        with pytest.raises(AccessDenied):
            open_envelope(seal(record), requester, members)
