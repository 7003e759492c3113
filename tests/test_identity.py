import pytest

from ctisim.errors import DuplicateRegistration, NotAnAuthority, UnknownStakeholder
from ctisim.identity import ProofOfIdentity, Registry, Role, evidence_for
from ctisim.ledger import TxKind, keyed_digest


def proof(name, roles, attributes=()):
    return ProofOfIdentity(frozenset(roles), frozenset(attributes), evidence_for(name))


@pytest.fixture
def registry():
    reg = Registry(initial_score=50)
    auth, _ = reg.bootstrap(proof("authority", {Role.Authority}))
    return reg, auth


def test_register_issues_credential_and_ledger_tx(registry):
    reg, auth = registry
    cred, tx = reg.register(proof("prod", {Role.Producer, Role.Consumer}), auth.stakeholder)
    assert cred.roles == frozenset({Role.Producer, Role.Consumer})
    assert tx.kind is TxKind.Register
    assert tx.author == auth.stakeholder
    assert reg.initial_score == 50


def test_duplicate_registration_rejected(registry):
    reg, auth = registry
    reg.register(proof("prod", {Role.Producer}), auth.stakeholder)
    with pytest.raises(DuplicateRegistration):
        reg.register(proof("prod", {Role.Producer}), auth.stakeholder)


def test_register_by_non_authority_rejected(registry):
    reg, auth = registry
    prod, _ = reg.register(proof("prod", {Role.Producer}), auth.stakeholder)
    with pytest.raises(NotAnAuthority):
        reg.register(proof("other", {Role.Producer}), prod.stakeholder)


def test_bootstrap_requires_empty_registry(registry):
    reg, _ = registry
    with pytest.raises(NotAnAuthority):
        reg.bootstrap(proof("second", {Role.Authority}))


def test_registration_requires_roles_and_evidence(registry):
    reg, auth = registry
    with pytest.raises(NotAnAuthority):
        reg.register(ProofOfIdentity(frozenset(), frozenset(), evidence_for("x")), auth.stakeholder)
    with pytest.raises(NotAnAuthority):
        reg.register(ProofOfIdentity(frozenset({Role.Producer}), frozenset(), b""), auth.stakeholder)


def test_sign_then_verify(registry):
    reg, auth = registry
    cred, _ = reg.register(proof("prod", {Role.Producer}), auth.stakeholder)

    payload = b"hello"
    sig = keyed_digest(cred.secret, payload)
    assert reg.authenticate_committed(cred.stakeholder, payload, sig)
    assert not reg.authenticate_committed(cred.stakeholder, payload + b"!", sig)
    flipped = bytes([payload[0] ^ 1]) + payload[1:]
    assert not reg.authenticate_committed(cred.stakeholder, flipped, sig)
    assert not reg.authenticate_committed(auth.stakeholder, payload, sig)
    assert not reg.authenticate_committed(b"\x00" * 32, payload, sig)


def test_revoke_is_idempotent(registry):
    reg, auth = registry
    cred, _ = reg.register(proof("prod", {Role.Producer}), auth.stakeholder)
    reg.revoke(cred.stakeholder)
    reg.revoke(cred.stakeholder)
    assert cred.revoked


def test_unknown_stakeholder(registry):
    reg, _ = registry
    with pytest.raises(UnknownStakeholder):
        reg.get(b"\x00" * 32)


def test_ids_are_deterministic():
    a = Registry(initial_score=50)
    b = Registry(initial_score=50)
    ca, _ = a.bootstrap(proof("authority", {Role.Authority}))
    cb, _ = b.bootstrap(proof("authority", {Role.Authority}))
    assert ca.stakeholder == cb.stakeholder
    assert ca.secret == cb.secret


def test_attributes_preserved(registry):
    reg, auth = registry
    cred, tx = reg.register(
        proof("org", {Role.Consumer}, {"ICS-ISAC", "gov"}), auth.stakeholder
    )
    assert cred.attributes == frozenset({"ICS-ISAC", "gov"})
    from ctisim.payloads import RegisterBody

    body = RegisterBody.decode(tx.payload)
    assert body.attributes == ("ICS-ISAC", "gov")
