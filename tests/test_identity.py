from dataclasses import replace

import pytest

from ctisim import identity
from ctisim.errors import DuplicateRegistration, NotAnAuthority, UnknownStakeholder
from ctisim.identity import ProofOfIdentity, Registry, Role, evidence_for
from ctisim.ledger import Transaction, TxKind, keyed_digest


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


def signed_as(author, payload, signature):
    """A hand-built transaction whose id is right, so only its signature can fail."""
    return Transaction(
        Transaction.compute_id(author, TxKind.Vote, payload), author, TxKind.Vote, payload, signature
    )


def test_sign_then_verify(registry):
    reg, auth = registry
    cred, _ = reg.register(proof("prod", {Role.Producer}), auth.stakeholder)

    payload = b"hello"
    sig = keyed_digest(cred.secret, payload)
    assert reg.authenticate_committed(signed_as(cred.stakeholder, payload, sig))
    assert not reg.authenticate_committed(signed_as(cred.stakeholder, payload + b"!", sig))
    flipped = bytes([payload[0] ^ 1]) + payload[1:]
    assert not reg.authenticate_committed(signed_as(cred.stakeholder, flipped, sig))
    assert not reg.authenticate_committed(signed_as(auth.stakeholder, payload, sig))
    assert not reg.authenticate_committed(signed_as(b"\x00" * 32, payload, sig))


def test_registry_signs_with_the_authors_secret_and_trusts_only_that_object(registry, monkeypatch):
    reg, auth = registry
    cred, _ = reg.register(proof("prod", {Role.Producer}), auth.stakeholder)
    tx = reg.sign(cred.stakeholder, TxKind.Vote, b"hello")
    assert tx == Transaction.create(cred.stakeholder, TxKind.Vote, b"hello", cred.secret)
    fresh = reg.sign(cred.stakeholder, TxKind.Vote, b"fresh")
    rederived = []
    monkeypatch.setattr(identity, "keyed_digest", lambda *a: rederived.append(a) or keyed_digest(*a))

    assert reg.authenticate_committed(fresh) and rederived == []
    # once sealed, the same object is re-derived like any other
    assert reg.authenticate_committed(fresh) and len(rederived) == 1
    assert not reg.authenticate_committed(replace(tx, signature=b"\x00" * 32))
    # that forgery shared tx's id, so the original is now re-derived too
    assert reg.authenticate_committed(tx) and len(rederived) == 3
    assert reg.authenticate_committed(replace(tx))
    with pytest.raises(UnknownStakeholder):
        reg.sign(b"\x00" * 32, TxKind.Vote, b"hello")


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
