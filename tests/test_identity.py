
import pytest

from ctisim import identity
from ctisim.errors import (
    DuplicateRegistration, DuplicateTransaction, EncodingError, NotAnAuthority, UnknownStakeholder,
)
from ctisim.identity import Registry, Role, evidence_for, register_body
from ctisim.ledger import Chain, Transaction, TxKind, append_block, sha256, verify_chain
from ctisim.payloads import AccessGrantBody, FinalizeBody, RegisterBody, ReputationUpdateBody, VoteBody
from tests.reference_writer import ref_id


def proof(name, roles, attributes=()):
    """The roles, attributes and evidence a Register claims."""
    return frozenset(roles), frozenset(attributes), evidence_for(name)


def register(reg, proof, author=None):
    """Sign `proof`'s Register as `author`, by default as its own stakeholder
    (the first authority's self-registration); returns the credential."""
    body = register_body(*proof, 0)
    reg.sign(body.stakeholder if author is None else author, TxKind.Register, body.encode())
    return reg.credentials[body.stakeholder]


@pytest.fixture
def registry():
    reg = Registry()
    auth = register(reg, proof("authority", {Role.Authority}))
    return reg, auth


def test_register_issues_credential_and_ledger_tx(registry):
    reg, auth = registry
    cred = register(reg, proof("prod", {Role.Producer, Role.Consumer}), auth.stakeholder)
    _, tx = reg.unsealed()
    assert cred.roles == frozenset({Role.Producer, Role.Consumer})
    assert tx.kind is TxKind.Register
    assert tx.author == auth.stakeholder
    assert RegisterBody.decode(tx.payload).stakeholder == cred.stakeholder


def test_duplicate_registration_rejected(registry):
    reg, auth = registry
    register(reg, proof("prod", {Role.Producer}), auth.stakeholder)
    with pytest.raises(DuplicateRegistration):
        register(reg, proof("prod", {Role.Producer}), auth.stakeholder)


def test_register_by_non_authority_rejected(registry):
    reg, auth = registry
    prod = register(reg, proof("prod", {Role.Producer}), auth.stakeholder)
    with pytest.raises(NotAnAuthority):
        register(reg, proof("other", {Role.Producer}), prod.stakeholder)


def test_bootstrap_requires_empty_registry(registry):
    reg, _ = registry
    with pytest.raises(NotAnAuthority):
        register(reg, proof("second", {Role.Authority}))


def test_registration_requires_roles_and_evidence(registry):
    reg, auth = registry
    with pytest.raises(NotAnAuthority):
        register(reg, (frozenset(), frozenset(), evidence_for("x")), auth.stakeholder)
    with pytest.raises(NotAnAuthority):
        register(reg, (frozenset({Role.Producer}), frozenset(), b""), auth.stakeholder)


def vote_by(author, payload, tx_id=None):
    """A hand-built Vote, by default with the id derived from its fields."""
    return Transaction(ref_id(author, TxKind.Vote, payload) if tx_id is None else tx_id, author, TxKind.Vote, payload)


def test_sign_then_verify(registry):
    reg, auth = registry
    cred = register(reg, proof("prod", {Role.Producer}), auth.stakeholder)

    payload = b"hello"
    tx_id = ref_id(cred.stakeholder, TxKind.Vote, payload)
    assert reg.authenticate_committed(vote_by(cred.stakeholder, payload))
    assert reg.authenticate_committed(vote_by(auth.stakeholder, payload))
    assert not reg.authenticate_committed(vote_by(cred.stakeholder, payload + b"!", tx_id))
    flipped = bytes([payload[0] ^ 1]) + payload[1:]
    assert not reg.authenticate_committed(vote_by(cred.stakeholder, flipped, tx_id))
    assert not reg.authenticate_committed(vote_by(auth.stakeholder, payload, tx_id))
    # an id derived for an author nobody registered
    assert not reg.authenticate_committed(vote_by(b"\x00" * 32, payload))


def test_registry_trusts_only_the_object_it_signed(registry, monkeypatch):
    reg, auth = registry
    cred = register(reg, proof("prod", {Role.Producer}), auth.stakeholder)
    tx = reg.sign(cred.stakeholder, TxKind.Vote, b"hello")
    assert tx == Transaction.create(cred.stakeholder, TxKind.Vote, b"hello")
    fresh = reg.sign(cred.stakeholder, TxKind.Vote, b"fresh")
    rederived, create = [], Transaction.create
    monkeypatch.setattr(Transaction, "create", lambda *a: rederived.append(a) or create(*a))

    assert reg.authenticate_committed(fresh) and rederived == []
    # trusting an object leaves it queued; once sealed, it is re-derived like any other
    assert reg.unsealed()[-1] is fresh
    reg.mark_sealed(append_block(
        Chain.new(), [fresh], auth.stakeholder, reg.authenticate_committed, reg.is_authority
    ))
    assert rederived == [] and fresh not in reg.unsealed()
    assert reg.authenticate_committed(fresh) and len(rederived) == 1
    assert not reg.authenticate_committed(tx._replace(payload=b"forged"))
    # the forgery shared tx's id but is another object, so tx is still trusted
    assert reg.authenticate_committed(tx) and len(rederived) == 2
    assert reg.authenticate_committed(tx._replace()) and len(rederived) == 3
    with pytest.raises(UnknownStakeholder):
        reg.sign(b"\x00" * 32, TxKind.Vote, b"hello")


def test_signing_the_same_transaction_twice_is_refused(registry):
    reg, auth = registry
    first = reg.sign(auth.stakeholder, TxKind.Vote, b"hello")
    with pytest.raises(DuplicateTransaction, match="duplicate transaction id"):
        reg.sign(auth.stakeholder, TxKind.Vote, b"hello")
    assert reg.unsealed()[-1] is first and reg.unsealed().count(first) == 1


def test_revocation_happens_once(registry):
    reg, auth = registry
    cred = register(reg, proof("prod", {Role.Producer}), auth.stakeholder)
    revoke = ReputationUpdateBody(cred.stakeholder, 20, True, "threshold").encode()
    reg.apply(auth.stakeholder, TxKind.ReputationUpdate, revoke)
    with pytest.raises(NotAnAuthority, match="^ReputationUpdate for a revoked stakeholder$"):
        reg.apply(auth.stakeholder, TxKind.ReputationUpdate, revoke)
    assert cred.revoked
    assert reg.active_ids() == {auth.stakeholder}


def test_unknown_stakeholder(registry):
    reg, _ = registry
    with pytest.raises(UnknownStakeholder):
        reg.get(b"\x00" * 32)


def test_ids_are_deterministic():
    ca = register(Registry(), proof("authority", {Role.Authority}))
    cb = register(Registry(), proof("authority", {Role.Authority}))
    assert ca.stakeholder == cb.stakeholder


def test_attributes_preserved(registry):
    reg, auth = registry
    cred = register(reg, proof("org", {Role.Consumer}, {"ICS-ISAC", "gov"}), auth.stakeholder)
    assert cred.attributes == frozenset({"ICS-ISAC", "gov"})
    body = RegisterBody.decode(reg.unsealed()[-1].payload)
    assert body.attributes == ("ICS-ISAC", "gov")


# --- one rule table, two doors -------------------------------------------------
#
# Each history is a list of (author name, kind, body) steps whose last step is
# illegal. The writer door signs every step through Registry.sign; the reader
# door links the same transactions, each in its own block, and verifies.

def sid(name):
    return identity.stakeholder_id(evidence_for(name))


def registration(name, roles, evidence=None):
    evidence = evidence_for(name) if evidence is None else evidence
    return RegisterBody(identity.stakeholder_id(evidence), tuple(roles), (), evidence, 50)


def revocation(name):
    return ReputationUpdateBody(sid(name), 20, True, "threshold")


BOOT = ("authority", TxKind.Register, registration("authority", ["Authority"]))
USER = ("authority", TxKind.Register, registration("user", ["Consumer", "Producer"]))
VOTE = VoteBody(sha256(b"contract"), "HighQuality")
PRODUCER = registration("user", ["Producer"])

ILLEGAL_HISTORIES = {
    "self-registration-on-non-empty-registry": (
        [BOOT, ("stranger", TxKind.Register, registration("stranger", ["Authority"]))],
        NotAnAuthority, "self-registration on a non-empty registry",
    ),
    "self-registration-without-authority-role": (
        [("first", TxKind.Register, registration("first", ["Producer"]))],
        NotAnAuthority, "self-registration without the Authority role",
    ),
    "register-by-a-producer": (
        [BOOT, USER, ("user", TxKind.Register, registration("rogue", ["Authority"]))],
        NotAnAuthority, "Register by an author without the Authority role",
    ),
    "register-by-a-revoked-authority": (
        [
            BOOT,
            ("authority", TxKind.Register, registration("second", ["Authority"])),
            ("authority", TxKind.ReputationUpdate, revocation("second")),
            ("second", TxKind.Register, registration("rogue", ["Producer"])),
        ],
        NotAnAuthority, "transaction by revoked author",
    ),
    "register-by-an-unregistered-author": (
        [BOOT, ("stranger", TxKind.Register, registration("rogue", ["Producer"]))],
        NotAnAuthority, "Register by unregistered author",
    ),
    # the same stakeholder again in another transaction; repeating the very
    # transaction is refused earlier, as a duplicate transaction id
    "duplicate-registration": (
        [BOOT, USER, ("authority", TxKind.Register, USER[2]._replace(endowment=0))],
        DuplicateRegistration, "duplicate registration",
    ),
    "no-roles": (
        [BOOT, ("authority", TxKind.Register, registration("user", []))],
        NotAnAuthority, "Register without a role",
    ),
    "empty-evidence": (
        [BOOT, ("authority", TxKind.Register, registration("user", ["Producer"], evidence=b""))],
        NotAnAuthority, "Register without identity evidence",
    ),
    "unknown-role-name": (
        [BOOT, ("authority", TxKind.Register, registration("user", ["Admin"]))],
        NotAnAuthority, "Register with an unknown role",
    ),
    # register_body writes roles and attributes sorted and unique, and no other spelling is read
    "unsorted-roles": (
        [BOOT, ("authority", TxKind.Register, registration("user", ["Producer", "Consumer"]))],
        EncodingError, "Register with roles not sorted and unique",
    ),
    "repeated-role": (
        [BOOT, ("authority", TxKind.Register, registration("user", ["Producer", "Producer"]))],
        EncodingError, "Register with roles not sorted and unique",
    ),
    "unsorted-attributes": (
        [BOOT, ("authority", TxKind.Register, PRODUCER._replace(attributes=("gov", "ICS-ISAC")))],
        EncodingError, "Register with attributes not sorted and unique",
    ),
    "underived-id": (
        [BOOT, ("authority", TxKind.Register, PRODUCER._replace(stakeholder=sha256(b"any id")))],
        NotAnAuthority, "Register with an id not derived from its evidence",
    ),
    # the evidence can only back the id derived from it, and that id is taken
    "second-id-from-the-same-evidence": (
        [BOOT, USER, ("authority", TxKind.Register, registration("user", ["Verifier"]))],
        DuplicateRegistration, "duplicate registration",
    ),
    **{
        f"{kind.value}-by-a-producer": (
            [BOOT, USER, ("user", kind, body)],
            NotAnAuthority, f"{kind.value} by an author without the Authority role",
        )
        for kind, body in (
            (TxKind.FinalizeVerification, FinalizeBody(sha256(b"contract"), "Verified", 900_000, "Refunded")),
            # a Producer revoking the authority
            (TxKind.ReputationUpdate, revocation("authority")),
            (TxKind.AccessGrant, AccessGrantBody(sha256(b"contract"), sid("user"))),
        )
    },
    "vote-by-a-revoked-author": (
        [BOOT, USER, ("authority", TxKind.ReputationUpdate, revocation("user")), ("user", TxKind.Vote, VOTE)],
        NotAnAuthority, "transaction by revoked author",
    ),
    "vote-by-an-unregistered-author": (
        [BOOT, ("stranger", TxKind.Vote, VOTE)],
        UnknownStakeholder, "transaction by unregistered author",
    ),
    "revocation-of-an-unregistered-stakeholder": (
        [BOOT, ("authority", TxKind.ReputationUpdate, revocation("stranger"))],
        UnknownStakeholder, "ReputationUpdate for an unregistered stakeholder",
    ),
    # finalization revokes a stakeholder once; a second revocation, even at
    # another score and so under another id, is no history a writer writes
    "revocation-of-a-revoked-stakeholder": (
        [
            BOOT, USER, ("authority", TxKind.ReputationUpdate, revocation("user")),
            ("authority", TxKind.ReputationUpdate, revocation("user")._replace(score=19)),
        ],
        NotAnAuthority, "ReputationUpdate for a revoked stakeholder",
    ),
}


def registry_state(reg):
    return (
        {s: (c.roles, c.attributes, c.revoked) for s, c in reg.credentials.items()},
        set(reg.authorities),
        list(reg.verifier_ids),
        reg.unsealed(),
    )


@pytest.mark.parametrize("history, error, reason", ILLEGAL_HISTORIES.values(), ids=ILLEGAL_HISTORIES.keys())
def test_registry_refuses_illegal_history(history, error, reason):
    reg = Registry()
    *legal, (author, kind, body) = history
    for step_author, step_kind, step_body in legal:
        reg.sign(sid(step_author), step_kind, step_body.encode())
    before = registry_state(reg)
    with pytest.raises(error, match=f"^{reason}$"):
        reg.sign(sid(author), kind, body.encode())
    assert registry_state(reg) == before


@pytest.mark.parametrize("history, error, reason", ILLEGAL_HISTORIES.values(), ids=ILLEGAL_HISTORIES.keys())
def test_verify_chain_refuses_illegal_history(history, error, reason):
    chain = Chain.new()
    for height, (author, kind, body) in enumerate(history, start=1):
        tx = Transaction.create(sid(author), kind, body.encode())
        if height == len(history):
            assert verify_chain(chain).valid
        # linked with none of append_block's checks, as a forger could
        append_block(chain, [tx], sid("authority"), lambda _: True, lambda _: True)
    report = verify_chain(chain)
    assert (report.valid, report.first_bad_height, report.reason) == (False, len(history), reason)
