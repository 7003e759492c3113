"""Authority-mediated registration of pseudonymous stakeholders, and signing.

Identity proofs are abstracted to an evidence digest; a registration needs
a non-empty one. Stakeholder ids and signing secrets are derived
deterministically from the evidence digest so that a scenario replays
byte-identically. `register_body` builds a Register payload, which also
carries the endowment the registration mints; `contracts.ContractSystem`
signs it, so one transaction issues the credential and opens the accounts.

The Registry holds the credentials, and `Registry.apply` is their one
rulebook. The Registry is the one place that signs: `Registry.sign`
applies every transaction it signs, and `ledger.verify_chain` replays a
dump through `apply` on a fresh Registry, so the writer and the auditor
keep the same rules. `sign` also queues each transaction until a block
seals it, and that queue, `unsealed()`, is the one record of what a round
signed: the engine seals exactly it, in signing order. When sealing,
`authenticate_committed` trusts exactly those objects and re-derives the
id and signature of every other transaction (hand-built, copied or signed
elsewhere).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

from .encoding import Digest
from .errors import (
    DuplicateRegistration,
    DuplicateTransaction,
    EncodingError,
    NotAnAuthority,
    UnknownStakeholder,
)
from .ledger import Transaction, TxKind, keyed_digest, sha256
from .payloads import RegisterBody, ReputationUpdateBody


class Role(Enum):
    Producer = "Producer"
    Consumer = "Consumer"
    Verifier = "Verifier"
    Authority = "Authority"


# Kinds bound once (`TxKind.X` goes through the Enum metaclass); the
# authority's kinds are a tuple, scanned by identity, not Enum hashes.
_REGISTER, _REPUTATION_UPDATE = TxKind.Register, TxKind.ReputationUpdate
_AUTHORITY_KINDS = (TxKind.FinalizeVerification, TxKind.ReputationUpdate, TxKind.AccessGrant)


@dataclass(frozen=True)
class ProofOfIdentity:
    claimed_roles: frozenset[Role]
    attributes: frozenset[str]
    evidence_digest: Digest


@dataclass
class Credential:
    stakeholder: Digest
    roles: frozenset[Role]
    attributes: frozenset[str]
    revoked: bool
    secret: bytes


def stakeholder_id(evidence_digest: Digest) -> Digest:
    return sha256(b"stakeholder:" + evidence_digest)


def derive_secret(evidence_digest: Digest) -> bytes:
    return sha256(b"credential-secret:" + evidence_digest)


def evidence_for(name: str) -> Digest:
    """Deterministic stand-in for real identity evidence, keyed by agent name."""
    return sha256(b"evidence:" + name.encode("utf-8"))


def register_body(proof: ProofOfIdentity, endowment: int) -> RegisterBody:
    """The Register payload for `proof`'s stakeholder, minting `endowment`."""
    return RegisterBody(
        stakeholder=stakeholder_id(proof.evidence_digest),
        roles=tuple(sorted(r.value for r in proof.claimed_roles)),
        attributes=tuple(sorted(proof.attributes)),
        evidence_digest=proof.evidence_digest,
        secret=derive_secret(proof.evidence_digest),
        endowment=endowment,
    )


class Registry:
    """Credential state and its rules; the single writer is the simulation
    round loop, and verify_chain replays a chain into a fresh one."""

    def __init__(self):
        self.credentials: dict[Digest, Credential] = {}
        # Ids holding the Verifier role, in id order. Roles never change and
        # credentials are only revoked, never removed, so this only grows.
        self.verifier_ids: list[Digest] = []
        # Ids holding the Authority role, revoked or not.
        self.authorities: set[Digest] = set()
        # The id of every transaction this registry signed, sealed or not.
        self._signed: set[Digest] = set()
        # Transactions this registry signed and no block has sealed yet, by
        # object identity.
        self._unsealed: dict[int, Transaction] = {}

    def get(self, stakeholder: Digest) -> Credential:
        try:
            return self.credentials[stakeholder]
        except KeyError:
            raise UnknownStakeholder(stakeholder.hex()) from None

    def apply(self, author: Digest, kind: TxKind, payload: bytes) -> bytes:
        """Apply a transaction's effect on the credentials, in chain order,
        and return the secret its signature must be keyed by.

        The one rulebook for credentials: an illegal transaction changes
        nothing and raises a CtiSimError whose message is verify_chain's
        reason. The first credential is the Authority's self-registration,
        and only an acting authority registers the others; every id and
        secret is the one derived from its evidence, so evidence backs one id.
        """
        cred = self.credentials.get(author)
        if cred is not None and cred.revoked:
            raise NotAnAuthority("transaction by revoked author")
        if kind is _REGISTER:
            try:
                body = RegisterBody.decode(payload)
            except EncodingError:
                raise EncodingError("malformed Register payload") from None
            if cred is not None:
                if author not in self.authorities:
                    raise NotAnAuthority("Register by an author without the Authority role")
            elif author != body.stakeholder:
                raise NotAnAuthority("Register by unregistered author")
            elif self.credentials:
                raise NotAnAuthority("self-registration on a non-empty registry")
            elif "Authority" not in body.roles:
                raise NotAnAuthority("self-registration without the Authority role")
            if not body.roles:
                raise NotAnAuthority("Register without a role")
            if not body.evidence_digest:
                raise NotAnAuthority("Register without identity evidence")
            if body.stakeholder != stakeholder_id(body.evidence_digest):
                raise NotAnAuthority("Register with an id not derived from its evidence")
            if body.secret != derive_secret(body.evidence_digest):
                raise NotAnAuthority("Register with a secret not derived from its evidence")
            try:
                roles = frozenset(map(Role, body.roles))
            except ValueError:
                raise NotAnAuthority("Register with an unknown role") from None
            sid = body.stakeholder
            if sid in self.credentials:
                raise DuplicateRegistration("duplicate registration")
            self.credentials[sid] = Credential(sid, roles, frozenset(body.attributes), False, body.secret)
            if "Authority" in body.roles:
                self.authorities.add(sid)
            if "Verifier" in body.roles:
                bisect.insort(self.verifier_ids, sid)
            return body.secret if cred is None else cred.secret
        if cred is None:
            raise UnknownStakeholder("transaction by unregistered author")
        if kind in _AUTHORITY_KINDS and author not in self.authorities:
            raise NotAnAuthority(f"{kind.value} by an author without the Authority role")
        if kind is _REPUTATION_UPDATE:
            try:
                body = ReputationUpdateBody.decode(payload)
            except EncodingError:
                raise EncodingError("malformed ReputationUpdate payload") from None
            subject = self.credentials.get(body.stakeholder)
            if subject is None:
                raise UnknownStakeholder("ReputationUpdate for an unregistered stakeholder")
            if body.revoked:
                subject.revoked = True
        return cred.secret

    def sign(self, author: Digest, kind: TxKind, payload: bytes) -> Transaction:
        """A transaction signed with the author's credential secret, once
        `apply` has accepted it and applied its effect.

        A transaction whose id this registry already signed raises
        DuplicateTransaction and is not queued: verify_chain refuses a
        repeated id. `apply` has run by then, which changes nothing for a
        repeat: it refuses a repeated Register, and a repeated revocation
        is idempotent.
        """
        tx = Transaction.create(author, kind, payload, self.apply(author, kind, payload))
        if tx.tx_id in self._signed:
            raise DuplicateTransaction(f"duplicate transaction id {tx.tx_id.hex()}")
        self._signed.add(tx.tx_id)
        self._unsealed[id(tx)] = tx
        return tx

    def unsealed(self) -> list[Transaction]:
        """What this registry signed and no block has sealed, in signing order."""
        return list(self._unsealed.values())

    def authenticate_committed(self, tx: Transaction) -> bool:
        """Whether tx's id and signature are its author's, for sealing.

        The very object `sign` returned, not yet sealed, is trusted as
        signed; any other transaction has its id and keyed signature
        re-derived. Position-independent: `sign` refuses a revoked author
        when the transaction is made, and verify_chain replays the order.
        """
        if self._unsealed.pop(id(tx), None) is not None:
            return True
        cred = self.credentials.get(tx.author)
        return (
            cred is not None
            and tx.tx_id == Transaction.compute_id(tx.author, tx.kind, tx.payload)
            and tx.signature == keyed_digest(cred.secret, tx.payload)
        )

    def is_authority(self, stakeholder: Digest) -> bool:
        return stakeholder in self.authorities and not self.credentials[stakeholder].revoked

    def active_ids(self) -> frozenset[Digest]:
        """Registered, unrevoked stakeholders: the platform group a Green
        record admits."""
        return frozenset(sid for sid, c in self.credentials.items() if not c.revoked)
