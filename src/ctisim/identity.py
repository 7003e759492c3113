"""Authority-mediated registration of pseudonymous stakeholders, and signing.

Identity proofs are abstracted to an evidence digest; a registration is
accepted whenever the digest is non-empty. Stakeholder ids and signing
secrets are derived deterministically from the evidence digest so that a
scenario replays byte-identically.

The Registry is the one place that signs: `Registry.sign` signs a
transaction with its author's credential secret and remembers the object
until it is sealed. When sealing, `authenticate_committed` trusts exactly
those objects and re-derives the id and signature of every other
transaction (hand-built, copied or signed elsewhere).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .encoding import Digest
from .errors import DuplicateRegistration, NotAnAuthority, UnknownStakeholder
from .ledger import Transaction, TxKind, keyed_digest, sha256
from .payloads import RegisterBody


class Role(Enum):
    Producer = "Producer"
    Consumer = "Consumer"
    Verifier = "Verifier"
    Authority = "Authority"


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
    issued_round: int
    revoked: bool
    secret: bytes


def stakeholder_id(evidence_digest: Digest) -> Digest:
    return sha256(b"stakeholder:" + evidence_digest)


def derive_secret(evidence_digest: Digest) -> bytes:
    return sha256(b"credential-secret:" + evidence_digest)


def evidence_for(name: str) -> Digest:
    """Deterministic stand-in for real identity evidence, keyed by agent name."""
    return sha256(b"evidence:" + name.encode("utf-8"))


class Registry:
    """Credential store; the single writer is the simulation round loop."""

    def __init__(self, initial_score: int):
        self.credentials: dict[Digest, Credential] = {}
        # Ids holding the Verifier role, in id order. Roles never change and
        # credentials are only revoked, never removed, so this only grows.
        self.verifier_ids: list[Digest] = []
        self.initial_score = initial_score
        # Transactions this registry signed and no block has sealed yet.
        self._unsealed: dict[Digest, Transaction] = {}

    def get(self, stakeholder: Digest) -> Credential:
        try:
            return self.credentials[stakeholder]
        except KeyError:
            raise UnknownStakeholder(stakeholder.hex()) from None

    def bootstrap(self, proof: ProofOfIdentity, round_no: int = 0) -> tuple[Credential, Transaction]:
        """Self-registration of the first authority; only valid on an empty registry."""
        if self.credentials:
            raise NotAnAuthority("bootstrap only allowed on an empty registry")
        if Role.Authority not in proof.claimed_roles:
            raise NotAnAuthority("bootstrap credential must claim the Authority role")
        return self._issue(proof, author=None, round_no=round_no)

    def register(
        self, proof: ProofOfIdentity, authority: Digest, round_no: int = 0
    ) -> tuple[Credential, Transaction]:
        auth_cred = self.credentials.get(authority)
        if auth_cred is None or auth_cred.revoked or Role.Authority not in auth_cred.roles:
            raise NotAnAuthority(f"{authority.hex()[:12]} is not an acting authority")
        return self._issue(proof, author=authority, round_no=round_no)

    def _issue(
        self, proof: ProofOfIdentity, author: Optional[Digest], round_no: int
    ) -> tuple[Credential, Transaction]:
        if not proof.claimed_roles:
            raise NotAnAuthority("credential must claim at least one role")
        if not proof.evidence_digest:
            raise NotAnAuthority("identity evidence required")
        sid = stakeholder_id(proof.evidence_digest)
        if sid in self.credentials:
            raise DuplicateRegistration(sid.hex())
        secret = derive_secret(proof.evidence_digest)
        cred = Credential(
            stakeholder=sid,
            roles=frozenset(proof.claimed_roles),
            attributes=frozenset(proof.attributes),
            issued_round=round_no,
            revoked=False,
            secret=secret,
        )
        self.credentials[sid] = cred
        if Role.Verifier in cred.roles:
            bisect.insort(self.verifier_ids, sid)
        body = RegisterBody(
            stakeholder=sid,
            roles=tuple(sorted(r.value for r in cred.roles)),
            attributes=tuple(sorted(cred.attributes)),
            evidence_digest=proof.evidence_digest,
            secret=secret,
            initial_score=self.initial_score,
        )
        # the bootstrap authority (author None) signs its own registration
        return cred, self.sign(sid if author is None else author, TxKind.Register, body.encode())

    def revoke(self, stakeholder: Digest) -> None:
        """Revoke a credential whose reputation fell below the trust
        threshold. Idempotent."""
        self.get(stakeholder).revoked = True

    def sign(self, author: Digest, kind: TxKind, payload: bytes) -> Transaction:
        """A transaction signed with the author's credential secret."""
        tx = Transaction.create(author, kind, payload, self.get(author).secret)
        self._unsealed[tx.tx_id] = tx
        return tx

    def authenticate_committed(self, tx: Transaction) -> bool:
        """Whether tx's id and signature are its author's, for sealing.

        The very object `sign` returned, not yet sealed, is trusted as
        signed; any other transaction has its id and keyed signature
        re-derived. Position-independent: revocation ordering is handled by
        chain replay.
        """
        if self._unsealed.pop(tx.tx_id, None) is tx:
            return True
        cred = self.credentials.get(tx.author)
        return (
            cred is not None
            and tx.tx_id == Transaction.compute_id(tx.author, tx.kind, tx.payload)
            and tx.signature == keyed_digest(cred.secret, tx.payload)
        )

    def is_authority(self, stakeholder: Digest) -> bool:
        cred = self.credentials.get(stakeholder)
        return cred is not None and not cred.revoked and Role.Authority in cred.roles

    def active_ids(self) -> list[Digest]:
        """Registered, unrevoked stakeholders in stable (id) order."""
        return sorted(sid for sid, c in self.credentials.items() if not c.revoked)
