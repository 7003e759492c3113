"""Authority-mediated registration of pseudonymous stakeholders, and committing.

Identity proofs are abstracted to an evidence digest; a registration needs
a non-empty one. A stakeholder id is derived deterministically from the
evidence digest so that a scenario replays byte-identically. No
transaction carries a signature: "committing" here means accepting a
transaction under the credential rules and making it with
`Transaction.create`, whose id anyone can recompute. `register_body`
builds a Register payload of claimed roles, attributes and evidence, with
the endowment it mints; committed by `ContractSystem.register`, it grants
the credential and opens the accounts.

The Registry holds the credentials, and `Registry.apply` is their one
rulebook. The Registry is the one place that commits: `Registry.commit`
applies every transaction it commits, and `ledger.verify_chain` replays a
dump through `apply` on a fresh Registry, so the writer and the auditor
keep the same rules. `commit` also queues each transaction until a block
seals it, and that queue, `unsealed()`, is the one record of what a round
committed: the engine seals exactly it, in commit order. When sealing,
`authenticate_committed` trusts exactly the queued objects and re-derives
every other transaction (hand-built, copied or made elsewhere) with
`Transaction.create`, and requires its author to be registered; it takes
nothing off the queue, so a refused seal leaves the queue as it was.
`mark_sealed` takes a sealed block's transactions off it.
"""

from __future__ import annotations

import bisect
from enum import Enum

from .encoding import ComparedByFields, Digest
from .errors import (
    DuplicateRegistration,
    DuplicateTransaction,
    EncodingError,
    NotAnAuthority,
    UnknownStakeholder,
)
from .ledger import Block, Transaction, TxKind, sha256
from .payloads import RegisterBody, ReputationUpdateBody


class Role(Enum):
    Producer = "Producer"
    Consumer = "Consumer"
    Verifier = "Verifier"
    Authority = "Authority"


# Kinds bound once (`TxKind.X` goes through the Enum metaclass); the
# authority's kinds are a tuple, scanned by identity, not Enum hashes.
_REGISTER, _REPUTATION_UPDATE = TxKind.Register, TxKind.ReputationUpdate
_AUTHORITY_KINDS = (TxKind.FinalizeVerification, TxKind.ReputationUpdate)


class Credential(ComparedByFields):
    __slots__ = ("stakeholder", "roles", "attributes", "revoked")

    def __init__(self, stakeholder: Digest, roles: frozenset[Role], attributes: frozenset[str], revoked: bool):
        self.stakeholder = stakeholder
        self.roles = roles
        self.attributes = attributes
        self.revoked = revoked


def stakeholder_id(evidence_digest: Digest) -> Digest:
    return sha256(b"stakeholder:" + evidence_digest)


def evidence_for(name: str) -> Digest:
    """Deterministic stand-in for real identity evidence, keyed by agent name."""
    return sha256(b"evidence:" + name.encode("utf-8"))


def register_body(
    roles: frozenset[Role], attributes: frozenset[str], evidence: Digest, endowment: int
) -> RegisterBody:
    """The Register payload claiming `roles` and `attributes` on `evidence`, minting `endowment`."""
    return RegisterBody(
        stakeholder=stakeholder_id(evidence),
        roles=tuple(sorted(r.value for r in roles)),
        attributes=tuple(sorted(attributes)),
        evidence_digest=evidence,
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
        # The id of every transaction this registry committed, sealed or not.
        self._committed: set[Digest] = set()
        # Transactions this registry committed and no block has sealed yet, by
        # object identity.
        self._unsealed: dict[int, Transaction] = {}

    def get(self, stakeholder: Digest) -> Credential:
        try:
            return self.credentials[stakeholder]
        except KeyError:
            raise UnknownStakeholder(stakeholder.hex()) from None

    def apply(self, author: Digest, kind: TxKind, payload: bytes) -> None:
        """Apply a transaction's effect on the credentials, in chain order.

        The one rulebook for credentials: an illegal transaction changes
        nothing and raises a CtiSimError whose message is verify_chain's
        reason. The first credential is the Authority's self-registration,
        and only an acting authority registers the others; every id is the
        one derived from its evidence, so evidence backs one id. A Register
        is accepted in the one spelling `register_body` writes: its roles
        and its attributes each sorted and unique. Only an authority writes
        a FinalizeVerification or a ReputationUpdate. A ReputationUpdate
        names a registered stakeholder not yet revoked: revocation happens
        once.
        """
        cred = self.credentials.get(author)
        if cred is not None and cred.revoked:
            raise NotAnAuthority("transaction by revoked author")
        if kind is _REGISTER:
            try:
                body = RegisterBody.decode(payload)
            except EncodingError:
                raise EncodingError("malformed Register payload") from None
            for name, values in (("roles", body.roles), ("attributes", body.attributes)):
                if any(a >= b for a, b in zip(values, values[1:])):
                    raise EncodingError(f"Register with {name} not sorted and unique")
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
            try:
                roles = frozenset(map(Role, body.roles))
            except ValueError:
                raise NotAnAuthority("Register with an unknown role") from None
            sid = body.stakeholder
            if sid in self.credentials:
                raise DuplicateRegistration("duplicate registration")
            self.credentials[sid] = Credential(sid, roles, frozenset(body.attributes), False)
            if "Authority" in body.roles:
                self.authorities.add(sid)
            if "Verifier" in body.roles:
                bisect.insort(self.verifier_ids, sid)
            return
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
            if subject.revoked:
                raise NotAnAuthority("ReputationUpdate for a revoked stakeholder")
            if body.revoked:
                subject.revoked = True

    def commit(self, author: Digest, kind: TxKind, payload: bytes) -> Transaction:
        """The author's transaction, made once `apply` has accepted it and
        applied its effect.

        A transaction whose id this registry already committed raises
        DuplicateTransaction and is not queued: verify_chain refuses a
        repeated id. `apply` has run by then, which changes nothing for a
        repeat: it refuses a repeated Register and a revocation of a revoked
        subject, and no other kind changes a credential.
        """
        self.apply(author, kind, payload)
        tx = Transaction.create(author, kind, payload)
        if tx.tx_id in self._committed:
            raise DuplicateTransaction(f"duplicate transaction id {tx.tx_id.hex()}")
        self._committed.add(tx.tx_id)
        self._unsealed[id(tx)] = tx
        return tx

    def unsealed(self) -> list[Transaction]:
        """What this registry committed and no block has sealed, in commit order."""
        return list(self._unsealed.values())

    def authenticate_committed(self, tx: Transaction) -> bool:
        """Whether tx is its registered author's, with its id derived, for sealing.

        The very object `commit` returned, still queued, is trusted as
        committed; any other transaction needs a registered author and must
        equal the one `Transaction.create` derives. Position-independent:
        `commit` refuses a revoked author when the transaction is made, and
        verify_chain replays the order.
        """
        if id(tx) in self._unsealed:
            return True
        return tx.author in self.credentials and tx == Transaction.create(tx.author, tx.kind, tx.payload)

    def mark_sealed(self, block: Block) -> None:
        """Take a sealed block's transactions off the queue."""
        for tx in block.transactions:
            self._unsealed.pop(id(tx), None)

    def is_authority(self, stakeholder: Digest) -> bool:
        return stakeholder in self.authorities and not self.credentials[stakeholder].revoked

    def active_ids(self) -> frozenset[Digest]:
        """Registered, unrevoked stakeholders: the platform group a Green
        record admits."""
        return frozenset(sid for sid, c in self.credentials.items() if not c.revoked)
