"""Kind-specific transaction payload bodies, declared as field layouts.

Each body's fields, in declared order, are its wire layout: every field is
encoded by the codec `encoding.FIELD_CODECS` gives its annotation, and
`encode`/`decode` come from `encoding.Layout`. Field order is wire order,
so reordering, adding or retyping a field changes the chain bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import Digest, Layout


@dataclass(frozen=True)
class RegisterBody(Layout):
    """Registration record: the claimed roles and attributes, the identity
    evidence the stakeholder id is derived from, and the currency
    registration mints for the stakeholder."""

    stakeholder: Digest
    roles: tuple[str, ...]
    attributes: tuple[str, ...]
    evidence_digest: Digest
    endowment: int


@dataclass(frozen=True)
class SubmitCtiBody(Layout):
    contract_id: Digest
    record_bytes: bytes
    deposit: int
    verification_fee: int
    verifiers: tuple[Digest, ...]


@dataclass(frozen=True)
class VoteBody(Layout):
    contract_id: Digest
    vote: str


@dataclass(frozen=True)
class FinalizeBody(Layout):
    contract_id: Digest
    status: str
    score_micro: int
    deposit_state: str


@dataclass(frozen=True)
class PurchaseBody(Layout):
    contract_id: Digest
    price: int


@dataclass(frozen=True)
class RenewBody(Layout):
    charge: int
    paid_through: int


@dataclass(frozen=True)
class ReputationUpdateBody(Layout):
    stakeholder: Digest
    score: int
    revoked: bool
    reason: str


@dataclass(frozen=True)
class AccessGrantBody(Layout):
    contract_id: Digest
    consumer: Digest
