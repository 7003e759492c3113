"""Kind-specific transaction payload bodies, declared as field layouts.

Each body is a `typing.NamedTuple` whose fields, in declared order, are its
wire layout: every field is encoded by the codec `encoding.FIELD_CODECS`
gives its annotation, and `encode`/`decode` are attached by the
`encoding.layout` decorator. Field order is wire order, so reordering,
adding or retyping a field changes the chain bytes. Like a transaction, a
body is immutable, compares and hashes as its field tuple, and builds no
per-class code at import beyond its `__new__`.
"""

from __future__ import annotations

from typing import NamedTuple

from .encoding import Digest, layout


@layout
class RegisterBody(NamedTuple):
    """Registration record: the claimed roles and attributes, the identity
    evidence the stakeholder id is derived from, and the currency
    registration mints for the stakeholder."""

    stakeholder: Digest
    roles: tuple[str, ...]
    attributes: tuple[str, ...]
    evidence_digest: Digest
    endowment: int


@layout
class SubmitCtiBody(NamedTuple):
    contract_id: Digest
    record_bytes: bytes
    deposit: int
    verification_fee: int
    verifiers: tuple[Digest, ...]


@layout
class VoteBody(NamedTuple):
    contract_id: Digest
    vote: str


@layout
class FinalizeBody(NamedTuple):
    contract_id: Digest
    status: str
    score_micro: int
    deposit_state: str


@layout
class PurchaseBody(NamedTuple):
    contract_id: Digest
    price: int


@layout
class RenewBody(NamedTuple):
    charge: int
    paid_through: int


@layout
class ReputationUpdateBody(NamedTuple):
    stakeholder: Digest
    score: int
    revoked: bool
    reason: str


@layout
class AccessGrantBody(NamedTuple):
    contract_id: Digest
    consumer: Digest
