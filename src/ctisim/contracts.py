"""Deterministic contract state machines driven by the transactions they sign.

Covers the whole money and trust path of a submission: deposit escrow,
three-verifier quality votes, the validity score combining vote fraction
with producer reputation, deposit refund or forfeiture, subscription
discounts, verification-fee payouts, marketplace purchases, and the 1-100
reputation ledger with its participation threshold.

The parameters are the scenario file's `verification:` and `economics:`
sections, read straight into `VerificationPolicy` and `EconomicsConfig`.
`ContractSystem.apply` is the one rulebook for contract state, as
`identity.Registry.apply` is for credentials. Each operation, registration
included, checks that its action is legal, builds the transaction body,
signs it through `Registry.sign` (which applies it to the credentials, so a
threshold revocation happens by signing its ReputationUpdate), then applies
the same body through `apply`, and returns its result, not the transaction:
the registry keeps what it signed for the round's block. A Register carries
its stakeholder's endowment, so replaying a chain's transactions in order
through both `apply`s on fresh objects rebuilds the engine's state from the
chain and the scenario's parameters alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .access_control import authorize
from .cti import CtiRecord, decode_record, record_bytes, validate_format
from .encoding import Digest
from .errors import (
    AccessDenied,
    AlreadyFinalized,
    AlreadyPurchased,
    AlreadyVoted,
    BelowTrustThreshold,
    ContractClosed,
    DuplicateRecord,
    FormatInvalid,
    InsufficientBalance,
    NotAssigned,
    NotForSale,
    NotVerified,
    NotYetExpired,
    QuorumNotMet,
    UnknownStakeholder,
    VerifierPoolTooSmall,
)
from .identity import Credential, ProofOfIdentity, Registry, register_body, stakeholder_id
from .ledger import TxKind
from .payloads import (
    AccessGrantBody,
    FinalizeBody,
    PurchaseBody,
    RenewBody,
    ReputationUpdateBody,
    SubmitCtiBody,
    VoteBody,
)


class Vote(Enum):
    HighQuality = "HighQuality"
    LowQuality = "LowQuality"


class ContractStatus(Enum):
    PendingVerification = "PendingVerification"
    Verified = "Verified"
    Rejected = "Rejected"


class DepositState(Enum):
    Escrowed = "Escrowed"
    Refunded = "Refunded"
    Forfeited = "Forfeited"


class ForfeiturePolicy(Enum):
    Split = "Split"
    Burn = "Burn"
    HoldInContract = "HoldInContract"


# verifiers assigned to, and votes needed by, every submission
QUORUM = 3

# Kinds bound once (`TxKind.X` goes through the Enum metaclass), so that
# `ContractSystem.apply` dispatches by identity, not by Enum hashes.
_SUBMIT, _VOTE, _FINALIZE = TxKind.SubmitCti, TxKind.Vote, TxKind.FinalizeVerification
_PURCHASE, _RENEW, _REGISTER = TxKind.Purchase, TxKind.RenewSubscription, TxKind.Register
_VOTE_BY_NAME = {vote.value: vote for vote in Vote}


@dataclass(frozen=True)
class VerificationPolicy:
    """The `verification:` section: the validity score's weight on the vote
    fraction and its acceptance threshold, and the reputation ledger's
    participation threshold, score deltas and starting score."""

    alpha: float = 0.8
    tau: float = 0.5
    trust_threshold: int = 30
    delta_valid: int = 2
    delta_invalid: int = -10
    delta_majority_vote: int = 1
    delta_minority_vote: int = -3
    initial_score: int = 50


@dataclass(frozen=True)
class EconomicsConfig:
    """The `economics:` section: subscription fee, period and per-vote
    discount, submission deposit and verification fee, how records are
    priced, and where forfeited deposits go."""

    base_fee: int = 0
    period_rounds: int = 10
    discount_per_hq: int = 0
    deposit: int = 10
    verification_fee: int = 0
    sale_mode: str = "none"  # none | fixed | producer-set
    fixed_price: Optional[int] = None
    forfeiture: ForfeiturePolicy = ForfeiturePolicy.Split


@dataclass(frozen=True)
class PiResult:
    valid: bool
    score: float


def evaluate_pi(policy: VerificationPolicy, votes: list[Vote], producer_score: int) -> PiResult:
    """score = alpha * (high-quality fraction) + (1 - alpha) * (reputation / 100)."""
    if len(votes) != QUORUM:
        raise QuorumNotMet(f"need {QUORUM} votes, have {len(votes)}")
    hq = sum(1 for v in votes if v is Vote.HighQuality)
    score = policy.alpha * (hq / QUORUM) + (1.0 - policy.alpha) * (producer_score / 100.0)
    return PiResult(valid=score >= policy.tau, score=score)


@dataclass
class ReputationLedger:
    """Per-stakeholder score in [1, 100]; the policy gives the starting
    score and the participation threshold."""

    policy: VerificationPolicy
    scores: dict[Digest, int] = field(default_factory=dict)

    def add(self, stakeholder: Digest) -> None:
        self.scores[stakeholder] = self._clamp(self.policy.initial_score)

    def score_of(self, stakeholder: Digest) -> int:
        try:
            return self.scores[stakeholder]
        except KeyError:
            raise UnknownStakeholder(stakeholder.hex()) from None

    def apply(self, stakeholder: Digest, delta: int) -> None:
        self.scores[stakeholder] = self._clamp(self.score_of(stakeholder) + delta)

    def is_trusted(self, stakeholder: Digest) -> bool:
        return self.score_of(stakeholder) >= self.policy.trust_threshold

    @staticmethod
    def _clamp(score: int) -> int:
        return max(1, min(100, score))


@dataclass
class ReportContract:
    contract_id: Digest
    record: CtiRecord
    status: ContractStatus
    assigned_verifiers: tuple[Digest, ...]
    votes: dict[Digest, Vote]
    deposit: int
    deposit_state: DepositState
    verification_fee: int
    created_round: int
    finalized_round: Optional[int] = None
    score_micro: Optional[int] = None  # the validity score in millionths


@dataclass
class SubscriptionContract:
    """Each stakeholder's accrued renewal discount and the round its paid
    period ends."""

    accrued_discount: dict[Digest, int] = field(default_factory=dict)
    paid_through: dict[Digest, int] = field(default_factory=dict)


@dataclass
class MarketContract:
    """Balances, escrow, the forfeit/burn pools and each (contract, buyer)
    sale; conservation is minted == sum(balances) + escrow + held + burned
    at all times."""

    balances: dict[Digest, int] = field(default_factory=dict)
    escrow: int = 0
    held: int = 0
    burned: int = 0
    minted: int = 0
    listings: dict[Digest, int] = field(default_factory=dict)
    sales: set[tuple[Digest, Digest]] = field(default_factory=set)

    def mint(self, stakeholder: Digest, amount: int) -> None:
        self.balances[stakeholder] = self.balances.get(stakeholder, 0) + amount
        self.minted += amount

    def balance_of(self, stakeholder: Digest) -> int:
        return self.balances.get(stakeholder, 0)

    def transfer(self, src: Digest, dst: Digest, amount: int) -> None:
        if self.balance_of(src) < amount:
            raise InsufficientBalance(f"{src.hex()[:12]} short {amount - self.balance_of(src)}")
        self.balances[src] -= amount
        self.balances[dst] = self.balances.get(dst, 0) + amount

    def to_escrow(self, src: Digest, amount: int) -> None:
        if self.balance_of(src) < amount:
            raise InsufficientBalance(f"{src.hex()[:12]} short {amount - self.balance_of(src)}")
        self.balances[src] -= amount
        self.escrow += amount

    def escrow_to(self, dst: Digest, amount: int) -> None:
        assert self.escrow >= amount, "escrow underflow"
        self.escrow -= amount
        self.balances[dst] = self.balances.get(dst, 0) + amount

    def escrow_burn(self, amount: int) -> None:
        assert self.escrow >= amount, "escrow underflow"
        self.escrow -= amount
        self.burned += amount

    def escrow_hold(self, amount: int) -> None:
        assert self.escrow >= amount, "escrow underflow"
        self.escrow -= amount
        self.held += amount

    def total_supply(self) -> int:
        return sum(self.balances.values()) + self.escrow + self.held

    def conserved(self) -> bool:
        return self.total_supply() + self.burned == self.minted


@dataclass(frozen=True)
class VerificationOutcome:
    verifier_payouts: dict[Digest, int]
    discounts: dict[Digest, int]
    revoked: tuple[Digest, ...]


class ContractSystem:
    """Executes the contract operations, each signing through the registry."""

    def __init__(self, registry: Registry, policy: VerificationPolicy, economics: EconomicsConfig):
        self.registry = registry
        self.policy = policy
        self.economics = economics
        # the first authority, set by its self-registration
        self.authority: Optional[Digest] = None
        self.reputation = ReputationLedger(policy)
        self.subscription = SubscriptionContract()
        self.market = MarketContract()
        self.contracts: dict[Digest, ReportContract] = {}

    # -- the rulebook ---------------------------------------------------

    def apply(
        self, author: Digest, kind: TxKind, body, round_no: Optional[int], record: Optional[CtiRecord] = None
    ):
        """Apply a transaction's payload `body` to contract state, in chain
        order: the one place Register, SubmitCti, Vote, FinalizeVerification,
        Purchase and RenewSubscription change it. Other kinds change nothing
        here.

        `round_no` is the round of the transaction's block; only SubmitCti
        and FinalizeVerification read it, so a vote or purchase passes None.
        A SubmitCti's record is decoded from its body unless given. The
        operations check legality before they sign; apply trusts them.
        Returns a SubmitCti's contract, a FinalizeVerification's (verifier
        payouts, discounts), else None.
        """
        market = self.market
        if kind is _SUBMIT:
            if record is None:
                record = decode_record(body.record_bytes)
            market.to_escrow(author, body.deposit + body.verification_fee)
            contract = self.contracts[body.contract_id] = ReportContract(
                body.contract_id, record, ContractStatus.PendingVerification, body.verifiers, {},
                body.deposit, DepositState.Escrowed, body.verification_fee, round_no,
            )
            if record.sale_price is not None:
                market.listings[body.contract_id] = record.sale_price
            return contract
        if kind is _VOTE:
            self.contracts[body.contract_id].votes[author] = _VOTE_BY_NAME[body.vote]
        elif kind is _FINALIZE:
            contract = self.contracts[body.contract_id]
            producer, verifiers = contract.record.producer, contract.assigned_verifiers
            valid = body.status == ContractStatus.Verified.value
            contract.status = ContractStatus.Verified if valid else ContractStatus.Rejected
            contract.finalized_round = round_no
            contract.score_micro = body.score_micro
            payouts: dict[Digest, int] = {}

            # (a) deposit: refunded, or forfeited as the policy says
            if valid:
                market.escrow_to(producer, contract.deposit)
                contract.deposit_state = DepositState.Refunded
            else:
                contract.deposit_state = DepositState.Forfeited
                forfeiture = self.economics.forfeiture
                if forfeiture is ForfeiturePolicy.Burn:
                    market.escrow_burn(contract.deposit)
                elif forfeiture is ForfeiturePolicy.HoldInContract:
                    market.escrow_hold(contract.deposit)
                else:
                    self._split_escrow(contract.deposit, verifiers, payouts)

            # (b) subscription discounts: verifiers always, producer only on
            # a high-quality majority
            votes = [contract.votes[v] for v in verifiers]
            majority = Vote.HighQuality if votes.count(Vote.HighQuality) * 2 > QUORUM else Vote.LowQuality
            discounts: dict[Digest, int] = {}
            per_hq = self.economics.discount_per_hq
            if per_hq > 0:
                accrued = self.subscription.accrued_discount
                for sid in (*verifiers, producer) if majority is Vote.HighQuality else verifiers:
                    accrued[sid] = accrued.get(sid, 0) + per_hq
                    discounts[sid] = per_hq

            # (c) reputation
            policy = self.policy
            self.reputation.apply(producer, policy.delta_valid if valid else policy.delta_invalid)
            for v, vote in zip(verifiers, votes):
                delta = policy.delta_majority_vote if vote is majority else policy.delta_minority_vote
                self.reputation.apply(v, delta)

            # (d) verification fee payout
            if contract.verification_fee:
                self._split_escrow(contract.verification_fee, verifiers, payouts)
            return payouts, discounts
        elif kind is _PURCHASE:
            market.transfer(author, self.contracts[body.contract_id].record.producer, body.price)
            market.sales.add((body.contract_id, author))
        elif kind is _RENEW:
            if body.charge:
                market.transfer(author, self.authority, body.charge)
            self.subscription.accrued_discount[author] = 0
            self.subscription.paid_through[author] = body.paid_through
        elif kind is _REGISTER:
            # open the accounts: starting reputation, minted endowment, and
            # a first subscription period that registration pays for
            sid = body.stakeholder
            if author == sid:
                self.authority = sid
            self.reputation.add(sid)
            market.mint(sid, body.endowment)
            self.subscription.accrued_discount[sid] = 0
            self.subscription.paid_through[sid] = self.economics.period_rounds
        return None

    def _commit(
        self, author: Digest, kind: TxKind, body, round_no: Optional[int], record: Optional[CtiRecord] = None
    ):
        """Sign `body` as `author`'s transaction of `kind`, then apply it;
        returns what `apply` returns."""
        self.registry.sign(author, kind, body.encode())
        return self.apply(author, kind, body, round_no, record)

    def _split_escrow(self, amount: int, verifiers: tuple[Digest, ...], payouts: dict[Digest, int]) -> None:
        """Pay each verifier a QUORUM-th of escrowed `amount` into `payouts`; burn the rest."""
        share = amount // QUORUM
        for v in verifiers:
            self.market.escrow_to(v, share)
            payouts[v] = payouts.get(v, 0) + share
        remainder = amount - share * QUORUM
        if remainder:
            self.market.escrow_burn(remainder)

    # -- registration ---------------------------------------------------

    def bootstrap(self, proof: ProofOfIdentity, endowment: int) -> Credential:
        """Self-registration of the first authority: it signs its own Register."""
        return self._register(stakeholder_id(proof.evidence_digest), proof, endowment)

    def register(self, proof: ProofOfIdentity, endowment: int) -> Credential:
        """The credential `proof` asks for, once the authority has signed its Register."""
        return self._register(self.authority, proof, endowment)

    def _register(self, author: Optional[Digest], proof: ProofOfIdentity, endowment: int) -> Credential:
        body = register_body(proof, endowment)
        self._commit(author, _REGISTER, body, None)
        return self.registry.credentials[body.stakeholder]

    # -- submission -----------------------------------------------------

    def verifier_pool(self, producer: Digest) -> list[Digest]:
        """Trusted verifiers eligible for assignment, in stable id order."""
        credentials = self.registry.credentials
        scores = self.reputation.scores
        return [
            sid
            for sid in self.registry.verifier_ids
            if sid != producer
            and not credentials[sid].revoked
            and sid in scores
            and self.reputation.is_trusted(sid)
        ]

    def submit_report(self, producer: Digest, record: CtiRecord, rng: random.Random) -> ReportContract:
        if not self.reputation.is_trusted(producer):
            raise BelowTrustThreshold(
                f"score {self.reputation.score_of(producer)} < {self.policy.trust_threshold}"
            )
        violations = validate_format(record)
        if violations:
            raise FormatInvalid(violations)
        if record.record_id in self.contracts:
            raise DuplicateRecord(record.record_id.hex())
        deposit = self.economics.deposit
        fee = self.economics.verification_fee if record.sale_price is not None else 0
        need = deposit + fee
        if self.market.balance_of(producer) < need:
            raise InsufficientBalance(f"need {need}, have {self.market.balance_of(producer)}")
        pool = self.verifier_pool(producer)
        if len(pool) < QUORUM:
            raise VerifierPoolTooSmall(f"{len(pool)} eligible, need {QUORUM}")
        verifiers = tuple(rng.sample(pool, QUORUM))

        body = SubmitCtiBody(record.record_id, record_bytes(record), deposit, fee, verifiers)
        return self._commit(producer, _SUBMIT, body, record.created_round, record)

    # -- voting ----------------------------------------------------------

    def cast_vote(self, verifier: Digest, contract_id: Digest, vote: Vote) -> None:
        contract = self.contracts.get(contract_id)
        if contract is None or contract.status is not ContractStatus.PendingVerification:
            raise ContractClosed(contract_id.hex())
        if verifier not in contract.assigned_verifiers:
            raise NotAssigned(verifier.hex()[:12])
        if verifier in contract.votes:
            raise AlreadyVoted(verifier.hex()[:12])
        if not self.reputation.is_trusted(verifier):
            raise BelowTrustThreshold(f"verifier score below {self.policy.trust_threshold}")
        self._commit(verifier, _VOTE, VoteBody(contract_id=contract_id, vote=vote.value), None)

    # -- finalization ----------------------------------------------------

    def finalize_verification(self, contract_id: Digest, round_no: int) -> VerificationOutcome:
        contract = self.contracts.get(contract_id)
        if contract is None:
            raise ContractClosed(contract_id.hex())
        if contract.status is not ContractStatus.PendingVerification:
            raise AlreadyFinalized(contract_id.hex())
        ordered_votes = [contract.votes[v] for v in contract.assigned_verifiers if v in contract.votes]
        if len(ordered_votes) != QUORUM:
            raise QuorumNotMet(f"{len(ordered_votes)} of {QUORUM} votes cast")

        producer = contract.record.producer
        pi = evaluate_pi(self.policy, ordered_votes, self.reputation.score_of(producer))
        status = ContractStatus.Verified if pi.valid else ContractStatus.Rejected
        deposit_state = DepositState.Refunded if pi.valid else DepositState.Forfeited
        body = FinalizeBody(contract_id, status.value, int(round(pi.score * 1_000_000)), deposit_state.value)
        payouts, discounts = self._commit(self.authority, _FINALIZE, body, round_no)

        # threshold revocations
        revoked: list[Digest] = []
        for sid in [producer, *contract.assigned_verifiers]:
            if not self.reputation.is_trusted(sid) and not self.registry.get(sid).revoked:
                reason = "reputation below trust threshold"
                rb = ReputationUpdateBody(sid, self.reputation.score_of(sid), True, reason)
                # signing applies it: the registry revokes the credential
                self.registry.sign(self.authority, TxKind.ReputationUpdate, rb.encode())
                revoked.append(sid)
        return VerificationOutcome(payouts, discounts, tuple(revoked))

    # -- marketplace -----------------------------------------------------

    def purchase(self, consumer: Digest, contract_id: Digest, group_members: set[Digest]) -> int:
        """Buy access, once per consumer, to a verified listed record; returns
        the price paid."""
        contract = self.contracts.get(contract_id)
        if contract is None:
            raise NotForSale(contract_id.hex())
        if contract.status is not ContractStatus.Verified:
            raise NotVerified(contract_id.hex())
        price = self.market.listings.get(contract_id)
        if price is None:
            raise NotForSale(contract_id.hex())
        if consumer == contract.record.producer:
            raise AccessDenied("producers may not consume their own records")
        if (contract_id, consumer) in self.market.sales:
            raise AlreadyPurchased(consumer.hex()[:12])
        if self.market.balance_of(consumer) < price:
            raise InsufficientBalance(f"need {price}, have {self.market.balance_of(consumer)}")
        cred = self.registry.get(consumer)
        record = contract.record
        if not authorize(cred, record.tlp, record.policy, group_members):
            raise AccessDenied(consumer.hex()[:12])

        self._commit(consumer, _PURCHASE, PurchaseBody(contract_id, price), None)
        grant = AccessGrantBody(contract_id, consumer)
        self.registry.sign(self.authority, TxKind.AccessGrant, grant.encode())
        return price

    # -- subscriptions ---------------------------------------------------

    def renew_subscription(self, user: Digest, round_no: int) -> int:
        """Charge max(0, base_fee - accrued discount); returns the charge."""
        sub = self.subscription
        if user not in sub.paid_through:
            raise UnknownStakeholder(user.hex())
        if round_no < sub.paid_through[user]:
            raise NotYetExpired(f"paid through round {sub.paid_through[user]}")
        charge = max(0, self.economics.base_fee - sub.accrued_discount.get(user, 0))
        if self.market.balance_of(user) < charge:
            raise InsufficientBalance(f"renewal needs {charge}")
        body = RenewBody(charge=charge, paid_through=sub.paid_through[user] + self.economics.period_rounds)
        self._commit(user, _RENEW, body, round_no)
        return charge
