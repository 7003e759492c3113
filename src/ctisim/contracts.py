"""Deterministic contract state machines executed against ledger transactions.

Covers the whole money and trust path of a submission: deposit escrow,
three-verifier quality votes, the validity score combining vote fraction
with producer reputation, deposit refund or forfeiture, subscription
discounts, verification-fee payouts, marketplace purchases, and the 1-100
reputation ledger with its participation threshold.

The parameters are the scenario file's `verification:` and `economics:`
sections, read straight into `VerificationPolicy` and `EconomicsConfig`.
Each operation emits ledger transactions, but the parameters and the
starting endowments are not on the chain, so contract state cannot be
recomputed from the chain alone. The engine's round loop is the single
writer. Credentials are the exception: every operation signs its
transactions through `identity.Registry.sign`, which applies each one to
the registry's credentials, so a threshold revocation happens by signing
its ReputationUpdate and `ledger.verify_chain` can replay it from the
chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .access_control import authorize
from .cti import CtiRecord, record_bytes, validate_format
from .encoding import Digest
from .errors import (
    AccessDenied,
    AlreadyFinalized,
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
from .identity import Registry
from .ledger import Transaction, TxKind
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

    def add(self, stakeholder: Digest) -> int:
        self.scores[stakeholder] = self._clamp(self.policy.initial_score)
        return self.scores[stakeholder]

    def score_of(self, stakeholder: Digest) -> int:
        try:
            return self.scores[stakeholder]
        except KeyError:
            raise UnknownStakeholder(stakeholder.hex()) from None

    def apply(self, stakeholder: Digest, delta: int) -> int:
        new = self._clamp(self.score_of(stakeholder) + delta)
        self.scores[stakeholder] = new
        return new

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
    pi_score: Optional[float] = None


@dataclass
class SubscriptionContract:
    """Each stakeholder's accrued renewal discount and the round its paid
    period ends."""

    accrued_discount: dict[Digest, int] = field(default_factory=dict)
    paid_through: dict[Digest, int] = field(default_factory=dict)

    def accrue(self, stakeholder: Digest, amount: int) -> None:
        self.accrued_discount[stakeholder] = self.accrued_discount.get(stakeholder, 0) + amount


@dataclass
class MarketContract:
    """Balances, escrow and the forfeit/burn pools; conservation is
    minted == sum(balances) + escrow + held + burned at all times."""

    balances: dict[Digest, int] = field(default_factory=dict)
    escrow: int = 0
    held: int = 0
    burned: int = 0
    minted: int = 0
    listings: dict[Digest, int] = field(default_factory=dict)

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
    status: ContractStatus
    verifier_payouts: dict[Digest, int]
    discounts: dict[Digest, int]
    revoked: tuple[Digest, ...]


class ContractSystem:
    """Executes the contract operations and emits the matching transactions.

    Transactions returned by each operation are the engine's to batch into
    the current round's block.
    """

    def __init__(
        self,
        registry: Registry,
        policy: VerificationPolicy,
        economics: EconomicsConfig,
        authority: Digest,
    ):
        self.registry = registry
        self.policy = policy
        self.economics = economics
        self.authority = authority
        self.reputation = ReputationLedger(policy)
        self.subscription = SubscriptionContract()
        self.market = MarketContract()
        self.contracts: dict[Digest, ReportContract] = {}

    def enroll(self, stakeholder: Digest, endowment: int) -> None:
        """Open a registered stakeholder's accounts at round 0: starting
        reputation, minted endowment, and a first subscription period that
        registration pays for."""
        self.reputation.add(stakeholder)
        self.market.mint(stakeholder, endowment)
        self.subscription.accrued_discount[stakeholder] = 0
        self.subscription.paid_through[stakeholder] = self.economics.period_rounds

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

    def submit_report(
        self, producer: Digest, record: CtiRecord, rng: random.Random
    ) -> tuple[ReportContract, list[Transaction]]:
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

        self.market.to_escrow(producer, need)
        contract = ReportContract(
            contract_id=record.record_id,
            record=record,
            status=ContractStatus.PendingVerification,
            assigned_verifiers=verifiers,
            votes={},
            deposit=deposit,
            deposit_state=DepositState.Escrowed,
            verification_fee=fee,
            created_round=record.created_round,
        )
        self.contracts[contract.contract_id] = contract
        if record.sale_price is not None:
            self.market.listings[contract.contract_id] = record.sale_price
        body = SubmitCtiBody(
            contract_id=contract.contract_id,
            record_bytes=record_bytes(record),
            deposit=deposit,
            verification_fee=fee,
            verifiers=verifiers,
        )
        return contract, [self.registry.sign(producer, TxKind.SubmitCti, body.encode())]

    # -- voting ----------------------------------------------------------

    def cast_vote(self, verifier: Digest, contract_id: Digest, vote: Vote) -> list[Transaction]:
        contract = self.contracts.get(contract_id)
        if contract is None or contract.status is not ContractStatus.PendingVerification:
            raise ContractClosed(contract_id.hex())
        if verifier not in contract.assigned_verifiers:
            raise NotAssigned(verifier.hex()[:12])
        if verifier in contract.votes:
            raise AlreadyVoted(verifier.hex()[:12])
        if not self.reputation.is_trusted(verifier):
            raise BelowTrustThreshold(f"verifier score below {self.policy.trust_threshold}")
        contract.votes[verifier] = vote
        body = VoteBody(contract_id=contract_id, vote=vote.value)
        return [self.registry.sign(verifier, TxKind.Vote, body.encode())]

    # -- finalization ----------------------------------------------------

    def finalize_verification(
        self, contract_id: Digest, round_no: int
    ) -> tuple[VerificationOutcome, list[Transaction]]:
        contract = self.contracts.get(contract_id)
        if contract is None:
            raise ContractClosed(contract_id.hex())
        if contract.status is not ContractStatus.PendingVerification:
            raise AlreadyFinalized(contract_id.hex())
        ordered_votes = [
            contract.votes[v] for v in contract.assigned_verifiers if v in contract.votes
        ]
        if len(ordered_votes) != QUORUM:
            raise QuorumNotMet(f"{len(ordered_votes)} of {QUORUM} votes cast")

        producer = contract.record.producer
        pi = evaluate_pi(self.policy, ordered_votes, self.reputation.score_of(producer))
        hq_count = sum(1 for v in ordered_votes if v is Vote.HighQuality)
        majority_hq = hq_count * 2 > QUORUM
        majority_vote = Vote.HighQuality if majority_hq else Vote.LowQuality

        payouts: dict[Digest, int] = {}

        # (a) status
        contract.status = ContractStatus.Verified if pi.valid else ContractStatus.Rejected
        contract.finalized_round = round_no
        contract.pi_score = pi.score

        # (b) deposit
        if pi.valid:
            self.market.escrow_to(producer, contract.deposit)
            contract.deposit_state = DepositState.Refunded
        else:
            contract.deposit_state = DepositState.Forfeited
            forfeiture = self.economics.forfeiture
            if forfeiture is ForfeiturePolicy.Burn:
                self.market.escrow_burn(contract.deposit)
            elif forfeiture is ForfeiturePolicy.HoldInContract:
                self.market.escrow_hold(contract.deposit)
            else:
                self._split_escrow(contract.deposit, contract.assigned_verifiers, payouts)

        # (c) subscription discounts: verifiers always, producer only on
        # a high-quality majority
        discounts: dict[Digest, int] = {}
        per_hq = self.economics.discount_per_hq
        if per_hq > 0:
            for v in contract.assigned_verifiers:
                self.subscription.accrue(v, per_hq)
                discounts[v] = per_hq
            if majority_hq:
                self.subscription.accrue(producer, per_hq)
                discounts[producer] = per_hq

        # (d) reputation
        policy = self.policy
        self.reputation.apply(producer, policy.delta_valid if pi.valid else policy.delta_invalid)
        for v in contract.assigned_verifiers:
            delta = (
                policy.delta_majority_vote
                if contract.votes[v] is majority_vote
                else policy.delta_minority_vote
            )
            self.reputation.apply(v, delta)

        # (e) verification fee payout
        if contract.verification_fee:
            self._split_escrow(contract.verification_fee, contract.assigned_verifiers, payouts)

        # (f) on-chain result + any threshold revocations
        body = FinalizeBody(
            contract_id=contract_id,
            status=contract.status.value,
            score_micro=int(round(pi.score * 1_000_000)),
            deposit_state=contract.deposit_state.value,
        )
        txs = [self.registry.sign(self.authority, TxKind.FinalizeVerification, body.encode())]

        revoked: list[Digest] = []
        for sid in [producer, *contract.assigned_verifiers]:
            if not self.reputation.is_trusted(sid) and not self.registry.get(sid).revoked:
                rb = ReputationUpdateBody(
                    stakeholder=sid,
                    score=self.reputation.score_of(sid),
                    revoked=True,
                    reason="reputation below trust threshold",
                )
                # signing applies it: the registry revokes the credential
                txs.append(self.registry.sign(self.authority, TxKind.ReputationUpdate, rb.encode()))
                revoked.append(sid)

        outcome = VerificationOutcome(
            status=contract.status,
            verifier_payouts=payouts,
            discounts=discounts,
            revoked=tuple(revoked),
        )
        return outcome, txs

    def _split_escrow(self, amount: int, verifiers: tuple[Digest, ...], payouts: dict[Digest, int]) -> None:
        """Pay each verifier an equal QUORUM-th of escrowed `amount`, adding
        it to `payouts`, and burn the remainder."""
        share = amount // QUORUM
        for v in verifiers:
            self.market.escrow_to(v, share)
            payouts[v] = payouts.get(v, 0) + share
        remainder = amount - share * QUORUM
        if remainder:
            self.market.escrow_burn(remainder)

    # -- marketplace -----------------------------------------------------

    def purchase(
        self, consumer: Digest, contract_id: Digest, group_members: set[Digest]
    ) -> tuple[int, list[Transaction]]:
        """Buy access to a verified listed record; returns the price paid."""
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
        if self.market.balance_of(consumer) < price:
            raise InsufficientBalance(f"need {price}, have {self.market.balance_of(consumer)}")
        cred = self.registry.get(consumer)
        record = contract.record
        if not authorize(cred, record.tlp, record.policy, group_members):
            raise AccessDenied(consumer.hex()[:12])

        self.market.transfer(consumer, record.producer, price)
        txs = [
            self.registry.sign(consumer, TxKind.Purchase, PurchaseBody(contract_id, price).encode()),
            self.registry.sign(
                self.authority, TxKind.AccessGrant, AccessGrantBody(contract_id, consumer).encode()
            ),
        ]
        return price, txs

    # -- subscriptions ---------------------------------------------------

    def renew_subscription(self, user: Digest, round_no: int) -> tuple[int, list[Transaction]]:
        """Charge max(0, base_fee - accrued discount); returns the charge."""
        sub = self.subscription
        if user not in sub.paid_through:
            raise UnknownStakeholder(user.hex())
        if round_no < sub.paid_through[user]:
            raise NotYetExpired(f"paid through round {sub.paid_through[user]}")
        accrued = sub.accrued_discount.get(user, 0)
        charge = max(0, self.economics.base_fee - accrued)
        if self.market.balance_of(user) < charge:
            raise InsufficientBalance(f"renewal needs {charge}")
        if charge:
            self.market.transfer(user, self.authority, charge)
        sub.accrued_discount[user] = 0
        sub.paid_through[user] = sub.paid_through[user] + self.economics.period_rounds
        body = RenewBody(charge=charge, paid_through=sub.paid_through[user])
        return charge, [self.registry.sign(user, TxKind.RenewSubscription, body.encode())]
