"""Deterministic contract state machines driven by the transactions they commit.

Covers the whole money and trust path of a submission: deposit escrow,
three-verifier quality votes, the validity score combining vote fraction
with producer reputation, deposit refund or forfeiture, subscription
discounts, verification-fee payouts, marketplace purchases, and the 1-100
reputation ledger with its participation threshold.

The parameters are the scenario file's `verification:` and `economics:`
sections, read straight into `VerificationPolicy` and `EconomicsConfig`.
Each contract rule is one method that refuses an illegal action with a
typed error or derives what its body must say. An operation calls its
rule and commits the body built from that through one door, `_commit`:
it commits through `Registry.commit` (which applies it to the credentials,
so committing a ReputationUpdate revokes), then applies it through
`apply`, the one place contract state changes; the registry keeps what it
committed for the block. `register` commits as the authority, or as the
new stakeholder itself while there is none, the first authority's
self-registration. A sale is one transaction, the consumer's Purchase,
whose rule, `_sale`, states everything a reader needs to know of it.
`check`, the reader's door, runs the same rules on a transaction read
from a chain, so replaying a chain through `Registry.apply`, `check` and
`apply` on fresh objects rebuilds the engine's state from the chain and
the scenario's parameters alone (a Register carries its endowment).
Figures the contracts decide, such as `verifier_forfeit_income`, are read
from that state here, so the writer and a replay derive them one way.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import NamedTuple, Optional

from .access_control import authorize
from .cti import CtiRecord, decode_record, record_bytes, validate_format
from .encoding import ComparedByFields, Digest
from .errors import (
    AccessDenied,
    AlreadyFinalized,
    AlreadyPurchased,
    AlreadyVoted,
    BelowTrustThreshold,
    ContractClosed,
    DuplicateRecord,
    EncodingError,
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
from .identity import Credential, Registry, Role, register_body
from .ledger import TxKind
from .payloads import (
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
# the reason of the one ReputationUpdate there is: a revocation at finalization
REVOCATION_REASON = "reputation below trust threshold"

# Members bound once. On CPython 3.11 a class lookup such as
# `ContractStatus.Verified` goes through the Enum metaclass (~130 ns) and
# `.value` through a Python-level descriptor (~180 ns); a module global
# costs ~12 ns and the `_value_` attribute ~20 ns. So every per-transaction
# and per-record path compares against a bound member, by identity and
# never by an Enum hash, and reads a member's name through `_value_`, Enum's
# documented sunder attribute. The engine, `cti` and `access_control` bind
# theirs the same way.
_SUBMIT, _VOTE, _FINALIZE = TxKind.SubmitCti, TxKind.Vote, TxKind.FinalizeVerification
_PURCHASE, _RENEW, _REGISTER = TxKind.Purchase, TxKind.RenewSubscription, TxKind.Register
_REPUTATION_UPDATE = TxKind.ReputationUpdate
_PENDING, _VERIFIED, _REJECTED = (
    ContractStatus.PendingVerification, ContractStatus.Verified, ContractStatus.Rejected
)
_ESCROWED, _REFUNDED, _FORFEITED = DepositState.Escrowed, DepositState.Refunded, DepositState.Forfeited
_HIGH, _LOW = Vote.HighQuality, Vote.LowQuality
_SPLIT, _BURN, _HOLD = ForfeiturePolicy.Split, ForfeiturePolicy.Burn, ForfeiturePolicy.HoldInContract
_VOTE_BY_NAME = {vote.value: vote for vote in Vote}
_PRODUCER, _CONSUMER = Role.Producer, Role.Consumer


class VerificationPolicy(NamedTuple):
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


class EconomicsConfig(NamedTuple):
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


class PiResult(NamedTuple):
    valid: bool
    score: float


def evaluate_pi(policy: VerificationPolicy, votes: list[Vote], producer_score: int) -> PiResult:
    """score = alpha * (high-quality fraction) + (1 - alpha) * (reputation / 100)."""
    if len(votes) != QUORUM:
        raise QuorumNotMet(f"need {QUORUM} votes, have {len(votes)}")
    hq = votes.count(_HIGH)  # Vote defines no __eq__, so this counts by identity
    score = policy.alpha * (hq / QUORUM) + (1.0 - policy.alpha) * (producer_score / 100.0)
    return PiResult(valid=score >= policy.tau, score=score)


class ReputationLedger(ComparedByFields):
    """Per-stakeholder score in [1, 100]; the policy gives the starting
    score and the participation threshold. `apply` runs once per vote and
    `is_trusted` once per trust check, so each reads `scores` itself, not
    through `score_of`, and `apply` clamps inline."""

    __slots__ = ("policy", "scores")

    def __init__(self, policy: VerificationPolicy):
        self.policy = policy
        self.scores: dict[Digest, int] = {}

    def add(self, stakeholder: Digest) -> None:
        self.scores[stakeholder] = max(1, min(100, self.policy.initial_score))

    def score_of(self, stakeholder: Digest) -> int:
        try:
            return self.scores[stakeholder]
        except KeyError:
            raise UnknownStakeholder(stakeholder.hex()) from None

    def apply(self, stakeholder: Digest, delta: int) -> None:
        scores = self.scores
        try:
            score = scores[stakeholder] + delta
        except KeyError:
            raise UnknownStakeholder(stakeholder.hex()) from None
        scores[stakeholder] = 1 if score < 1 else 100 if score > 100 else score

    def is_trusted(self, stakeholder: Digest) -> bool:
        try:
            return self.scores[stakeholder] >= self.policy.trust_threshold
        except KeyError:
            raise UnknownStakeholder(stakeholder.hex()) from None


class ReportContract(ComparedByFields):
    __slots__ = (
        "contract_id", "record", "status", "assigned_verifiers", "votes", "deposit",
        "deposit_state", "verification_fee", "created_round", "finalized_round", "score_micro",
    )

    def __init__(
        self,
        contract_id: Digest,
        record: CtiRecord,
        status: ContractStatus,
        assigned_verifiers: tuple[Digest, ...],
        votes: dict[Digest, Vote],
        deposit: int,
        deposit_state: DepositState,
        verification_fee: int,
        created_round: int,
        finalized_round: Optional[int] = None,
        score_micro: Optional[int] = None,
    ):
        self.contract_id = contract_id
        self.record = record
        self.status = status
        self.assigned_verifiers = assigned_verifiers
        self.votes = votes
        self.deposit = deposit
        self.deposit_state = deposit_state
        self.verification_fee = verification_fee
        self.created_round = created_round
        self.finalized_round = finalized_round
        self.score_micro = score_micro  # the validity score in millionths


class SubscriptionContract(ComparedByFields):
    """Each stakeholder's accrued renewal discount and the round its paid
    period ends."""

    __slots__ = ("accrued_discount", "paid_through")

    def __init__(self):
        self.accrued_discount: dict[Digest, int] = {}
        self.paid_through: dict[Digest, int] = {}


class MarketContract(ComparedByFields):
    """Balances, escrow, the forfeit/burn pools and each (contract, buyer)
    sale; conservation is minted == sum(balances) + escrow + held + burned
    at all times."""

    __slots__ = ("balances", "escrow", "held", "burned", "minted", "sales")

    def __init__(self):
        self.balances: dict[Digest, int] = {}
        self.escrow = 0
        self.held = 0
        self.burned = 0
        self.minted = 0
        self.sales: set[tuple[Digest, Digest]] = set()

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


class VerificationOutcome(NamedTuple):
    verifier_payouts: dict[Digest, int]
    discounts: dict[Digest, int]
    revoked: tuple[Digest, ...]


class ContractSystem:
    """Executes the contract operations, each committing through the registry."""

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
        A SubmitCti passes the record `submit_report` made or `check`
        decoded. The body is legal: a rule derived it, or `check` passed it.
        Returns a SubmitCti's contract, a FinalizeVerification's (verifier
        payouts, discounts), else None.
        """
        market = self.market
        if kind is _SUBMIT:
            market.to_escrow(author, body.deposit + body.verification_fee)
            contract = self.contracts[body.contract_id] = ReportContract(
                body.contract_id, record, _PENDING, body.verifiers, {},
                body.deposit, _ESCROWED, body.verification_fee, round_no,
            )
            return contract
        if kind is _VOTE:
            self.contracts[body.contract_id].votes[author] = _VOTE_BY_NAME[body.vote]
        elif kind is _FINALIZE:
            contract = self.contracts[body.contract_id]
            producer, verifiers = contract.record.producer, contract.assigned_verifiers
            valid = body.status == _VERIFIED._value_
            contract.status = _VERIFIED if valid else _REJECTED
            contract.finalized_round = round_no
            contract.score_micro = body.score_micro
            payouts: dict[Digest, int] = {}

            # (a) deposit: refunded, or forfeited as the policy says
            if valid:
                market.escrow_to(producer, contract.deposit)
                contract.deposit_state = _REFUNDED
            else:
                contract.deposit_state = _FORFEITED
                forfeiture = self.economics.forfeiture
                if forfeiture is _BURN:
                    market.escrow_burn(contract.deposit)
                elif forfeiture is _HOLD:
                    market.escrow_hold(contract.deposit)
                else:
                    self._split_escrow(contract.deposit, verifiers, payouts)

            # (b) subscription discounts: verifiers always, producer only on
            # a high-quality majority
            votes = [contract.votes[v] for v in verifiers]
            majority = _HIGH if votes.count(_HIGH) * 2 > QUORUM else _LOW
            discounts: dict[Digest, int] = {}
            per_hq = self.economics.discount_per_hq
            if per_hq > 0:
                accrued = self.subscription.accrued_discount
                for sid in (*verifiers, producer) if majority is _HIGH else verifiers:
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
        """Commit `body` as `author`'s transaction of `kind`, then apply it;
        returns what `apply` returns."""
        self.registry.commit(author, kind, body.encode())
        return self.apply(author, kind, body, round_no, record)

    def check(self, author: Digest, kind: TxKind, body, round_no: Optional[int]) -> Optional[CtiRecord]:
        """The reader's door, before `apply`: raise what the kind's rule raises,
        or refuse a body other than what the rule derives, naming the clause.
        Changes nothing; Register and the credentials are `Registry.apply`'s.
        Returns a SubmitCti's decoded record, for `apply`; else None."""
        if kind is _SUBMIT:
            record = decode_record(body.record_bytes)
            if record.record_id != body.contract_id:
                raise EncodingError("SubmitCti record does not hash to its contract id")
            if record.producer != author:
                raise AccessDenied("SubmitCti of a record another stakeholder produced")
            if record.created_round != round_no:
                raise EncodingError("SubmitCti of a record created in another round")
            deposit, fee, pool = self._admission(author, record)
            if (body.deposit, body.verification_fee) != (deposit, fee):
                raise InsufficientBalance(
                    f"SubmitCti escrows {body.deposit} + {body.verification_fee}, the rule asks {deposit} + {fee}"
                )
            if len(body.verifiers) != QUORUM or len(set(body.verifiers).intersection(pool)) != QUORUM:
                raise NotAssigned(f"SubmitCti verifiers are not {QUORUM} distinct members of the pool")
            return record
        elif kind is _VOTE:
            self._ballot(author, body.contract_id)
            if body.vote not in _VOTE_BY_NAME:
                raise EncodingError("Vote neither HighQuality nor LowQuality")
        elif kind is _FINALIZE:
            verdict = self._verdict(body.contract_id)
            if (body.status, body.score_micro, body.deposit_state) != verdict:
                raise QuorumNotMet("FinalizeVerification is not the votes' verdict (%s, %d, %s)" % verdict)
        elif kind is _PURCHASE:
            price = self._sale(author, body.contract_id)
            if body.price != price:
                raise NotForSale(f"Purchase at {body.price}, listed at {price}")
        elif kind is _RENEW:
            due = self._renewal(author, round_no)
            if (body.charge, body.paid_through) != due:
                raise InsufficientBalance(
                    "RenewSubscription charges %d through round %d, the rule asks %d through round %d"
                    % (body.charge, body.paid_through, *due)
                )
        elif kind is _REPUTATION_UPDATE:
            score, threshold = self.reputation.score_of(body.stakeholder), self.policy.trust_threshold
            if body.score != score:
                raise BelowTrustThreshold(f"ReputationUpdate score {body.score}, the ledger's is {score}")
            if not body.revoked:
                raise EncodingError("ReputationUpdate that does not revoke")
            if score >= threshold:
                raise BelowTrustThreshold(f"ReputationUpdate revokes a stakeholder at {score}, not below {threshold}")
            if body.reason != REVOCATION_REASON:
                raise EncodingError(f"ReputationUpdate reason {body.reason!r}, not {REVOCATION_REASON!r}")
        return None

    def _split_escrow(self, amount: int, verifiers: tuple[Digest, ...], payouts: dict[Digest, int]) -> None:
        """Pay each verifier a QUORUM-th of escrowed `amount` into `payouts`; burn the rest."""
        share = amount // QUORUM
        for v in verifiers:
            self.market.escrow_to(v, share)
            payouts[v] = payouts.get(v, 0) + share
        remainder = amount - share * QUORUM
        if remainder:
            self.market.escrow_burn(remainder)

    def verifier_forfeit_income(self) -> int:
        """What verifiers were paid from forfeited deposits: their `_split_escrow` shares under Split, else 0."""
        if self.economics.forfeiture is not _SPLIT:
            return 0
        return sum(c.deposit // QUORUM * QUORUM for c in self.contracts.values() if c.deposit_state is _FORFEITED)

    # -- registration ---------------------------------------------------

    def register(
        self, roles: frozenset[Role], attributes: frozenset[str], evidence: Digest, endowment: int
    ) -> Credential:
        """The credential claiming `roles` and `attributes` on `evidence`, once its Register is
        committed by the authority, or by its own stakeholder while there is no authority."""
        body = register_body(roles, attributes, evidence, endowment)
        self._commit(self.authority or body.stakeholder, _REGISTER, body, None)
        return self.registry.credentials[body.stakeholder]

    # -- submission -----------------------------------------------------

    def verifier_pool(self, producer: Digest) -> list[Digest]:
        """Trusted verifiers eligible for assignment, in stable id order."""
        credentials = self.registry.credentials
        scores, threshold = self.reputation.scores, self.policy.trust_threshold
        return [
            sid
            for sid in self.registry.verifier_ids
            if sid != producer
            and not credentials[sid].revoked
            and sid in scores
            and scores[sid] >= threshold
        ]

    def _admission(self, producer: Digest, record: CtiRecord) -> tuple[int, int, list[Digest]]:
        """The deposit, verification fee and verifier pool of `producer` submitting `record`."""
        if _PRODUCER not in self.registry.get(producer).roles:
            raise AccessDenied("SubmitCti by a stakeholder without the Producer role")
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
        return deposit, fee, pool

    def submit_report(self, producer: Digest, record: CtiRecord, rng: random.Random) -> ReportContract:
        deposit, fee, pool = self._admission(producer, record)
        # drawn after admission, so a refused submission draws nothing
        verifiers = tuple(rng.sample(pool, QUORUM))
        body = SubmitCtiBody(record.record_id, record_bytes(record), deposit, fee, verifiers)
        return self._commit(producer, _SUBMIT, body, record.created_round, record)

    # -- voting ----------------------------------------------------------

    def _ballot(self, verifier: Digest, contract_id: Digest) -> None:
        """Refuse unless `contract_id` is open to a vote by `verifier`: assigned, trusted, not yet voted."""
        contract = self.contracts.get(contract_id)
        if contract is None or contract.status is not _PENDING:
            raise ContractClosed(contract_id.hex())
        if verifier not in contract.assigned_verifiers:
            raise NotAssigned(verifier.hex()[:12])
        if verifier in contract.votes:
            raise AlreadyVoted(verifier.hex()[:12])
        if not self.reputation.is_trusted(verifier):
            raise BelowTrustThreshold(f"verifier score below {self.policy.trust_threshold}")

    def cast_vote(self, verifier: Digest, contract_id: Digest, vote: Vote) -> None:
        self._ballot(verifier, contract_id)
        self._commit(verifier, _VOTE, VoteBody(contract_id, vote._value_), None)

    # -- finalization ----------------------------------------------------

    def _verdict(self, contract_id: Digest) -> tuple[str, int, str]:
        """The status, score in millionths and deposit state the recorded votes give `contract_id`."""
        contract = self.contracts.get(contract_id)
        if contract is None:
            raise ContractClosed(contract_id.hex())
        if contract.status is not _PENDING:
            raise AlreadyFinalized(contract_id.hex())
        votes = [contract.votes[v] for v in contract.assigned_verifiers if v in contract.votes]
        pi = evaluate_pi(self.policy, votes, self.reputation.score_of(contract.record.producer))
        status, deposit_state = (_VERIFIED, _REFUNDED) if pi.valid else (_REJECTED, _FORFEITED)
        return status._value_, int(round(pi.score * 1_000_000)), deposit_state._value_

    def finalize_verification(self, contract_id: Digest, round_no: int) -> VerificationOutcome:
        body = FinalizeBody(contract_id, *self._verdict(contract_id))
        payouts, discounts = self._commit(self.authority, _FINALIZE, body, round_no)
        contract = self.contracts[contract_id]

        # threshold revocations
        revoked: list[Digest] = []
        for sid in [contract.record.producer, *contract.assigned_verifiers]:
            if not self.reputation.is_trusted(sid) and not self.registry.get(sid).revoked:
                rb = ReputationUpdateBody(sid, self.reputation.score_of(sid), True, REVOCATION_REASON)
                # committing applies it: the registry revokes the credential
                self._commit(self.authority, _REPUTATION_UPDATE, rb, None)
                revoked.append(sid)
        return VerificationOutcome(payouts, discounts, tuple(revoked))

    # -- marketplace -----------------------------------------------------

    def _sale(self, consumer: Digest, contract_id: Digest) -> int:
        """The price `consumer` pays, once, for a verified listed record it may read."""
        contract = self.contracts.get(contract_id)
        if contract is None:
            raise NotForSale(contract_id.hex())
        if contract.status is not _VERIFIED:
            raise NotVerified(contract_id.hex())
        record = contract.record
        price = record.sale_price
        if price is None:
            raise NotForSale(contract_id.hex())
        if consumer == record.producer:
            raise AccessDenied("producers may not consume their own records")
        cred = self.registry.get(consumer)
        if _CONSUMER not in cred.roles:
            raise AccessDenied("Purchase by a stakeholder without the Consumer role")
        if (contract_id, consumer) in self.market.sales:
            raise AlreadyPurchased(consumer.hex()[:12])
        if self.market.balance_of(consumer) < price:
            raise InsufficientBalance(f"need {price}, have {self.market.balance_of(consumer)}")
        # authorize refuses a revoked requester first: the credentials serve as the Green group
        if not authorize(cred, record.tlp, record.policy, self.registry.credentials):
            raise AccessDenied(consumer.hex()[:12])
        return price

    def purchase(self, consumer: Digest, contract_id: Digest) -> int:
        """Buy access to a verified listed record; returns the price paid."""
        price = self._sale(consumer, contract_id)
        self._commit(consumer, _PURCHASE, PurchaseBody(contract_id, price), None)
        return price

    # -- subscriptions ---------------------------------------------------

    def _renewal(self, user: Digest, round_no: int) -> tuple[int, int]:
        """The charge, max(0, base_fee - accrued discount), and the new
        paid-through round: one period past the later of the old one and
        this round, so a lapsed member renews from now and owes no back fees."""
        sub = self.subscription
        if user not in sub.paid_through:
            raise UnknownStakeholder(user.hex())
        if round_no < sub.paid_through[user]:
            raise NotYetExpired(f"paid through round {sub.paid_through[user]}")
        charge = max(0, self.economics.base_fee - sub.accrued_discount.get(user, 0))
        if self.market.balance_of(user) < charge:
            raise InsufficientBalance(f"renewal needs {charge}")
        return charge, max(sub.paid_through[user], round_no) + self.economics.period_rounds

    def renew_subscription(self, user: Digest, round_no: int) -> int:
        """Renew `user`'s subscription for one period; returns the charge."""
        charge, paid_through = self._renewal(user, round_no)
        self._commit(user, _RENEW, RenewBody(charge, paid_through), round_no)
        return charge
