import copy
import random
import re
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import pytest

from ctisim.access_control import TlpChannel, TlpLabel
from ctisim.contracts import (
    REVOCATION_REASON,
    ContractStatus,
    ContractSystem,
    DepositState,
    EconomicsConfig,
    ForfeiturePolicy,
    PiResult,
    ReputationLedger,
    VerificationPolicy,
    Vote,
    evaluate_pi,
)
from ctisim.encoding import ZERO_DIGEST
from ctisim.errors import (
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
    NotAnAuthority,
    NotAssigned,
    NotForSale,
    NotVerified,
    NotYetExpired,
    QuorumNotMet,
    UnknownStakeholder,
    VerifierPoolTooSmall,
)
from ctisim.cti import CtiCategory, Ioc, IocKind, make_record, record_bytes
from ctisim.identity import Registry, Role, evidence_for, register_body
from ctisim.ledger import Chain, Transaction, TxKind, append_block, sha256, verify_chain
from ctisim.payloads import (
    FinalizeBody,
    PurchaseBody,
    RenewBody,
    ReputationUpdateBody,
    SubmitCtiBody,
    VoteBody,
)
from tests.test_replay import refusal_height

HQ = Vote.HighQuality
LQ = Vote.LowQuality


# --- evaluate_pi -------------------------------------------------------------

def test_pi_two_thirds_high_quality_passes():
    policy = VerificationPolicy(alpha=0.8, tau=0.5)
    result = evaluate_pi(policy, [HQ, HQ, LQ], producer_score=50)
    assert result.valid
    assert abs(result.score - (0.8 * (2 / 3) + 0.2 * 0.5)) < 1e-12


def test_pi_unanimous_low_quality_fails_even_at_top_reputation():
    policy = VerificationPolicy(alpha=0.8, tau=0.5)
    result = evaluate_pi(policy, [LQ, LQ, LQ], producer_score=100)
    assert not result.valid
    assert abs(result.score - 0.2) < 1e-12


def test_pi_alpha_one_ignores_reputation():
    policy = VerificationPolicy(alpha=1.0, tau=0.5)
    assert evaluate_pi(policy, [HQ, HQ, HQ], producer_score=1) == PiResult(True, 1.0)


def test_pi_requires_quorum():
    with pytest.raises(QuorumNotMet):
        evaluate_pi(VerificationPolicy(), [HQ, HQ], producer_score=50)


def test_pi_monotone_in_votes_and_reputation():
    policy = VerificationPolicy(alpha=0.7, tau=0.5)
    votes_by_hq = {0: [LQ, LQ, LQ], 1: [HQ, LQ, LQ], 2: [HQ, HQ, LQ], 3: [HQ, HQ, HQ]}
    prev = -1.0
    for hq in range(4):
        score = evaluate_pi(policy, votes_by_hq[hq], producer_score=40).score
        assert score > prev
        prev = score
    for score_lo, score_hi in [(1, 50), (50, 100)]:
        lo = evaluate_pi(policy, [HQ, LQ, LQ], producer_score=score_lo).score
        hi = evaluate_pi(policy, [HQ, LQ, LQ], producer_score=score_hi).score
        assert hi >= lo


# --- harness ------------------------------------------------------------------

class Platform:
    def __init__(self, n_verifiers=3, deposit=10, verification_fee=0,
                 forfeiture=ForfeiturePolicy.Split, base_fee=0, period=10,
                 discount_per_hq=2, endowment=100):
        self.registry = Registry()
        self.rng = random.Random(1)
        economics = EconomicsConfig(
            base_fee=base_fee, period_rounds=period, discount_per_hq=discount_per_hq,
            deposit=deposit, verification_fee=verification_fee, forfeiture=forfeiture,
        )
        self.system = ContractSystem(self.registry, VerificationPolicy(), economics)
        self.reputation = self.system.reputation
        self.subscription = self.system.subscription
        self.market = self.system.market
        auth = self.system.register(frozenset({Role.Authority}), frozenset(), evidence_for("authority"), endowment)
        self.authority = auth.stakeholder
        self.producer = self.add("producer", {Role.Producer}, endowment)
        self.consumer = self.add("consumer", {Role.Consumer}, endowment)
        self.verifiers = [
            self.add(f"verifier-{i}", {Role.Verifier}, endowment) for i in range(n_verifiers)
        ]
        # blocks sealed by `seal`: the chain a reader replays
        self.chain = Chain.new()

    def add(self, name, roles, endowment=100, attributes=()):
        cred = self.system.register(frozenset(roles), frozenset(attributes), evidence_for(name), endowment)
        return cred.stakeholder

    def record(self, n=0, sale_price=None, producer=None, round_no=1):
        return make_record(
            producer=producer or self.producer,
            category=CtiCategory.Technical,
            indicators=(Ioc(IocKind.Domain, f"ioc-{n}.example", round_no),),
            narrative_digest=ZERO_DIGEST,
            tlp=TlpLabel(TlpChannel.White),
            policy=None,
            sale_price=sale_price,
            created_round=round_no,
        )

    def submit(self, n=0, sale_price=None):
        return self.system.submit_report(self.producer, self.record(n, sale_price), self.rng)

    def vote_all(self, contract, votes):
        for v, vote in zip(contract.assigned_verifiers, votes):
            self.system.cast_vote(v, contract.contract_id, vote)

    def finalize(self, contract, round_no=1):
        return self.system.finalize_verification(contract.contract_id, round_no)

    def run_contract(self, votes, n=0, sale_price=None, round_no=1):
        contract = self.submit(n, sale_price)
        self.vote_all(contract, votes)
        return contract, self.finalize(contract, round_no)

    def seal(self, round_no, forged=()):
        """Seal what the registry signed since the last seal, then `forged`,
        if anything, as round `round_no`'s block, at height `round_no` + 1.
        Each round since the last sealed one gets an empty block; a round
        whose block is the head is sealed again, its new transactions after
        its old. A seal with `forged` transactions makes none of
        append_block's checks, as a forger could."""
        registry, chain = self.registry, self.chain
        txs = registry.unsealed() + list(forged)
        if not txs:
            return
        if len(chain.blocks) == round_no + 2:
            txs = list(chain.blocks.pop().transactions) + txs
        assert len(chain.blocks) <= round_no + 1, f"round {round_no}'s block is not the head"
        authenticate = (lambda _: True) if forged else registry.authenticate_committed
        while len(chain.blocks) <= round_no:
            append_block(chain, [], self.authority, authenticate, registry.is_authority)
        registry.mark_sealed(append_block(chain, txs, self.authority, authenticate, registry.is_authority))

    def kinds_signed(self, since):
        """Kinds of the registry's unsealed transactions from index `since`
        on, in signing order."""
        return [tx.kind for tx in self.registry.unsealed()[since:]]

    def total(self):
        return self.market.total_supply() + self.market.burned


# --- register -------------------------------------------------------------------

def test_first_register_without_the_authority_role_is_refused_as_verify_chain_refuses_it():
    system = ContractSystem(Registry(), VerificationPolicy(), EconomicsConfig())
    claim = (frozenset({Role.Producer}), frozenset(), evidence_for("first"))
    body = register_body(*claim, 100)
    chain = Chain.new()
    tx = Transaction.create(body.stakeholder, TxKind.Register, body.encode())
    append_block(chain, [tx], body.stakeholder, lambda _: True, lambda _: True)
    reason = verify_chain(chain).reason
    assert reason == "self-registration without the Authority role"
    with pytest.raises(NotAnAuthority, match=f"^{re.escape(reason)}$"):
        system.register(*claim, 100)
    assert system.authority is None
    assert system.registry.credentials == {} and system.registry.unsealed() == []


# --- submit_report ------------------------------------------------------------

def test_submit_escrows_deposit_and_assigns_three_verifiers():
    p = Platform()
    contract = p.submit()
    assert p.market.balance_of(p.producer) == 90
    assert p.market.escrow == 10
    assert len(set(contract.assigned_verifiers)) == 3
    assert p.producer not in contract.assigned_verifiers
    assert contract.status is ContractStatus.PendingVerification
    assert contract.deposit_state is DepositState.Escrowed


def test_submit_below_threshold_rejected():
    p = Platform()
    p.reputation.scores[p.producer] = 29
    drawn = p.rng.getstate()
    with pytest.raises(BelowTrustThreshold):
        p.submit()
    assert p.rng.getstate() == drawn
    p.reputation.scores[p.producer] = 30  # boundary: threshold itself is allowed
    p.submit()


def test_submit_with_small_pool_rejected():
    p = Platform(n_verifiers=2)
    drawn = p.rng.getstate()
    with pytest.raises(VerifierPoolTooSmall):
        p.submit()
    assert p.rng.getstate() == drawn


def test_submit_insufficient_balance():
    p = Platform(deposit=101)
    drawn = p.rng.getstate()
    with pytest.raises(InsufficientBalance):
        p.submit()
    assert p.rng.getstate() == drawn


def test_submit_invalid_format_rejected():
    p = Platform()
    bad = make_record(
        producer=p.producer,
        category=CtiCategory.Technical,
        indicators=(),
        narrative_digest=ZERO_DIGEST,
        tlp=TlpLabel(TlpChannel.White),
        policy=None,
        sale_price=None,
        created_round=1,
    )
    drawn = p.rng.getstate()
    with pytest.raises(FormatInvalid):
        p.system.submit_report(p.producer, bad, p.rng)
    assert p.rng.getstate() == drawn


def test_submit_duplicate_record_rejected():
    p = Platform()
    p.submit(n=1)
    drawn = p.rng.getstate()
    with pytest.raises(DuplicateRecord):
        p.submit(n=1)
    assert p.rng.getstate() == drawn


def test_listing_requires_verification_fee_funds():
    p = Platform(verification_fee=9)
    contract = p.submit(sale_price=5)
    # deposit 10 + fee 9 escrowed together
    assert p.market.balance_of(p.producer) == 81
    assert p.market.escrow == 19
    assert contract.verification_fee == 9


def test_unlisted_record_pays_no_fee():
    p = Platform(verification_fee=9)
    contract = p.submit(sale_price=None)
    assert contract.verification_fee == 0
    assert p.market.escrow == 10


# --- cast_vote ------------------------------------------------------------------

def test_vote_recorded():
    p = Platform()
    contract = p.submit()
    p.system.cast_vote(contract.assigned_verifiers[0], contract.contract_id, HQ)
    assert len(contract.votes) == 1


def test_double_vote_rejected():
    p = Platform()
    contract = p.submit()
    v = contract.assigned_verifiers[0]
    p.system.cast_vote(v, contract.contract_id, HQ)
    with pytest.raises(AlreadyVoted):
        p.system.cast_vote(v, contract.contract_id, LQ)


def test_unassigned_voter_rejected():
    p = Platform()
    contract = p.submit()
    with pytest.raises(NotAssigned):
        p.system.cast_vote(p.consumer, contract.contract_id, HQ)


def test_vote_on_closed_contract_rejected():
    p = Platform()
    contract, outcome = p.run_contract([HQ, HQ, HQ])
    with pytest.raises(ContractClosed):
        p.system.cast_vote(contract.assigned_verifiers[0], contract.contract_id, HQ)


# --- finalize_verification --------------------------------------------------------

def test_majority_hq_verifies_refunds_and_discounts_everyone():
    p = Platform()
    contract = p.submit()
    p.vote_all(contract, [HQ, HQ, LQ])
    signed = len(p.registry.unsealed())
    p.finalize(contract)
    assert contract.status is ContractStatus.Verified
    assert contract.deposit_state is DepositState.Refunded
    assert p.market.balance_of(p.producer) == 100  # deposit back
    assert p.reputation.score_of(p.producer) == 52
    v1, v2, v3 = contract.assigned_verifiers
    assert p.reputation.score_of(v1) == 51
    assert p.reputation.score_of(v2) == 51
    assert p.reputation.score_of(v3) == 47  # minority voter
    # discount asymmetry: producer accrues only on majority high quality
    assert p.subscription.accrued_discount[p.producer] == 2
    for v in contract.assigned_verifiers:
        assert p.subscription.accrued_discount[v] == 2
    assert p.kinds_signed(signed) == [TxKind.FinalizeVerification]


def test_majority_lq_rejects_splits_deposit_and_discounts_verifiers_only():
    p = Platform(deposit=9)
    contract, outcome = p.run_contract([LQ, LQ, HQ])
    assert contract.status is ContractStatus.Rejected
    assert contract.deposit_state is DepositState.Forfeited
    assert p.market.balance_of(p.producer) == 91  # deposit gone
    for v in contract.assigned_verifiers:
        assert p.market.balance_of(v) == 103  # 9 split three ways
        assert p.subscription.accrued_discount[v] == 2
    assert p.subscription.accrued_discount.get(p.producer, 0) == 0
    assert p.reputation.score_of(p.producer) == 40


def test_split_remainder_is_burned():
    p = Platform(deposit=10)
    contract, outcome = p.run_contract([LQ, LQ, LQ])
    assert p.market.burned == 1
    for v in contract.assigned_verifiers:
        assert p.market.balance_of(v) == 103


def test_burn_policy_burns_whole_deposit():
    p = Platform(forfeiture=ForfeiturePolicy.Burn)
    contract, outcome = p.run_contract([LQ, LQ, LQ])
    assert p.market.burned == 10
    assert all(p.market.balance_of(v) == 100 for v in contract.assigned_verifiers)


def test_hold_policy_parks_deposit_in_contract():
    p = Platform(forfeiture=ForfeiturePolicy.HoldInContract)
    p.run_contract([LQ, LQ, LQ])
    assert p.market.held == 10
    assert p.market.burned == 0
    assert p.market.escrow == 0


def test_finalize_twice_rejected():
    p = Platform()
    contract, outcome = p.run_contract([HQ, HQ, HQ])
    with pytest.raises(AlreadyFinalized):
        p.finalize(contract)


def test_finalize_requires_quorum():
    p = Platform()
    contract = p.submit()
    p.system.cast_vote(contract.assigned_verifiers[0], contract.contract_id, HQ)
    with pytest.raises(QuorumNotMet):
        p.finalize(contract)


def test_verification_fee_split_equally_at_finalization():
    p = Platform(verification_fee=9)
    contract, outcome = p.run_contract([HQ, HQ, HQ], sale_price=5)
    for v in contract.assigned_verifiers:
        assert p.market.balance_of(v) == 103
        assert outcome.verifier_payouts[v] == 3
    # deposit refunded, fee paid out: producer down exactly the fee
    assert p.market.balance_of(p.producer) == 91
    assert p.market.escrow == 0


def test_rejection_below_threshold_triggers_revocation_event():
    p = Platform()
    p.reputation.scores[p.producer] = 39
    contract = p.submit()
    p.vote_all(contract, [LQ, LQ, LQ])
    signed = len(p.registry.unsealed())
    outcome = p.finalize(contract)
    # 39 - 10 = 29 < threshold 30: the revoke event fires in the same round
    assert p.reputation.score_of(p.producer) == 29
    assert outcome.revoked == (p.producer,)
    assert p.registry.get(p.producer).revoked
    assert p.kinds_signed(signed) == [TxKind.FinalizeVerification, TxKind.ReputationUpdate]


# --- purchase ---------------------------------------------------------------------

def test_purchase_transfers_exactly_the_sale_price():
    p = Platform()
    contract, _ = p.run_contract([HQ, HQ, HQ], sale_price=5)
    signed = len(p.registry.unsealed())
    price = p.system.purchase(p.consumer, contract.contract_id)
    assert p.market.balance_of(p.consumer) == 95
    assert p.market.balance_of(p.producer) == 105
    assert price == 5
    assert p.kinds_signed(signed) == [TxKind.Purchase]


def test_repeat_purchase_refused_without_charge_or_transactions():
    p = Platform()
    contract, _ = p.run_contract([HQ, HQ, HQ], sale_price=5)
    p.system.purchase(p.consumer, contract.contract_id)
    signed = len(p.registry.unsealed())
    with pytest.raises(AlreadyPurchased):
        p.system.purchase(p.consumer, contract.contract_id)
    assert p.market.balance_of(p.consumer) == 95
    assert p.market.balance_of(p.producer) == 105
    assert len(p.registry.unsealed()) == signed
    assert p.market.sales == {(contract.contract_id, p.consumer)}


def test_verify_chain_refuses_a_repeated_transaction_id():
    p = Platform()
    contract, _ = p.run_contract([HQ, HQ, HQ], sale_price=5)
    p.system.purchase(p.consumer, contract.contract_id)
    registry = p.registry
    signed = registry.unsealed()
    # the writer never signs a repeat; seal one signed object twice instead
    chain = Chain.new()
    append_block(chain, signed, p.authority, registry.authenticate_committed, registry.is_authority)
    append_block(chain, signed[-1:], p.authority, registry.authenticate_committed, registry.is_authority)
    report = verify_chain(chain)
    assert (report.valid, report.first_bad_height, report.reason) == (False, 2, "duplicate transaction id")


def test_purchase_of_rejected_contract():
    p = Platform()
    contract, outcome = p.run_contract([LQ, LQ, LQ], sale_price=5)
    with pytest.raises(NotVerified):
        p.system.purchase(p.consumer, contract.contract_id)


def test_purchase_needs_funds():
    p = Platform()
    contract, _ = p.run_contract([HQ, HQ, HQ], sale_price=5)
    p.market.balances[p.consumer] = 3
    with pytest.raises(InsufficientBalance):
        p.system.purchase(p.consumer, contract.contract_id)


def test_purchase_of_unlisted_contract():
    p = Platform()
    contract, _ = p.run_contract([HQ, HQ, HQ], sale_price=None)
    with pytest.raises(NotForSale):
        p.system.purchase(p.consumer, contract.contract_id)


def test_self_purchase_forbidden():
    p = Platform()
    contract, _ = p.run_contract([HQ, HQ, HQ], sale_price=5)
    with pytest.raises(AccessDenied):
        p.system.purchase(p.producer, contract.contract_id)


def test_purchase_respects_access_policy():
    p = Platform()
    record = make_record(
        producer=p.producer,
        category=CtiCategory.Technical,
        indicators=(Ioc(IocKind.Domain, "ioc.example", 1),),
        narrative_digest=ZERO_DIGEST,
        tlp=TlpLabel(TlpChannel.Red, frozenset({p.verifiers[0]})),
        policy=None,
        sale_price=4,
        created_round=1,
    )
    contract = p.system.submit_report(p.producer, record, p.rng)
    p.vote_all(contract, [HQ, HQ, HQ])
    p.finalize(contract)
    with pytest.raises(AccessDenied):
        p.system.purchase(p.consumer, contract.contract_id)


def test_green_purchase_admits_registered_unrevoked_members():
    p = Platform()
    record = make_record(
        producer=p.producer,
        category=CtiCategory.Technical,
        indicators=(Ioc(IocKind.Domain, "ioc.example", 1),),
        narrative_digest=ZERO_DIGEST,
        tlp=TlpLabel(TlpChannel.Green),
        policy=None,
        sale_price=4,
        created_round=1,
    )
    contract = p.system.submit_report(p.producer, record, p.rng)
    p.vote_all(contract, [HQ, HQ, HQ])
    p.finalize(contract)
    assert p.system.purchase(p.consumer, contract.contract_id) == 4
    late = p.add("late", {Role.Consumer})
    p.registry.get(late).revoked = True
    with pytest.raises(AccessDenied):
        p.system.purchase(late, contract.contract_id)


# --- renew_subscription -------------------------------------------------------------

def test_renewal_charge_is_base_minus_accrued():
    p = Platform(base_fee=20)
    p.subscription.accrued_discount[p.producer] = 6
    charge = p.system.renew_subscription(p.producer, round_no=10)
    assert charge == 14
    assert p.market.balance_of(p.producer) == 86
    assert p.market.balance_of(p.authority) == 114
    assert p.subscription.accrued_discount[p.producer] == 0
    assert p.subscription.paid_through[p.producer] == 20


def test_renewal_charge_clamps_at_zero():
    p = Platform(base_fee=20)
    p.subscription.accrued_discount[p.producer] = 25
    charge = p.system.renew_subscription(p.producer, round_no=10)
    assert charge == 0
    assert p.market.balance_of(p.producer) == 100


def test_renewal_before_expiry_rejected():
    p = Platform(base_fee=20)
    with pytest.raises(NotYetExpired):
        p.system.renew_subscription(p.producer, round_no=5)


def test_enrollment_pays_for_the_first_period():
    p = Platform(base_fee=20, period=4)
    assert p.subscription.paid_through[p.producer] == 4
    with pytest.raises(NotYetExpired):
        p.system.renew_subscription(p.producer, round_no=3)
    charge = p.system.renew_subscription(p.producer, round_no=4)
    assert charge == 20
    assert p.subscription.paid_through[p.producer] == 8


def test_renewal_insufficient_balance():
    p = Platform(base_fee=20)
    p.market.balances[p.producer] = 5
    with pytest.raises(InsufficientBalance):
        p.system.renew_subscription(p.producer, round_no=10)


# --- reputation ----------------------------------------------------------------------

def test_fresh_user_has_initial_score():
    p = Platform()
    assert p.reputation.score_of(p.producer) == 50


def test_thirty_rejections_clamp_at_one():
    rep = ReputationLedger(VerificationPolicy())
    sid = b"\x01" * 32
    rep.add(sid)
    for _ in range(30):
        rep.apply(sid, rep.policy.delta_invalid)
    assert rep.score_of(sid) == 1


def test_scores_stay_in_bounds_under_random_updates():
    rep = ReputationLedger(VerificationPolicy())
    sid = b"\x02" * 32
    rep.add(sid)
    rng = random.Random(3)
    for _ in range(1000):
        rep.apply(sid, rng.choice([-10, -3, 1, 2, 50, -50]))
        assert 1 <= rep.score_of(sid) <= 100


def test_unknown_user_raises():
    p = Platform()
    with pytest.raises(UnknownStakeholder):
        p.reputation.score_of(b"\x09" * 32)


# --- conservation ----------------------------------------------------------------------

def test_currency_conserved_across_mixed_outcomes():
    p = Platform(deposit=9, verification_fee=3, base_fee=12)
    start = p.total()
    outcomes = [[HQ, HQ, HQ], [LQ, LQ, LQ], [HQ, LQ, LQ], [HQ, HQ, LQ]]
    for i, votes in enumerate(outcomes):
        contract, outcome = p.run_contract(votes, n=i, sale_price=4)
        if contract.status is ContractStatus.Verified:
            p.system.purchase(p.consumer, contract.contract_id)
    p.system.renew_subscription(p.producer, round_no=10)
    assert p.market.escrow == 0
    assert p.total() == start
    assert p.market.conserved()
    # deposit 9 and fee 3 split exactly: nothing burned
    assert p.market.burned == 0


# --- one rulebook, two doors ---------------------------------------------------
#
# Each row brings a Platform, through the operations, to a prefix sealed on
# its chain, and returns one illegal action: who signs it, its kind, body and
# round, the error and reason it must meet, and the operation that would
# sign it, or None where no operation can build that body. The writer door
# asks ContractSystem.check, then the operation; the reader door re-signs the
# action onto the prefix's chain, as a forger could, and replays it.

class Illegal(NamedTuple):
    author: bytes
    kind: TxKind
    body: object
    round_no: int
    error: type
    reason: str
    act: Optional[Callable[[], object]] = None


ILLEGAL_ACTIONS = {}
UNKNOWN = sha256(b"unknown contract")


def illegal(name, **platform):
    def register(build):
        ILLEGAL_ACTIONS[name] = (platform, build)
        return build
    return register


def pending(p, votes=()):
    """A contract submitted and voted on by its first verifiers in round 1, sealed."""
    contract = p.submit()
    for v, vote in zip(contract.assigned_verifiers, votes):
        p.system.cast_vote(v, contract.contract_id, vote)
    p.seal(1)
    return contract


def finalized(p, votes, sale_price=5):
    """A contract listed at `sale_price`, finalized in round 1, sealed."""
    contract, _ = p.run_contract(votes, sale_price=sale_price)
    p.seal(1)
    return contract


def submission(p, author=None, deposit=10, verifiers=None, record=None, contract_id=None):
    """A SubmitCti of the producer's record in round 1, as `author`."""
    record = record or p.record()
    body = SubmitCtiBody(
        contract_id or record.record_id, record_bytes(record), deposit, 0, verifiers or tuple(p.verifiers)
    )
    return author or p.producer, TxKind.SubmitCti, body, 1


@illegal("vote-on-an-unknown-contract")
def _(p):
    v = pending(p).assigned_verifiers[0]
    return Illegal(v, TxKind.Vote, VoteBody(UNKNOWN, "HighQuality"), 1, ContractClosed, UNKNOWN.hex(),
                   lambda: p.system.cast_vote(v, UNKNOWN, HQ))


@illegal("vote-by-an-unassigned-stakeholder")
def _(p):
    cid = pending(p).contract_id
    return Illegal(p.consumer, TxKind.Vote, VoteBody(cid, "HighQuality"), 1, NotAssigned, p.consumer.hex()[:12],
                   lambda: p.system.cast_vote(p.consumer, cid, HQ))


@illegal("second-vote")
def _(p):
    contract = pending(p, [HQ])
    v, cid = contract.assigned_verifiers[0], contract.contract_id
    return Illegal(v, TxKind.Vote, VoteBody(cid, "LowQuality"), 1, AlreadyVoted, v.hex()[:12],
                   lambda: p.system.cast_vote(v, cid, LQ))


@illegal("vote-named-maybe")
def _(p):
    contract = pending(p)
    return Illegal(contract.assigned_verifiers[0], TxKind.Vote, VoteBody(contract.contract_id, "Maybe"), 1,
                   EncodingError, "Vote neither HighQuality nor LowQuality")


@illegal("finalization-before-quorum")
def _(p):
    cid = pending(p, [HQ]).contract_id
    return Illegal(p.authority, TxKind.FinalizeVerification, FinalizeBody(cid, "Verified", 900_000, "Refunded"), 1,
                   QuorumNotMet, "need 3 votes, have 1", lambda: p.system.finalize_verification(cid, 1))


@illegal("flipped-verdict")
def _(p):
    cid = pending(p, [HQ, HQ, HQ]).contract_id
    return Illegal(p.authority, TxKind.FinalizeVerification, FinalizeBody(cid, "Rejected", 900_000, "Forfeited"), 1,
                   QuorumNotMet, "FinalizeVerification is not the votes' verdict (Verified, 900000, Refunded)")


@illegal("purchase-at-price-zero")
def _(p):
    cid = finalized(p, [HQ, HQ, HQ]).contract_id
    return Illegal(p.consumer, TxKind.Purchase, PurchaseBody(cid, 0), 1, NotForSale, "Purchase at 0, listed at 5")


@illegal("purchase-of-a-rejected-record")
def _(p):
    cid = finalized(p, [LQ, LQ, LQ]).contract_id
    return Illegal(p.consumer, TxKind.Purchase, PurchaseBody(cid, 5), 1, NotVerified, cid.hex(),
                   lambda: p.system.purchase(p.consumer, cid))


@illegal("producer-buying-its-own-record")
def _(p):
    cid = finalized(p, [HQ, HQ, HQ]).contract_id
    return Illegal(p.producer, TxKind.Purchase, PurchaseBody(cid, 5), 1,
                   AccessDenied, "producers may not consume their own records",
                   lambda: p.system.purchase(p.producer, cid))


@illegal("purchase-by-a-producer-only-stakeholder")
def _(p):
    other = p.add("other-producer", {Role.Producer})
    cid = finalized(p, [HQ, HQ, HQ]).contract_id
    return Illegal(other, TxKind.Purchase, PurchaseBody(cid, 5), 1,
                   AccessDenied, "Purchase by a stakeholder without the Consumer role",
                   lambda: p.system.purchase(other, cid))


@illegal("overspend")
def _(p):
    poor = p.add("poor", {Role.Consumer}, endowment=3)
    cid = finalized(p, [HQ, HQ, HQ]).contract_id
    return Illegal(poor, TxKind.Purchase, PurchaseBody(cid, 5), 1, InsufficientBalance, "need 5, have 3",
                   lambda: p.system.purchase(poor, cid))


@illegal("early-renewal", base_fee=20)
def _(p):
    return Illegal(p.producer, TxKind.RenewSubscription, RenewBody(20, 20), 5, NotYetExpired, "paid through round 10",
                   lambda: p.system.renew_subscription(p.producer, 5))


@illegal("undercharged-renewal", base_fee=20)
def _(p):
    return Illegal(p.producer, TxKind.RenewSubscription, RenewBody(5, 20), 10, InsufficientBalance,
                   "RenewSubscription charges 5 through round 20, the rule asks 20 through round 20")


@illegal("zero-deposit")
def _(p):
    return Illegal(*submission(p, deposit=0), InsufficientBalance, "SubmitCti escrows 0 + 0, the rule asks 10 + 0")


@illegal("verifier-outside-the-pool")
def _(p):
    verifiers = (p.verifiers[0], p.verifiers[1], p.consumer)
    return Illegal(*submission(p, verifiers=verifiers), NotAssigned,
                   "SubmitCti verifiers are not 3 distinct members of the pool")


@illegal("verifier-assigned-twice")
def _(p):
    verifiers = (p.verifiers[0], p.verifiers[0], p.verifiers[1])
    return Illegal(*submission(p, verifiers=verifiers), NotAssigned,
                   "SubmitCti verifiers are not 3 distinct members of the pool")


@illegal("record-by-someone-other-than-the-author")
def _(p):
    return Illegal(*submission(p, author=p.consumer), AccessDenied,
                   "SubmitCti of a record another stakeholder produced")


@illegal("submission-by-a-consumer-only-stakeholder")
def _(p):
    record = p.record(producer=p.consumer)
    return Illegal(*submission(p, author=p.consumer, record=record), AccessDenied,
                   "SubmitCti by a stakeholder without the Producer role",
                   lambda: p.system.submit_report(p.consumer, record, p.rng))


@illegal("record-created-in-another-round")
def _(p):
    return Illegal(*submission(p, record=p.record(round_no=2)), EncodingError,
                   "SubmitCti of a record created in another round")


@illegal("contract-id-not-the-records")
def _(p):
    return Illegal(*submission(p, contract_id=UNKNOWN), EncodingError,
                   "SubmitCti record does not hash to its contract id")


@illegal("revocation-of-a-trusted-stakeholder")
def _(p):
    body = ReputationUpdateBody(p.producer, 50, True, REVOCATION_REASON)
    return Illegal(p.authority, TxKind.ReputationUpdate, body, 1, BelowTrustThreshold,
                   "ReputationUpdate revokes a stakeholder at 50, not below 30")


@illegal("reputation-update-with-another-score")
def _(p):
    body = ReputationUpdateBody(p.producer, 20, True, REVOCATION_REASON)
    return Illegal(p.authority, TxKind.ReputationUpdate, body, 1, BelowTrustThreshold,
                   "ReputationUpdate score 20, the ledger's is 50")


@illegal("reputation-update-that-does-not-revoke")
def _(p):
    body = ReputationUpdateBody(p.producer, 50, False, REVOCATION_REASON)
    return Illegal(p.authority, TxKind.ReputationUpdate, body, 1, EncodingError,
                   "ReputationUpdate that does not revoke")


@illegal("revocation-with-another-reason")
def _(p):
    # three rejections take the producer from 50 to 20, and finalization
    # revokes it; the forger's revocation takes the place of that one, since
    # a second revocation is refused for the revoked subject
    for n in range(3):
        p.run_contract([LQ, LQ, LQ], n=n)
    genuine = p.registry.unsealed()[-1]
    assert genuine.kind is TxKind.ReputationUpdate and p.registry.credentials[p.producer].revoked
    p.registry.mark_sealed(p.chain.head._replace(transactions=(genuine,)))  # off the queue, never sealed
    p.seal(1)
    body = ReputationUpdateBody(p.producer, 20, True, "flagged by hand")
    return Illegal(p.authority, TxKind.ReputationUpdate, body, 1, EncodingError,
                   f"ReputationUpdate reason 'flagged by hand', not {REVOCATION_REASON!r}")


def contract_state(system):
    return copy.deepcopy(
        (system.authority, system.contracts, system.market, system.reputation, system.subscription)
    )


@pytest.mark.parametrize("platform, build", ILLEGAL_ACTIONS.values(), ids=ILLEGAL_ACTIONS.keys())
def test_writer_refuses_illegal_action(platform, build):
    p = Platform(**platform)
    row = build(p)
    before, signed = contract_state(p.system), p.registry.unsealed()
    with pytest.raises(row.error, match=f"^{re.escape(row.reason)}$"):
        p.system.check(row.author, row.kind, row.body, row.round_no)
    assert contract_state(p.system) == before
    if row.act is not None:
        with pytest.raises(row.error, match=f"^{re.escape(row.reason)}$"):
            row.act()
        assert contract_state(p.system) == before
        assert p.registry.unsealed() == signed


@pytest.mark.parametrize("platform, build", ILLEGAL_ACTIONS.values(), ids=ILLEGAL_ACTIONS.keys())
def test_fold_refuses_illegal_action(platform, build):
    p = Platform(**platform)
    row = build(p)
    p.seal(row.round_no, forged=[Transaction.create(row.author, row.kind, row.body.encode())])
    config = SimpleNamespace(verification=p.system.policy, economics=p.system.economics)
    assert refusal_height(p.chain, config, row.error, f"^{re.escape(row.reason)}$") == len(p.chain.blocks) - 1
