"""Contract state must be a pure fold over the chain, and the fold refuses
an illegal history.

Replays the chain's transactions in order through the rulebooks the engine
signs by on fresh objects: `Registry.apply` for credentials, then
`ContractSystem.check`, which calls the same contract rules the operations
call, then `ContractSystem.apply` for contract state, with the record
`check` decoded, so each submission is decoded once. Each Register carries
its endowment, so the replay needs only the scenario's parameters besides
the chain. The result must equal what the engine reported: balances,
reputations, revocations, every per-round activity counter, and the
aggregates the contracts decide.
"""

from collections import defaultdict

import pytest

from ctisim import contracts
from ctisim.access_control import TlpChannel, TlpLabel
from ctisim.config import load_config
from ctisim.contracts import ContractStatus, ContractSystem, DepositState
from ctisim.cti import decode_record
from ctisim.errors import EncodingError, NotForSale, QuorumNotMet
from ctisim.identity import Registry
from ctisim.ledger import Chain, Transaction, TxKind, append_block, verify_chain
from ctisim.mining import mine_campaigns, verified_technical_records
from ctisim.payloads import (
    FinalizeBody,
    PurchaseBody,
    RegisterBody,
    RenewBody,
    ReputationUpdateBody,
    SubmitCtiBody,
    VoteBody,
)
from ctisim.simulation import run_scenario
from tests.conftest import SCENARIO_DIR, mixed_scenario
from tests.reference_writer import Writer

BUNDLED = sorted(path.stem for path in SCENARIO_DIR.glob("*.yaml"))

# the payload body of each kind ContractSystem.check or .apply reads
BODIES = {
    TxKind.Register: RegisterBody,
    TxKind.SubmitCti: SubmitCtiBody,
    TxKind.Vote: VoteBody,
    TxKind.FinalizeVerification: FinalizeBody,
    TxKind.Purchase: PurchaseBody,
    TxKind.RenewSubscription: RenewBody,
    TxKind.ReputationUpdate: ReputationUpdateBody,
}


def replay_blocks(chain, config):
    """Apply `chain` to a fresh Registry and ContractSystem, yielding each
    block after genesis and the system once that block is applied; a
    transaction either rulebook refuses raises its CtiSimError. A block's
    round is its height minus one."""
    registry = Registry()
    system = ContractSystem(registry, config.verification, config.economics)
    for block in chain.blocks[1:]:
        for tx in block.transactions:
            registry.apply(tx.author, tx.kind, tx.payload)
            if tx.kind in BODIES:
                body = BODIES[tx.kind].decode(tx.payload)
                record = system.check(tx.author, tx.kind, body, block.height - 1)
                system.apply(tx.author, tx.kind, body, block.height - 1, record)
        yield block, system


def replay(chain, config):
    """The replayed ContractSystem and its activity counters by (round, author)."""
    per_round = defaultdict(lambda: defaultdict(int))
    for block, system in replay_blocks(chain, config):
        for tx in block.transactions:
            if tx.kind is TxKind.Purchase:
                per_round[(block.height - 1, tx.author)]["consumes"] += 1
    for c in system.contracts.values():
        producer = c.record.producer
        per_round[(c.created_round, producer)]["shares"] += 1
        finalized = per_round[(c.finalized_round, producer)]
        finalized["verified"] += c.status is ContractStatus.Verified
        finalized["rejected"] += c.status is ContractStatus.Rejected
        finalized["forfeited"] += c.deposit if c.deposit_state is DepositState.Forfeited else 0
    return system, per_round


def assert_fold_matches(result, config, every_consume_is_a_purchase):
    system, per_round = replay(result.chain, config)

    aggregates = result.summary["aggregates"]
    assert system.verifier_forfeit_income() == aggregates["verifier_forfeit_income"]
    assert len(system.contracts) == aggregates["total_submissions"]
    for agent in result.agents:
        info = result.summary["agents"][agent.name]
        assert system.market.balance_of(agent.sid) == info["balance"], agent.name
        assert system.reputation.score_of(agent.sid) == info["reputation"], agent.name
        assert system.registry.get(agent.sid).revoked == info["revoked"], agent.name

    # per-round activity columns match the replay exactly; a free read is
    # a consume with no transaction, so without one purchases only bound it
    for row in result.metrics.rows:
        sid = next(a.sid for a in result.agents if a.name == row.agent)
        counters = per_round.get((row.round, sid), {})
        assert counters.get("shares", 0) == row.shares
        assert counters.get("verified", 0) == row.verified
        assert counters.get("rejected", 0) == row.rejected
        assert counters.get("forfeited", 0) == row.forfeited
        if every_consume_is_a_purchase:
            assert counters.get("consumes", 0) == row.consumes
        else:
            assert counters.get("consumes", 0) <= row.consumes


def test_chain_fold_reproduces_engine_state():
    config = mixed_scenario(seed=321)._replace(rounds=60)
    # fixed sale mode: every consume is an on-chain purchase
    assert_fold_matches(run_scenario(config), config, every_consume_is_a_purchase=True)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_chains_pass_check_and_fold_to_the_engine_state(name):
    config = load_config(str(SCENARIO_DIR / f"{name}.yaml"))
    assert_fold_matches(run_scenario(config), config, every_consume_is_a_purchase=False)


def test_the_fold_decodes_each_submission_once(monkeypatch):
    config = load_config(str(SCENARIO_DIR / "blocis-baseline.yaml"))
    chain = run_scenario(config).chain
    submissions = sum(tx.kind is TxKind.SubmitCti for block in chain.blocks for tx in block.transactions)
    decoded = []
    decode = contracts.decode_record
    monkeypatch.setattr(contracts, "decode_record", lambda data: decoded.append(data) or decode(data))
    for _ in replay_blocks(chain, config):
        pass
    assert submissions > 0
    assert len(decoded) == submissions


# --- tampers a forger can re-sign ---------------------------------------------
#
# Nothing on the chain is signed, so a forger can re-make an altered
# transaction with Transaction.create and re-link every later block.
# verify_chain checks only the links, ids, roots and credentials and still
# accepts every tamper below; the fold refuses them by the contract rules.

def relinked(chain, swap):
    """`chain` with every transaction passed through `swap`, each block
    re-hashed and re-linked onto the one before."""
    out = Chain.new()
    for block in chain.blocks[1:]:
        txs = [swap(tx) for tx in block.transactions]
        append_block(out, txs, block.sealer, lambda _: True, lambda _: True)
    return out


def tampered_marketplace(kind, edit):
    """The marketplace chain with its first `kind` transaction's body edited
    by `edit` and re-made; returns the config, the chain and that body."""
    config = load_config(str(SCENARIO_DIR / "marketplace.yaml"))
    result = run_scenario(config)
    first = next(tx for block in result.chain.blocks for tx in block.transactions if tx.kind is kind)
    body = BODIES[kind].decode(first.payload)

    def swap(tx):
        if tx is not first:
            return tx
        return Transaction.create(tx.author, kind, edit(body).encode())

    return config, relinked(result.chain, swap), body


def refusal_height(chain, config, error, reason):
    """The height of the block at which the fold raises `error`."""
    replayed = []
    with pytest.raises(error, match=reason):
        for block, _ in replay_blocks(chain, config):
            replayed.append(block.height)
    return replayed[-1] + 1 if replayed else 1


def test_fold_refuses_a_resigned_flipped_vote_at_its_finalization():
    flip = {"HighQuality": "LowQuality", "LowQuality": "HighQuality"}
    config, chain, vote = tampered_marketplace(TxKind.Vote, lambda b: b._replace(vote=flip[b.vote]))
    assert verify_chain(chain).valid
    finalization = next(
        block.height
        for block in chain.blocks
        for tx in block.transactions
        if tx.kind is TxKind.FinalizeVerification and FinalizeBody.decode(tx.payload).contract_id == vote.contract_id
    )
    reason = "^FinalizeVerification is not the votes' verdict "
    assert refusal_height(chain, config, QuorumNotMet, reason) == finalization


def test_fold_refuses_a_resigned_purchase_at_price_zero():
    config, chain, purchase = tampered_marketplace(TxKind.Purchase, lambda b: b._replace(price=0))
    assert purchase.price > 0
    assert verify_chain(chain).valid
    height = next(
        block.height
        for block in chain.blocks
        for tx in block.transactions
        if tx.kind is TxKind.Purchase and PurchaseBody.decode(tx.payload) == purchase._replace(price=0)
    )
    reason = f"^Purchase at 0, listed at {purchase.price}$"
    assert refusal_height(chain, config, NotForSale, reason) == height


def test_fold_refuses_a_resigned_respelled_record_and_mining_skips_it():
    def respell(body):
        # a designated entry under the record's White label: bytes no writer
        # writes, and no label can be built with
        white = Writer().put_str("White").put_count(0).getvalue()
        designated = Writer().put_str("White").put_count(1).put_bytes(decode_record(body.record_bytes).producer)
        assert body.record_bytes.count(white) == 1
        return body._replace(record_bytes=body.record_bytes.replace(white, designated.getvalue()))

    config, chain, submit = tampered_marketplace(TxKind.SubmitCti, respell)
    assert decode_record(submit.record_bytes).tlp == TlpLabel(TlpChannel.White)
    assert verify_chain(chain).valid
    height = next(
        block.height
        for block in chain.blocks
        for tx in block.transactions
        if tx.kind is TxKind.SubmitCti and SubmitCtiBody.decode(tx.payload) == respell(submit)
    )
    assert refusal_height(chain, config, EncodingError, "^White must not carry a designated set$") == height

    # the records mine_campaigns mines: the untampered chain's, less the re-spelled one
    original = verified_technical_records(run_scenario(config).chain)
    assert submit.contract_id in {rec.record_id for rec in original}
    kept = [rec for rec in original if rec.record_id != submit.contract_id]
    assert verified_technical_records(chain) == kept
    mining = config.mining
    params = (mining.window_rounds, mining.min_support, mining.min_overlap)
    assert mine_campaigns(chain, *params) == mine_campaigns(kept, *params)
