"""Contract state must be a pure fold over the chain.

Replays the chain's transactions in order through the rulebooks the engine
signs by, `Registry.apply` for credentials and `ContractSystem.apply` for
contract state, on fresh objects. Each Register carries its endowment, so
the replay needs only the scenario's parameters besides the chain. The
result must equal what the engine reported: balances, reputations,
revocations and every per-round activity counter.
"""

from collections import defaultdict

from ctisim.contracts import ContractStatus, ContractSystem, DepositState
from ctisim.identity import Registry
from ctisim.ledger import TxKind
from ctisim.payloads import FinalizeBody, PurchaseBody, RegisterBody, RenewBody, SubmitCtiBody, VoteBody
from ctisim.simulation import run_scenario
from tests.test_acceptance import _mixed_scenario

# the payload body of each kind ContractSystem.apply reads
BODIES = {
    TxKind.Register: RegisterBody,
    TxKind.SubmitCti: SubmitCtiBody,
    TxKind.Vote: VoteBody,
    TxKind.FinalizeVerification: FinalizeBody,
    TxKind.Purchase: PurchaseBody,
    TxKind.RenewSubscription: RenewBody,
}


def replay_blocks(chain, config):
    """Apply `chain` to a fresh Registry and ContractSystem, yielding each
    block after genesis and the system once that block is applied."""
    registry = Registry()
    system = ContractSystem(registry, config.verification, config.economics)
    for block in chain.blocks[1:]:
        for tx in block.transactions:
            registry.apply(tx.author, tx.kind, tx.payload)
            if tx.kind in BODIES:
                system.apply(tx.author, tx.kind, BODIES[tx.kind].decode(tx.payload), block.timestamp)
        yield block, system


def replay(chain, config):
    """The replayed ContractSystem and its activity counters by (round, author)."""
    per_round = defaultdict(lambda: defaultdict(int))
    for block, system in replay_blocks(chain, config):
        for tx in block.transactions:
            if tx.kind is TxKind.Purchase:
                per_round[(block.timestamp, tx.author)]["consumes"] += 1
    for c in system.contracts.values():
        producer = c.record.producer
        per_round[(c.created_round, producer)]["shares"] += 1
        finalized = per_round[(c.finalized_round, producer)]
        finalized["verified"] += c.status is ContractStatus.Verified
        finalized["rejected"] += c.status is ContractStatus.Rejected
        finalized["forfeited"] += c.deposit if c.deposit_state is DepositState.Forfeited else 0
    return system, per_round


def test_chain_fold_reproduces_engine_state():
    config = _mixed_scenario(seed=321)
    config.rounds = 60
    result = run_scenario(config)
    system, per_round = replay(result.chain, config)

    for agent in result.agents:
        info = result.summary["agents"][agent.name]
        assert system.market.balance_of(agent.sid) == info["balance"], agent.name
        assert system.reputation.score_of(agent.sid) == info["reputation"], agent.name
        assert system.registry.get(agent.sid).revoked == info["revoked"], agent.name

    # per-round activity columns match the replay exactly (fixed sale mode:
    # every consume is an on-chain purchase)
    for row in result.metrics.rows:
        sid = next(a.sid for a in result.agents if a.name == row.agent)
        counters = per_round.get((row.round, sid), {})
        assert counters.get("shares", 0) == row.shares
        assert counters.get("verified", 0) == row.verified
        assert counters.get("rejected", 0) == row.rejected
        assert counters.get("forfeited", 0) == row.forfeited
        assert counters.get("consumes", 0) == row.consumes
