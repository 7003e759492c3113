"""Contract state must be a pure fold over the chain.

Rebuilds balances, reputations and per-round activity counters from the
transaction stream alone (plus the scenario parameters every participant
knows) and checks them against what the engine reported. This is the
read-side recomputation the concurrency model promises.
"""

from collections import defaultdict

from ctisim.contracts import ForfeiturePolicy
from ctisim.ledger import TxKind
from ctisim.payloads import (
    FinalizeBody,
    PurchaseBody,
    RegisterBody,
    RenewBody,
    SubmitCtiBody,
)
from ctisim.simulation import run_scenario
from tests.test_acceptance import _mixed_scenario


def replay(chain, config, endowments):
    """Fold the chain into (balances, reputations, per-round counters)."""
    ver = config.verification
    scores: dict[bytes, int] = {}
    balances: dict[bytes, int] = {}
    authority = None
    submits: dict[bytes, SubmitCtiBody] = {}
    submit_author: dict[bytes, bytes] = {}
    votes: dict[bytes, dict[bytes, str]] = defaultdict(dict)
    per_round = defaultdict(lambda: defaultdict(int))  # (round, author) -> counters

    def clamp(x):
        return max(1, min(100, x))

    for block in chain.blocks:
        r = block.timestamp
        for tx in block.transactions:
            if tx.kind is TxKind.Register:
                body = RegisterBody.decode(tx.payload)
                scores[body.stakeholder] = clamp(body.initial_score)
                balances[body.stakeholder] = endowments[body.stakeholder]
                if authority is None and "Authority" in body.roles:
                    authority = body.stakeholder
            elif tx.kind is TxKind.SubmitCti:
                body = SubmitCtiBody.decode(tx.payload)
                submits[body.contract_id] = body
                submit_author[body.contract_id] = tx.author
                balances[tx.author] -= body.deposit + body.verification_fee
                per_round[(r, tx.author)]["shares"] += 1
            elif tx.kind is TxKind.Vote:
                from ctisim.payloads import VoteBody

                body = VoteBody.decode(tx.payload)
                votes[body.contract_id][tx.author] = body.vote
            elif tx.kind is TxKind.FinalizeVerification:
                body = FinalizeBody.decode(tx.payload)
                sub = submits[body.contract_id]
                producer = submit_author[body.contract_id]
                cast = votes[body.contract_id]
                quorum = len(sub.verifiers)
                ordered = [cast[v] for v in sub.verifiers]
                hq = sum(1 for v in ordered if v == "HighQuality")
                majority = "HighQuality" if hq * 2 > quorum else "LowQuality"
                if body.status == "Verified":
                    balances[producer] += sub.deposit
                    scores[producer] = clamp(scores[producer] + ver.delta_valid)
                    per_round[(r, producer)]["verified"] += 1
                else:
                    scores[producer] = clamp(scores[producer] + ver.delta_invalid)
                    per_round[(r, producer)]["rejected"] += 1
                    per_round[(r, producer)]["forfeited"] += sub.deposit
                    if config.economics.forfeiture is ForfeiturePolicy.Split:
                        share = sub.deposit // quorum
                        for v in sub.verifiers:
                            balances[v] += share
                for v in sub.verifiers:
                    delta = (
                        ver.delta_majority_vote if cast[v] == majority else ver.delta_minority_vote
                    )
                    scores[v] = clamp(scores[v] + delta)
                if sub.verification_fee:
                    share = sub.verification_fee // quorum
                    for v in sub.verifiers:
                        balances[v] += share
            elif tx.kind is TxKind.Purchase:
                body = PurchaseBody.decode(tx.payload)
                balances[tx.author] -= body.price
                balances[submit_author[body.contract_id]] += body.price
                per_round[(r, tx.author)]["consumes"] += 1
            elif tx.kind is TxKind.RenewSubscription:
                body = RenewBody.decode(tx.payload)
                balances[tx.author] -= body.charge
                balances[authority] += body.charge
    return balances, scores, per_round


def test_chain_fold_reproduces_engine_state():
    config = _mixed_scenario(seed=321)
    config.rounds = 60
    result = run_scenario(config)
    endowments = {a.sid: a.endowment for a in result.agents}
    balances, scores, per_round = replay(result.chain, config, endowments)

    for agent in result.agents:
        info = result.summary["agents"][agent.name]
        assert balances[agent.sid] == info["balance"], agent.name
        assert scores[agent.sid] == info["reputation"], agent.name

    # per-round activity columns match the fold exactly (fixed sale mode:
    # every consume is an on-chain purchase)
    for row in result.metrics.rows:
        sid = next(a.sid for a in result.agents if a.name == row.agent)
        counters = per_round.get((row.round, sid), {})
        assert counters.get("shares", 0) == row.shares
        assert counters.get("verified", 0) == row.verified
        assert counters.get("rejected", 0) == row.rejected
        assert counters.get("forfeited", 0) == row.forfeited
        assert counters.get("consumes", 0) == row.consumes
