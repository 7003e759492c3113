"""Scenario properties over small random configs.

Each example draws a small platform (1-8 producers, 0-3 false-sharers, 3-6
verifiers, 0-4 consumers, an optional flooder; producer and consumer names
may hold non-ASCII characters or a backslash) under a random forfeiture
policy, sale mode, fees, deposits, TLP channel and attribute policy,
runs it for 0-6 rounds, and checks what must hold for every config:
summary.json is `json.dumps(summary, indent=2)` and each metrics.csv line
`",".join(map(str, row))`, the re-read dump verifies VALID, a second run
writes the same bytes, and every rejected action is named by an error
type or an engine blocker.
The campaigns the run mined from its own verified records are those an
auditor mines from the re-read dump, and each passes `verify_derivation`;
mining parameters are drawn so that some examples mine a campaign, and
`--hypothesis-show-statistics` reports how many did.
Replaying the re-read dump block by block through `Registry.apply`,
`ContractSystem.check` and `ContractSystem.apply` refuses nothing,
conserves currency after every block, never drives a balance negative,
and ends in the engine's credentials and contract state, with the
summary's submission count and verifier forfeit income under each of the
three forfeiture policies. Every transaction the registry signed reached
a block.
"""

import inspect
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from ctisim import errors
from ctisim.config import parse_config
from ctisim.ledger import chain_from_json, chain_to_json, verify_chain
from ctisim.mining import mine_campaigns, verify_derivation
from ctisim.simulation import Engine, MetricsRow, summary_json
from tests.test_replay import replay_blocks

TAGS = ["ICS-ISAC", "gov"]
POLICIES = [None, "ICS-ISAC", "(or ICS-ISAC gov)", "(and ICS-ISAC gov)"]
# the engine's own blockers (Engine._can_act), recorded without an exception
BLOCKERS = {"Revoked", "SubscriptionLapsed"}
REJECTION_NAMES = BLOCKERS | {
    name for name, cls in vars(errors).items() if inspect.isclass(cls) and issubclass(cls, errors.CtiSimError)
}

probabilities = st.sampled_from([0.0, 0.3, 0.7, 1.0])
# name suffixes that summary.json escapes and metrics.csv writes as they are
name_suffixes = st.sampled_from(["", "-caf\u00e9", "-\\", "-\u65e5\u672c", "-\U0001f600"])


@st.composite
def scenarios(draw):
    """A raw scenario mapping, as a YAML file would give it."""
    attributes = st.lists(st.sampled_from(TAGS), unique=True)
    agents = [{"name": "authority", "roles": ["Authority"]}]
    for i in range(draw(st.integers(3, 6))):
        kind = draw(st.sampled_from(["HonestVerifier", "NoisyVerifier"]))
        agents.append({"name": f"verifier-{i}", "roles": ["Verifier"], "strategy": {"kind": kind}})
    for i in range(draw(st.integers(1, 8))):
        agents.append({
            "name": f"producer-{i}" + draw(name_suffixes),
            "roles": ["Producer", "Consumer"],
            "attributes": draw(attributes),
            "endowment": draw(st.integers(0, 60)),
            "strategy": {
                "kind": "HonestProducer",
                "share_rate": draw(probabilities),
                "consume_rate": draw(probabilities),
                "utility_responsive": draw(st.booleans()),
                "sale_price": draw(st.integers(0, 4)),
            },
        })
    for i in range(draw(st.integers(0, 3))):
        agents.append({
            "name": f"false-sharer-{i}",
            "roles": ["Producer"],
            "strategy": {"kind": "FalseSharer", "share_rate": draw(probabilities),
                         "fabrication_rate": draw(probabilities)},
        })
    if draw(st.booleans()):
        agents.append({
            "name": "flooder",
            "roles": ["Producer"],
            "strategy": {"kind": "DoIFlooder", "flood_multiplier": draw(st.integers(1, 3))},
        })
    for i in range(draw(st.integers(0, 4))):
        agents.append({
            "name": f"consumer-{i}" + draw(name_suffixes),
            "roles": ["Consumer"],
            "attributes": draw(attributes),
            "endowment": draw(st.integers(0, 60)),
            "strategy": {"kind": "LazyConsumer", "consume_rate": draw(probabilities)},
        })

    names = [a["name"] for a in agents]
    tlp = draw(st.sampled_from(["white", "green", "orange", "red"]))
    designated = []
    if tlp == "red":
        designated = [draw(st.sampled_from(names))]
    elif tlp == "orange":
        designated = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    sale_mode = draw(st.sampled_from(["none", "fixed", "producer-set"]))
    return {
        "name": "property",
        "rounds": draw(st.integers(0, 6)),
        "seed": draw(st.integers(0, 2**16)),
        "agents": agents,
        "economics": {
            "base_fee": draw(st.sampled_from([0, 3, 12])),
            "period_rounds": draw(st.integers(1, 4)),
            "discount_per_hq": draw(st.integers(0, 2)),
            "deposit": draw(st.sampled_from([0, 4, 10])),
            "verification_fee": draw(st.sampled_from([0, 3, 5])),
            "sale_mode": sale_mode,
            "fixed_price": draw(st.integers(0, 4)) if sale_mode == "fixed" else None,
            "forfeiture": draw(st.sampled_from(["split", "burn", "hold"])),
        },
        # thresholds that revoke within a few rounds
        "verification": {
            "trust_threshold": draw(st.integers(20, 50)),
            "delta_invalid": draw(st.integers(-30, -5)),
            "delta_minority_vote": draw(st.integers(-20, -1)),
        },
        "access": {"tlp": tlp, "designated": designated, "policy": draw(st.sampled_from(POLICIES))},
        "mining": {"window_rounds": draw(st.integers(1, 6)), "min_support": draw(st.integers(2, 3))},
    }


def run(raw):
    """The engine after its run, and its outputs' bytes, each checked
    against what `json.dumps` and `str` write."""
    engine = Engine(parse_config(raw))
    result = engine.run()
    outputs = (chain_to_json(result.chain), summary_json(result.summary), result.metrics.to_csv())
    assert outputs[1] == json.dumps(result.summary, indent=2) + "\n"
    rows = [MetricsRow._fields, *result.metrics.rows]
    assert outputs[2] == "".join(",".join(map(str, row)) + "\n" for row in rows)
    return engine, result, outputs


def contract_states(system):
    """Each contract's status, deposit state, votes and finalized round."""
    return {
        cid: (c.status, c.deposit_state, c.votes, c.finalized_round) for cid, c in system.contracts.items()
    }


@settings(max_examples=100, deadline=None)
@given(raw=scenarios())
def test_every_small_scenario_keeps_the_platform_invariants(raw):
    engine, result, outputs = run(raw)

    reread = chain_from_json(outputs[0])
    report = verify_chain(reread)
    assert report.valid, report
    assert engine.contracts.market.conserved()
    assert all(row.balance >= 0 for row in result.metrics.rows)
    assert run(raw)[2] == outputs
    assert {name for agent in result.agents for _, name in agent.events} <= REJECTION_NAMES

    mining = engine.cfg.mining
    assert mine_campaigns(reread, mining.window_rounds, mining.min_support, mining.min_overlap) == result.campaigns
    assert all(verify_derivation(c, reread) for c in result.campaigns)
    event(f"mined a campaign: {bool(result.campaigns)}")
    contracts = result.summary["contracts"]
    event(f"a pending contract: {any(c['finalized_round'] is None for c in contracts)}")
    event(f"a contract without votes: {any(not c['votes'] for c in contracts)}")

    for _, replayed in replay_blocks(reread, engine.cfg):
        assert replayed.market.conserved()
        assert min(replayed.market.balances.values()) >= 0

    live = engine.contracts
    assert replayed.authority == live.authority
    assert replayed.market == live.market  # balances, escrow, held, burned, minted, sales
    assert replayed.reputation.scores == live.reputation.scores
    assert replayed.subscription == live.subscription  # paid_through, accrued_discount
    assert contract_states(replayed) == contract_states(live)
    aggregates = result.summary["aggregates"]
    assert replayed.verifier_forfeit_income() == aggregates["verifier_forfeit_income"]
    assert len(replayed.contracts) == aggregates["total_submissions"]
    event(f"forfeiture: {engine.cfg.economics.forfeiture.value}")
    registry = engine.registry
    assert registry.unsealed() == []
    assert replayed.registry.credentials == registry.credentials
    assert replayed.registry.verifier_ids == registry.verifier_ids
    assert replayed.registry.authorities == registry.authorities
