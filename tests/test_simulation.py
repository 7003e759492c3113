import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctisim import mining, simulation
from ctisim.config import load_config
from ctisim.contracts import ContractStatus, EconomicsConfig, VerificationPolicy, Vote
from ctisim.cti import GroundTruth
from ctisim.identity import Role
from ctisim.ledger import TxKind, chain_to_json, verify_chain
from ctisim.payloads import FinalizeBody
from ctisim.simulation import (
    AgentRoundLog,
    Engine,
    StrategyKind,
    UtilityModel,
    compute_utility,
    run_scenario,
    verifier_vote_model,
)
from tests.conftest import SCENARIO_DIR, agent, basic_crew, make_config
from tests.test_ledger import query


# --- verifier_vote_model ------------------------------------------------------

def test_perfect_accuracy_always_flags_fabricated():
    rng = random.Random(0)
    for _ in range(100):
        assert verifier_vote_model(GroundTruth.Fabricated, 1.0, rng) is Vote.LowQuality


def test_zero_accuracy_always_inverts():
    rng = random.Random(0)
    for _ in range(100):
        assert verifier_vote_model(GroundTruth.Genuine, 0.0, rng) is Vote.LowQuality


def test_accuracy_converges_to_p_acc():
    rng = random.Random(4242)
    aligned = sum(
        verifier_vote_model(GroundTruth.Genuine, 0.8, rng) is Vote.HighQuality
        for _ in range(10_000)
    )
    assert abs(aligned / 10_000 - 0.8) < 0.02


def test_each_vote_draws_exactly_one_random_number():
    for truth in GroundTruth:
        for p_acc in (0.0, 0.5, 1.0):
            rng, twin = random.Random(7), random.Random(7)
            for _ in range(50):
                verifier_vote_model(truth, p_acc, rng)
                twin.random()
            assert rng.getstate() == twin.getstate()


# --- _worth_sharing -------------------------------------------------------------

def scanned_worth_sharing(share_rounds, income_events, round_no, window, cost):
    """`Engine._worth_sharing` as a scan of both whole histories."""
    lo = round_no - window
    recent_shares = sum(1 for rr in share_rounds if lo <= rr < round_no)
    if recent_shares == 0:
        return True
    recent_income = sum(amt for rr, amt in income_events if lo <= rr < round_no)
    return recent_income / recent_shares >= cost


@given(
    share_rounds=st.lists(st.integers(0, 40)).map(sorted),
    # appended in non-decreasing round order; amounts within a round in any order
    income_events=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 50))).map(
        lambda events: sorted(events, key=lambda e: e[0])
    ),
    round_no=st.integers(0, 45),
    window=st.integers(1, 12),
    cost=st.integers(0, 30),
)
def test_worth_sharing_matches_a_scan_of_the_whole_history(share_rounds, income_events, round_no, window, cost):
    engine = Engine(make_config(basic_crew(), utility=UtilityModel(sharing_risk_cost=cost, window=window)))
    agent_state = SimpleNamespace(share_rounds=share_rounds, est_income_events=income_events)
    assert engine._worth_sharing(agent_state, round_no) == scanned_worth_sharing(
        share_rounds, income_events, round_no, window, cost
    )


# --- compute_utility -----------------------------------------------------------

def test_utility_consumption_only():
    model = UtilityModel(sharing_risk_cost=5, consumption_benefit=3)
    log = AgentRoundLog(round_no=1, consumes=2)
    assert compute_utility(log, model) == 6


def test_utility_share_cost_without_incentives():
    model = UtilityModel(sharing_risk_cost=5, consumption_benefit=3)
    log = AgentRoundLog(round_no=1, genuine_shares=1, consumes=1)
    assert compute_utility(log, model) == -2


def test_utility_income_added():
    model = UtilityModel(sharing_risk_cost=5, consumption_benefit=0)
    log = AgentRoundLog(round_no=1, genuine_shares=1, income=6)
    assert compute_utility(log, model) == 1


# --- engine basics ---------------------------------------------------------------

def test_zero_rounds_gives_genesis_only():
    config = make_config(basic_crew(), rounds=0)
    result = run_scenario(config)
    assert len(result.chain.blocks) == 1
    assert result.metrics.rows == []


def test_same_seed_same_bytes():
    crew = basic_crew() + [
        agent("p1", [Role.Producer], StrategyKind.HonestProducer, share_rate=0.6),
        agent("liar", [Role.Producer], StrategyKind.FalseSharer, fabrication_rate=0.5),
    ]
    config = make_config(crew, rounds=20, seed=99)
    a = run_scenario(config)
    b = run_scenario(config)
    assert chain_to_json(a.chain) == chain_to_json(b.chain)
    assert a.metrics.to_csv() == b.metrics.to_csv()
    assert a.summary == b.summary


def test_different_seed_diverges():
    crew = basic_crew() + [
        agent("p1", [Role.Producer], StrategyKind.HonestProducer, share_rate=0.6),
    ]
    config = make_config(crew, rounds=20, seed=99)
    a = run_scenario(config)
    b = run_scenario(config, seed=100)
    assert chain_to_json(a.chain) != chain_to_json(b.chain)


def test_run_mines_its_verified_records_without_decoding_its_chain(monkeypatch):
    crew = basic_crew() + [
        agent(f"prod-{i}", [Role.Producer], StrategyKind.HonestProducer, share_rate=1.0)
        for i in range(3)
    ]
    config = make_config(crew, rounds=15, seed=9)

    def refuse(chain):
        raise AssertionError("the run decoded its own chain")

    monkeypatch.setattr(mining, "verified_technical_records", refuse)
    result = run_scenario(config)
    monkeypatch.undo()
    params = config.mining
    assert result.campaigns
    assert result.campaigns == mining.mine_campaigns(
        result.chain, params.window_rounds, params.min_support, params.min_overlap
    )


# (seals, free reads) of each bundled scenario at its config seed; only
# free-riding and tlp-demo read records for free, and their readers share
# one envelope per record
BUNDLED_ENVELOPES = {
    "blocis-baseline": (0, 0),
    "doi-flood": (0, 0),
    "free-riding": (240, 592),
    "marketplace": (0, 0),
    "tlp-demo": (80, 240),
}


@pytest.mark.parametrize("scenario", sorted(BUNDLED_ENVELOPES))
def test_a_record_is_sealed_once_and_only_when_a_free_read_opens_it(monkeypatch, scenario):
    sealed: Counter = Counter()
    opened: Counter = Counter()
    real_seal, real_open = simulation.seal, simulation.open_envelope

    def counting_seal(record):
        sealed[record.record_id] += 1
        return real_seal(record)

    def counting_open(envelope, requester, group_members):
        opened[envelope.record_id] += 1
        return real_open(envelope, requester, group_members)

    monkeypatch.setattr(simulation, "seal", counting_seal)
    monkeypatch.setattr(simulation, "open_envelope", counting_open)
    run_scenario(load_config(str(SCENARIO_DIR / f"{scenario}.yaml")))
    assert set(sealed) == set(opened)
    assert all(n == 1 for n in sealed.values())
    assert (sum(sealed.values()), sum(opened.values())) == BUNDLED_ENVELOPES[scenario]


def test_metrics_row_count_and_heartbeat_blocks():
    crew = basic_crew()
    config = make_config(crew, rounds=7)
    result = run_scenario(config)
    assert len(result.metrics.rows) == 7 * len(crew)
    # genesis + registration block + one heartbeat per round
    assert len(result.chain.blocks) == 9
    assert verify_chain(result.chain).valid


def test_summary_pi_score_is_the_chains_score():
    # alpha and reputation found by a search for a score whose float spelling
    # rounds to another millionth than the FinalizeVerification carries:
    # (1 - 0.888598) * 25 / 100 sits on a half-millionth
    cfg = make_config(
        basic_crew() + [agent("sharer", [Role.Producer], StrategyKind.FalseSharer, fabrication_rate=1.0)],
        rounds=1, verification=VerificationPolicy(alpha=0.888598, initial_score=25, trust_threshold=1),
    )
    result = run_scenario(cfg)
    finalized = [FinalizeBody.decode(tx.payload) for tx in query(result.chain, kind=TxKind.FinalizeVerification)]
    assert [body.score_micro for body in finalized] == [27850]
    assert [c["pi_score"] for c in result.summary["contracts"]] == [0.02785]


def test_false_sharer_declines_and_is_revoked():
    crew = basic_crew() + [
        agent("honest", [Role.Producer], StrategyKind.HonestProducer, share_rate=1.0),
        agent("liar", [Role.Producer], StrategyKind.FalseSharer,
              share_rate=1.0, fabrication_rate=1.0),
    ]
    config = make_config(crew, rounds=10, seed=5)
    result = run_scenario(config)
    liar_rows = [r for r in result.metrics.rows if r.agent == "liar"]
    # strictly decreasing reputation on each submission round until revocation
    reps = [r.reputation for r in liar_rows[:3]]
    assert reps == [40, 30, 20]
    assert result.summary["agents"]["liar"]["revoked"] is True
    assert result.summary["agents"]["liar"]["revoked_round"] == 3
    # balance drops by exactly the deposit on each rejection
    balances = [r.balance for r in liar_rows[:3]]
    assert balances == [90, 80, 70]
    honest = result.summary["agents"]["honest"]
    assert honest["reputation"] >= 50


def test_no_transactions_from_revoked_or_untrusted_agents():
    crew = basic_crew() + [
        agent("honest", [Role.Producer], StrategyKind.HonestProducer, share_rate=1.0),
        agent("liar", [Role.Producer], StrategyKind.FalseSharer,
              share_rate=1.0, fabrication_rate=1.0),
    ]
    config = make_config(crew, rounds=12, seed=5)
    result = run_scenario(config)
    liar_sid = next(a.sid for a in result.agents if a.name == "liar")
    revoked_round = result.summary["agents"]["liar"]["revoked_round"]
    for kind in (TxKind.SubmitCti, TxKind.Vote):
        for tx in query(result.chain, kind=kind, author=liar_sid):
            pass
    late = query(result.chain, author=liar_sid, round_range=(revoked_round + 1, 12))
    assert late == []
    assert verify_chain(result.chain).valid


def test_doi_flooder_exhausts_or_is_revoked_quickly():
    crew = basic_crew() + [
        agent("honest", [Role.Producer], StrategyKind.HonestProducer, share_rate=1.0),
        agent("flooder", [Role.Producer], StrategyKind.DoIFlooder, flood_multiplier=3),
    ]
    config = make_config(crew, rounds=6, seed=2)
    result = run_scenario(config)
    assert result.summary["agents"]["flooder"]["revoked_round"] == 1
    agg = result.summary["aggregates"]
    assert agg["poisoning_rate"] == 0.0
    # the honest record submitted in round 1 still verified
    honest_rows = [r for r in result.metrics.rows if r.agent == "honest" and r.round == 1]
    assert honest_rows[0].verified == 1


def test_noisy_verifiers_can_poison():
    crew = [
        agent("authority", [Role.Authority]),
        agent("v1", [Role.Verifier], StrategyKind.NoisyVerifier, p_acc=0.0),
        agent("v2", [Role.Verifier], StrategyKind.NoisyVerifier, p_acc=0.0),
        agent("v3", [Role.Verifier], StrategyKind.NoisyVerifier, p_acc=0.0),
        agent("liar", [Role.Producer], StrategyKind.FalseSharer,
              share_rate=1.0, fabrication_rate=1.0),
    ]
    config = make_config(crew, rounds=3, seed=2)
    result = run_scenario(config)
    # inverted verifiers approve everything fabricated
    assert result.summary["aggregates"]["poisoning_rate"] == 1.0


def test_subscription_lapse_blocks_sharing_until_funded():
    crew = basic_crew() + [
        agent("poor", [Role.Producer], StrategyKind.HonestProducer,
              share_rate=1.0, endowment=25),
    ]
    config = make_config(
        crew,
        rounds=25,
        seed=3,
        economics=EconomicsConfig(base_fee=30, period_rounds=5, deposit=5),
    )
    result = run_scenario(config)
    poor = next(a for a in result.agents if a.name == "poor")
    assert poor.inactive
    lapsed_events = [e for e in poor.events if e[1] in ("InsufficientBalance", "SubscriptionLapsed")]
    assert lapsed_events
    # no submissions after the lapse round
    lapse_round = lapsed_events[0][0]
    assert all(rr <= lapse_round for rr in poor.share_rounds)


def test_purchases_flow_in_marketplace():
    crew = basic_crew() + [
        agent("seller", [Role.Producer], StrategyKind.HonestProducer,
              share_rate=1.0, sale_price=4),
        agent("buyer", [Role.Consumer], StrategyKind.LazyConsumer,
              consume_rate=1.0, endowment=200),
    ]
    config = make_config(
        crew,
        rounds=10,
        seed=8,
        economics=EconomicsConfig(deposit=9, verification_fee=3, sale_mode="producer-set"),
    )
    result = run_scenario(config)
    purchases = query(result.chain, kind=TxKind.Purchase)
    grants = query(result.chain, kind=TxKind.AccessGrant)
    assert len(purchases) == 10
    assert len(purchases) == len(grants)
    assert result.summary["agents"]["buyer"]["balance"] == 200 - 4 * 10
    # seller: +4 per sale, -3 fee per listing upkeep
    assert result.summary["agents"]["seller"]["balance"] == 100 + (4 - 3) * 10


def test_consumption_respects_tlp():
    from ctisim.config import AccessSpec
    from ctisim.access_control import TlpChannel

    crew = basic_crew() + [
        agent("prod", [Role.Producer], StrategyKind.HonestProducer, share_rate=1.0,
              access=AccessSpec(tlp=TlpChannel.Red, designated=("alice",))),
        agent("alice", [Role.Consumer], StrategyKind.LazyConsumer, consume_rate=1.0),
        agent("bob", [Role.Consumer], StrategyKind.LazyConsumer, consume_rate=1.0),
    ]
    config = make_config(crew, rounds=5, seed=1)
    result = run_scenario(config)
    consumed = {
        name: sum(r.consumes for r in result.metrics.rows if r.agent == name)
        for name in ("alice", "bob")
    }
    assert consumed["alice"] == 5
    assert consumed["bob"] == 0


def test_incentives_increase_genuine_verified_volume():
    def crew():
        return basic_crew() + [
            agent(f"p{i}", [Role.Producer], StrategyKind.HonestProducer,
                  share_rate=1.0, utility_responsive=True)
            for i in range(3)
        ]

    utility = UtilityModel(sharing_risk_cost=1, consumption_benefit=0, window=5)
    on = make_config(
        crew(), rounds=30, seed=6,
        economics=EconomicsConfig(base_fee=20, period_rounds=10, discount_per_hq=2, deposit=9),
        utility=utility,
    )
    off = make_config(
        crew(), rounds=30, seed=6,
        economics=EconomicsConfig(base_fee=20, period_rounds=10, discount_per_hq=0, deposit=9),
        utility=utility,
    )

    def genuine_verified(result):
        return sum(
            1 for c in result.contracts.values()
            if c.status is ContractStatus.Verified
            and c.record.ground_truth is GroundTruth.Genuine
        )

    vol_on = genuine_verified(run_scenario(on))
    vol_off = genuine_verified(run_scenario(off))
    assert vol_on > vol_off


def test_discount_realized_at_renewal_shows_in_utility():
    crew = basic_crew() + [
        agent("p", [Role.Producer], StrategyKind.HonestProducer, share_rate=1.0),
    ]
    economics = EconomicsConfig(base_fee=20, period_rounds=10, discount_per_hq=2, deposit=9)
    utility = UtilityModel(sharing_risk_cost=0, consumption_benefit=0)
    config = make_config(crew, rounds=10, seed=4, economics=economics, utility=utility)
    result = run_scenario(config)
    renewal_row = next(
        r for r in result.metrics.rows if r.agent == "p" and r.round == 10
    )
    # 10 verified shares accrue 20 discount, fully consumed by the renewal
    assert renewal_row.utility == 20


def test_paired_runs_differ_by_exactly_the_realized_discount():
    # same seed, incentives on vs off, non-responsive producers: traces align
    # round for round, so utility differs only at the renewal round, by the
    # discount actually realized there
    def cfg(discount):
        crew = basic_crew() + [
            agent("p", [Role.Producer], StrategyKind.HonestProducer, share_rate=1.0),
        ]
        return make_config(
            crew, rounds=10, seed=4,
            economics=EconomicsConfig(base_fee=20, period_rounds=10,
                                      discount_per_hq=discount, deposit=9),
            utility=UtilityModel(sharing_risk_cost=0, consumption_benefit=0),
        )

    on = run_scenario(cfg(2))
    off = run_scenario(cfg(0))
    utility_on = {r.round: r.utility for r in on.metrics.rows if r.agent == "p"}
    utility_off = {r.round: r.utility for r in off.metrics.rows if r.agent == "p"}
    for round_no in range(1, 10):
        assert utility_on[round_no] == utility_off[round_no]
    assert utility_on[10] - utility_off[10] == 20  # 10 verified shares x discount 2


def test_reputation_entry_created_at_registration():
    crew = basic_crew()
    config = make_config(crew, rounds=1, seed=1)
    result = run_scenario(config)
    assert all(
        row.reputation == 50 for row in result.metrics.rows if row.round == 1
    )
