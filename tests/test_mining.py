import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctisim import mining
from ctisim.access_control import TlpChannel, TlpLabel
from ctisim.config import load_config
from ctisim.contracts import Vote
from ctisim.encoding import ZERO_DIGEST
from ctisim.cti import CtiCategory, Ioc, IocKind, make_record
from ctisim.identity import Role
from ctisim.ledger import (
    Chain,
    TxKind,
    chain_from_json,
    chain_to_json,
    hash_header,
    merkle_root,
    sha256,
    verify_chain,
)
from ctisim.mining import (
    Campaign,
    MiningParams,
    _build_campaign,
    _campaign_id,
    _components,
    mine_campaigns,
    verified_technical_records,
    verify_derivation,
)
from ctisim.simulation import StrategyKind, run_scenario
from tests.conftest import SCENARIO_DIR, agent, basic_crew, make_config
from tests.reference_writer import Writer

HQ = Vote.HighQuality


def fixture_chain(labels_per_record, seed=1, rounds_spread=5):
    """Build a real chain of Verified Technical records, one per label;
    records labelled together share one indicator value, and the labels
    stay off the chain.

    Returns (chain, {record_id: label}).
    """
    rng = random.Random(seed)

    def specs():
        for n, label in enumerate(labels_per_record):
            round_no = 1 + rng.randrange(rounds_spread)
            iocs = [Ioc(IocKind.Domain, f"unique-{n}.example", round_no)]
            if label is not None:
                iocs.insert(0, Ioc(IocKind.Domain, f"shared-{label}.example", round_no))
            yield round_no, tuple(iocs)

    chain, record_ids = verified_chain(specs(), rng)
    truth = {rid: label for rid, label in zip(record_ids, labels_per_record) if label is not None}
    return chain, truth


def verified_chain(specs, rng):
    """Submit one Technical record per (round, indicators) spec through the
    contracts, have three verifiers vote it HighQuality and finalize it, one
    block per record. `specs` is consumed lazily, interleaved with `rng`.

    Returns (chain, [record_id, ...]) in spec order.
    """
    from ctisim.contracts import ContractSystem, EconomicsConfig, VerificationPolicy
    from ctisim.identity import Registry, Role, evidence_for
    from ctisim.ledger import append_block

    registry = Registry()
    system = ContractSystem(registry, VerificationPolicy(), EconomicsConfig(deposit=3))
    auth = system.register(frozenset({Role.Authority}), frozenset(), evidence_for("authority"), 100)

    producers = []
    for i in range(3):
        cred = system.register(frozenset({Role.Producer}), frozenset(), evidence_for(f"p{i}"), 10_000)
        producers.append(cred.stakeholder)
    verifiers = []
    for i in range(3):
        cred = system.register(frozenset({Role.Verifier}), frozenset(), evidence_for(f"v{i}"), 100)
        verifiers.append(cred.stakeholder)

    chain = Chain.new()

    def seal():
        registry.mark_sealed(append_block(chain, registry.unsealed(), auth.stakeholder,
                                          registry.authenticate_committed, registry.is_authority))

    seal()

    record_ids = []
    for n, (round_no, iocs) in enumerate(specs):
        producer = producers[n % len(producers)]
        record = make_record(
            producer=producer,
            category=CtiCategory.Technical,
            indicators=iocs,
            narrative_digest=ZERO_DIGEST,
            tlp=TlpLabel(TlpChannel.White),
            policy=None,
            sale_price=None,
            created_round=round_no,
        )
        contract = system.submit_report(producer, record, rng)
        for v in contract.assigned_verifiers:
            system.cast_vote(v, contract.contract_id, HQ)
        system.finalize_verification(contract.contract_id, round_no)
        seal()
        record_ids.append(record.record_id)
    return chain, record_ids


def test_three_records_sharing_one_ioc_form_a_campaign():
    chain, truth = fixture_chain(["a", "a", "a"], rounds_spread=1)
    campaigns = mine_campaigns(chain, window_rounds=10, min_support=3, min_overlap=1)
    assert len(campaigns) == 1
    assert campaigns[0].support == 3
    assert campaigns[0].member_records == frozenset(truth)
    assert "shared-a.example" in campaigns[0].shared_indicators


def test_two_records_below_min_support_no_campaign():
    chain, _ = fixture_chain(["a", "a"], rounds_spread=1)
    assert mine_campaigns(chain, window_rounds=10, min_support=3, min_overlap=1) == []


def without_finalizations(block, prev):
    """`block` with its FinalizeVerification transactions stripped, linked to `prev`."""
    txs = tuple(t for t in block.transactions if t.kind is not TxKind.FinalizeVerification)
    return block._replace(prev_hash=hash_header(prev), merkle_root=merkle_root(txs), transactions=txs)


def test_only_verified_records_contribute():
    chain, truth = fixture_chain(["a", "a", "a"], rounds_spread=1)
    # strip the finalization transactions: no record is Verified any more
    pruned = Chain.new()
    pruned.blocks = [chain.blocks[0]]
    for block in chain.blocks[1:]:
        pruned.blocks.append(without_finalizations(block, pruned.blocks[-1]))
    assert mine_campaigns(pruned, 10, 3, 1) == []


def test_window_separates_distant_records():
    chain, truth = fixture_chain(["w", "w", "w"], seed=3, rounds_spread=4)
    rounds = sorted(rec.created_round for rec in verified_technical_records(chain))
    spread = rounds[-1] - rounds[0]
    assert spread > 0  # seed chosen so the three records span several rounds
    wide = mine_campaigns(chain, window_rounds=spread + 1, min_support=3, min_overlap=1)
    assert len(wide) == 1
    narrow = mine_campaigns(chain, window_rounds=1, min_support=3, min_overlap=1)
    assert all(c.support < 3 for c in narrow) and narrow == []


def test_parameter_preconditions():
    chain, _ = fixture_chain(["a", "a", "a"], rounds_spread=1)
    with pytest.raises(ValueError):
        mine_campaigns(chain, 10, 1, 1)
    with pytest.raises(ValueError):
        mine_campaigns(chain, 10, 3, 0)


def test_fifty_record_fixture_recovers_hidden_labels():
    rng = random.Random(77)
    labels = []
    for i in range(50):
        labels.append(rng.choice(["alpha", "beta", "gamma", None]))
    chain, truth = fixture_chain(labels, seed=7, rounds_spread=4)
    campaigns = mine_campaigns(chain, window_rounds=10, min_support=2, min_overlap=1)

    expected: dict[str, set[bytes]] = {}
    for rid, label in truth.items():
        expected.setdefault(label, set()).add(rid)
    expected_groups = {frozenset(v) for v in expected.values() if len(v) >= 2}
    mined_groups = {c.member_records for c in campaigns}
    assert mined_groups == expected_groups


def test_mining_is_deterministic():
    chain, _ = fixture_chain(["a", "a", "a", "b", "b", "b"], seed=5, rounds_spread=3)
    a = mine_campaigns(chain, 10, 3, 1)
    b = mine_campaigns(chain, 10, 3, 1)
    assert a == b
    assert [c.campaign_id for c in a] == sorted(c.campaign_id for c in a)


def test_mining_the_verified_records_in_any_order_matches_the_chain():
    rng = random.Random(31)
    labels = [rng.choice(["alpha", "beta", "gamma", None]) for _ in range(50)]
    chain, _ = fixture_chain(labels, seed=7, rounds_spread=6)
    records = verified_technical_records(chain)
    for params in [(10, 2, 1), (2, 2, 1), (3, 3, 1)]:
        expected = mine_campaigns(chain, *params)
        assert expected
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert mine_campaigns(shuffled, *params) == expected


def ref_campaign_id(members, params):
    w = Writer()
    w.put_count(len(members))
    for m in sorted(members):
        w.put_bytes(m)
    w.put_uint(params.window_rounds)
    w.put_uint(params.min_support)
    w.put_uint(params.min_overlap)
    return sha256(b"campaign:" + w.getvalue())


@settings(max_examples=100, deadline=None)
@given(
    members=st.lists(st.binary(min_size=32, max_size=32), max_size=6),
    params=st.builds(MiningParams, *[st.integers(min_value=least, max_value=2**64 - 1) for least in (1, 2, 1)]),
)
def test_campaign_id_matches_reference_encoding(members, params):
    assert _campaign_id(members, params) == ref_campaign_id(members, params)


def test_verify_derivation_accepts_fresh_campaigns():
    chain, _ = fixture_chain(["a"] * 4 + ["b"] * 3, seed=11, rounds_spread=2)
    campaigns = mine_campaigns(chain, 10, 3, 1)
    assert campaigns
    assert all(verify_derivation(c, chain) for c in campaigns)


def test_verify_derivation_rejects_forged_member():
    chain, _ = fixture_chain(["a", "a", "a"], rounds_spread=1)
    (campaign,) = mine_campaigns(chain, 10, 3, 1)
    forged = Campaign(
        campaign_id=campaign.campaign_id,
        member_records=campaign.member_records | {b"\xff" * 32},
        shared_indicators=campaign.shared_indicators,
        window=campaign.window,
        support=campaign.support + 1,
        params=campaign.params,
    )
    assert not verify_derivation(forged, chain)


def test_verify_derivation_rejects_dropped_member_below_support():
    chain, _ = fixture_chain(["a", "a", "a"], rounds_spread=1)
    (campaign,) = mine_campaigns(chain, 10, 3, 1)
    keep = sorted(campaign.member_records)[:2]
    dropped = Campaign(
        campaign_id=campaign.campaign_id,
        member_records=frozenset(keep),
        shared_indicators=campaign.shared_indicators,
        window=campaign.window,
        support=2,
        params=campaign.params,
    )
    assert not verify_derivation(dropped, chain)


def test_parameters_mining_refuses_cannot_be_built():
    """So no claim carries them, and mining refuses them with the same error."""
    for params, problem in [
        ((0, 3, 1), "window_rounds must be at least 1"),
        ((10, 1, 1), "min_support must be at least 2"),
        ((10, 3, 0), "min_overlap must be at least 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{problem}$"):
            MiningParams(*params)
        with pytest.raises(ValueError, match=f"^{problem}$"):
            MiningParams._make(params)
        with pytest.raises(ValueError, match=f"^{problem}$"):
            MiningParams()._replace(**dict(zip(MiningParams._fields, params)))
        with pytest.raises(ValueError, match=f"^{problem}$"):
            mine_campaigns([], *params)


def test_swapping_a_block_changes_the_next_records():
    chain, _ = fixture_chain(["a", "a", "a"], rounds_spread=1)
    before = {r.record_id for r in verified_technical_records(chain)}
    chain.blocks[2] = without_finalizations(chain.blocks[2], chain.blocks[1])
    after = {r.record_id for r in verified_technical_records(chain)}
    assert len(before) == 3 and len(after) == 2 and after < before


def test_appending_a_block_changes_the_next_records():
    chain, _ = fixture_chain(["a", "a", "a"], rounds_spread=1)
    last = chain.blocks.pop()
    before = {r.record_id for r in verified_technical_records(chain)}
    chain.blocks.append(last)
    after = {r.record_id for r in verified_technical_records(chain)}
    assert len(before) == 2 and len(after) == 3 and before < after


def test_two_reads_of_one_text_each_decode_once(monkeypatch):
    chain, _ = fixture_chain(["a", "a", "a"], rounds_spread=1)
    expected = verified_technical_records(chain)
    text = chain_to_json(chain)
    decode = mining.decode_record
    decoded = []
    monkeypatch.setattr(mining, "decode_record", lambda data: decoded.append(data) or decode(data))
    counts = []
    for read in (chain_from_json(text), chain_from_json(text)):
        assert verified_technical_records(read) == verified_technical_records(read) == expected
        counts.append(len(decoded))
    assert counts == [3, 6]


def test_shuffling_returned_records_leaves_the_next_call_sorted():
    chain, _ = fixture_chain(["a", "b", None, "a", "b"], rounds_spread=5)
    records = verified_technical_records(chain)
    expected = sorted(records, key=lambda r: (r.created_round, r.record_id))
    assert records == expected
    random.Random(0).shuffle(records)
    assert records != expected
    assert verified_technical_records(chain) == expected


def test_an_audit_decodes_each_submission_once(monkeypatch):
    """On blocis-baseline: mining the chain and verifying every campaign
    decodes each SubmitCti record once, while every step still enters
    verified_technical_records."""
    config = load_config(str(SCENARIO_DIR / "blocis-baseline.yaml"))
    chain = run_scenario(config).chain
    submissions = sum(tx.kind is TxKind.SubmitCti for block in chain.blocks for tx in block.transactions)
    decode, derive = mining.decode_record, mining.verified_technical_records
    decoded, entered = [], []
    monkeypatch.setattr(mining, "decode_record", lambda data: decoded.append(data) or decode(data))
    monkeypatch.setattr(mining, "verified_technical_records", lambda c: entered.append(c) or derive(c))
    p = config.mining
    campaigns = mine_campaigns(chain, p.window_rounds, p.min_support, p.min_overlap)
    assert campaigns and all(verify_derivation(c, chain) for c in campaigns)
    assert len(decoded) == submissions
    assert len(entered) == 1 + len(campaigns)


def test_campaign_derived_record_classifies_as_information():
    from ctisim.access_control import TlpChannel, TlpLabel
    from ctisim.cti import CtiCategory, IntelLevel, Ioc, IocKind, classify_level, make_record
    from ctisim.encoding import ZERO_DIGEST
    from ctisim.ledger import sha256

    chain, _ = fixture_chain(["a", "a", "a"], rounds_spread=1)
    (campaign,) = mine_campaigns(chain, 10, 3, 1)
    values = sorted(campaign.shared_indicators)
    derived = make_record(
        producer=sha256(b"analyst"),
        category=CtiCategory.Technical,
        indicators=tuple(Ioc(IocKind.Domain, v, campaign.window[1]) for v in values),
        narrative_digest=ZERO_DIGEST,
        tlp=TlpLabel(TlpChannel.Green),
        policy=None,
        sale_price=None,
        created_round=campaign.window[1],
    )
    level = classify_level(derived, linked_values=campaign.shared_indicators)
    # a single shared value stays Data; two or more linked values lift it
    expected = IntelLevel.Information if len(values) >= 2 else IntelLevel.Data
    assert level is expected

    # the same aggregation written up as an operational narrative is intelligence
    narrative = make_record(
        producer=sha256(b"analyst"),
        category=CtiCategory.Operational,
        indicators=derived.indicators,
        narrative_digest=sha256(b"campaign write-up"),
        tlp=TlpLabel(TlpChannel.Green),
        policy=None,
        sale_price=None,
        created_round=campaign.window[1],
    )
    assert narrative.level is IntelLevel.Intelligence


def test_scenario_campaigns_are_auditable():
    crew = basic_crew() + [
        agent(f"prod-{i}", [Role.Producer], StrategyKind.HonestProducer, share_rate=1.0)
        for i in range(3)
    ]
    config = make_config(crew, rounds=15, seed=9)
    result = run_scenario(config)
    assert all(verify_derivation(c, result.chain) for c in result.campaigns)


# --- malformed submissions on a valid chain ----------------------------------

def _rename(old: str, new: str):
    """Swap one encoded name for another of the same length."""
    return lambda data: data.replace(old.encode(), new.encode(), 1)


def _policy(text: str):
    """Set the policy flag (10th byte from the end) and append the policy text."""
    return lambda data: data[:-10] + b"\x01" + Writer().put_str(text).getvalue() + data[-9:]


@pytest.mark.parametrize(
    "corrupt",
    [
        _rename("Technical", "Technicax"),
        _rename("Data", "Date"),
        _rename("Domain", "Domaix"),
        _rename("White", "Whitf"),
        _policy("(xor gov)"),
        _policy("(and " * 5000 + "gov" + ")" * 5000),
    ],
    ids=["category", "level", "ioc-kind", "tlp-channel", "policy", "deep-policy"],
)
def test_mining_skips_malformed_submission(monkeypatch, corrupt):
    """A signed, finalized submission whose record bytes do not decode is
    skipped by mining and auditing; verify_chain does not read record bytes."""
    import ctisim.contracts

    real = ctisim.contracts.record_bytes
    corrupted = []

    def corrupt_first(record):
        data = real(record)
        if corrupted:
            return data
        corrupted.append(record.record_id)
        bad = corrupt(data)
        assert bad != data
        return bad

    monkeypatch.setattr(ctisim.contracts, "record_bytes", corrupt_first)
    chain, record_ids = verified_chain(
        ((1, spec_iocs(n, 1, ["shared.example"])) for n in range(4)), random.Random(0)
    )
    assert verify_chain(chain).valid
    assert corrupted == record_ids[:1]
    campaigns = mine_campaigns(chain, window_rounds=10, min_support=3, min_overlap=1)
    assert [c.member_records for c in campaigns] == [frozenset(record_ids[1:])]
    assert verify_derivation(campaigns[0], chain)


# --- the indicator index against the all-pairs definition --------------------

# Few rounds and few values: ties, dense windows and values shared by many
# records. Each spec is (created_round, indicator values); values may repeat
# inside one record.
SHARED_VALUES = [f"s{k}.example" for k in range(5)]
record_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.lists(st.sampled_from(SHARED_VALUES), max_size=4),
    ),
    max_size=24,
)
mining_params = st.builds(
    MiningParams,
    window_rounds=st.integers(min_value=1, max_value=8),
    min_support=st.integers(min_value=2, max_value=3),
    min_overlap=st.integers(min_value=1, max_value=3),
)


def spec_iocs(n, round_no, values):
    """Indicators for spec n: its values plus one only it carries, which keeps
    record ids distinct and never links two records."""
    return tuple(
        Ioc(IocKind.Domain, v, round_no) for v in [*values, f"unique-{n}.example"]
    )


def all_pairs_partition(records, params):
    """The definition: link every pair of records closer than the window
    that shares at least min_overlap values; return the components."""
    values = [{ioc.value for ioc in r.indicators} for r in records]
    component = {r.record_id: frozenset([r.record_id]) for r in records}
    for i, a in enumerate(records):
        for j in range(i + 1, len(records)):
            b = records[j]
            if abs(a.created_round - b.created_round) >= params.window_rounds:
                continue
            if len(values[i] & values[j]) >= params.min_overlap:
                merged = component[a.record_id] | component[b.record_id]
                for rid in merged:
                    component[rid] = merged
    return set(component.values())


@settings(max_examples=300, deadline=None)
@given(specs=record_specs, params=mining_params)
def test_index_components_match_all_pairs(specs, params):
    records = [
        make_record(
            producer=sha256(b"producer"),
            category=CtiCategory.Technical,
            indicators=spec_iocs(n, round_no, values),
            narrative_digest=ZERO_DIGEST,
            tlp=TlpLabel(TlpChannel.White),
            policy=None,
            sale_price=None,
            created_round=round_no,
        )
        for n, (round_no, values) in enumerate(specs)
    ]
    groups = _components(records, params)
    mined = {frozenset(r.record_id for r in group) for group in groups}
    assert mined == all_pairs_partition(records, params)
    assert sum(len(group) for group in groups) == len(records)


@settings(max_examples=40, deadline=None)
@given(specs=record_specs, params=mining_params)
def test_verify_derivation_accepts_every_mined_campaign(specs, params):
    chain, _ = verified_chain(
        ((round_no, spec_iocs(n, round_no, values)) for n, (round_no, values) in enumerate(specs)),
        random.Random(0),
    )
    campaigns = mine_campaigns(chain, params.window_rounds, params.min_support, params.min_overlap)
    expected = {
        group
        for group in all_pairs_partition(verified_technical_records(chain), params)
        if len(group) >= params.min_support
    }
    assert {c.member_records for c in campaigns} == expected
    assert all(verify_derivation(c, chain) for c in campaigns)
    shuffled = verified_technical_records(chain)
    random.Random(len(specs)).shuffle(shuffled)
    assert mine_campaigns(shuffled, params.window_rounds, params.min_support, params.min_overlap) == campaigns


# Every record carries a shared value, so most draws mine a campaign.
linked_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.lists(st.sampled_from(SHARED_VALUES), min_size=1, max_size=3),
    ),
    min_size=3,
    max_size=16,
)


@settings(max_examples=40, deadline=None)
@given(specs=linked_specs, params=mining_params, data=st.data())
def test_verify_derivation_refuses_every_proper_connected_subset(specs, params, data):
    chain, _ = verified_chain(
        ((round_no, spec_iocs(n, round_no, values)) for n, (round_no, values) in enumerate(specs)),
        random.Random(0),
    )
    records = verified_technical_records(chain)
    for campaign in mine_campaigns(records, params.window_rounds, params.min_support, params.min_overlap):
        members = [r for r in records if r.record_id in campaign.member_records]
        dropped = data.draw(st.sets(st.sampled_from(range(len(members))), min_size=1, max_size=2))
        rest = [r for i, r in enumerate(members) if i not in dropped]
        for part in _components(rest, params):
            assert not verify_derivation(_build_campaign(part, params), chain)
