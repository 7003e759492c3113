"""Golden output digests of the bundled scenarios.

Each scenario runs at its config seed and must write byte-identical
chain.json, summary.json and metrics.csv, and its chain.json must verify
VALID. Read back, each chain.json must re-emit the same bytes and re-mine,
with the scenario's `mining:` parameters, the campaigns summary.json
reports, each of which must pass verify_derivation, and its Register
transactions must mint exactly the currency summary.json accounts for. A
change that is meant to move these bytes updates the table and says so in
CHANGES.md.
"""

import hashlib
import json

import pytest

from ctisim.cli import main
from ctisim.config import load_config
from ctisim.ledger import TxKind, chain_from_json, chain_to_json, verify_chain
from ctisim.mining import (
    _build_campaign,
    _components,
    mine_campaigns,
    verified_technical_records,
    verify_derivation,
)
from ctisim.payloads import RegisterBody
from tests.conftest import SCENARIO_DIR
from tests.test_ledger import query

GOLDEN = {
    "blocis-baseline": {
        "chain.json": "f0785d49e6b47c4398d63ff1adc0aa39352a5a6d9a3a14be23bba5126d4ddcd1",
        "summary.json": "590055af98241949e1f0a9fb0d264f4a15bb6e1ee9cd259f8ebb2bda41d2998b",
        "metrics.csv": "1619f1113aceb60ceb77b16b0fb17a857ad2bab959429bb8b4752385dfb6bc3b",
    },
    "doi-flood": {
        "chain.json": "87745ab043e99de4cbfa0d3d87d4fea26bebfcab375089a78223029f500a462b",
        "summary.json": "b3bf4356fd291c01ae808e5e81cccba4798b629867a15c9d7c9d8a6e0a300a6c",
        "metrics.csv": "00b12be8731ab756da066466de9f07f411d0ede90e86f97ee0fe3588ce76ef09",
    },
    "free-riding": {
        "chain.json": "e855d6802628e0a911c1eb1c17a282f90da8ac0df9f5a1501ddf839b4e9bd5bc",
        "summary.json": "e9a330b95dc027310cfbbce557591e54a4687ce34d50e7477e7847fa904ad1a6",
        "metrics.csv": "9d1a197f4d609e602b28ec9fb7ffc1fb7a8104b1ed1f705c02f9b9975eb86089",
    },
    "marketplace": {
        "chain.json": "69e41b126cfe8141259c951b0b445f609ae560df6f73e2e4a2b0d8abef0dce06",
        "summary.json": "222306e10bcf7d0954e5cb1420152a8447ce19846c404b46edd59d13795c76ab",
        "metrics.csv": "994053a892e2bee4fb0869130533fc414e2880315a7e4b7c9995072945c9de70",
    },
    "tlp-demo": {
        "chain.json": "a5614e7fc510ae9dd6c76791c3ae67e367584963b5dcf2049dc49a09a2d2a22a",
        "summary.json": "b12dfe935fc2741b269b6ac31b00602e15268bf628b85715f9b18127dd0d8091",
        "metrics.csv": "a5675d2d912e88308b82e5149964df2df97ad95eeff21662e9cae2c7983b642c",
    },
}


def test_every_bundled_scenario_has_a_golden_entry():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")) == sorted(GOLDEN)


@pytest.fixture(scope="module")
def bundled_outputs(tmp_path_factory):
    """The output directory of a bundled scenario, run once at its config seed."""
    dirs = {}

    def outputs(scenario):
        if scenario not in dirs:
            out = tmp_path_factory.mktemp(scenario) / "out"
            assert main(["run", "--config", str(SCENARIO_DIR / f"{scenario}.yaml"), "--out", str(out)]) == 0
            dirs[scenario] = out
        return dirs[scenario]

    return outputs


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_scenario_outputs_match_golden_digests(scenario, bundled_outputs):
    out = bundled_outputs(scenario)
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[scenario]
    }
    assert digests == GOLDEN[scenario]
    assert verify_chain(chain_from_json((out / "chain.json").read_text(encoding="utf-8"))).valid


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_chain_reloads_to_its_bytes_and_campaigns(scenario, bundled_outputs):
    out = bundled_outputs(scenario)
    data = (out / "chain.json").read_bytes()
    chain = chain_from_json(data.decode("utf-8"))
    assert chain_to_json(chain).encode("utf-8") == data

    params = load_config(str(SCENARIO_DIR / f"{scenario}.yaml")).mining
    campaigns = mine_campaigns(chain, params.window_rounds, params.min_support, params.min_overlap)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert [
        {
            "campaign_id": c.campaign_id.hex(),
            "member_records": sorted(m.hex() for m in c.member_records),
            "shared_indicators": sorted(c.shared_indicators),
            "window": list(c.window),
            "support": c.support,
        }
        for c in campaigns
    ] == summary["campaigns"]
    assert all(verify_derivation(c, chain) for c in campaigns)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_campaign_without_its_last_member_is_refused(scenario, bundled_outputs):
    """Dropping a mined campaign's latest member leaves a connected claim
    that only the whole-component check refuses."""
    chain = chain_from_json((bundled_outputs(scenario) / "chain.json").read_text(encoding="utf-8"))
    params = load_config(str(SCENARIO_DIR / f"{scenario}.yaml")).mining
    records = verified_technical_records(chain)
    campaigns = mine_campaigns(records, params.window_rounds, params.min_support, params.min_overlap)
    assert campaigns
    for campaign in campaigns:
        members = [r for r in records if r.record_id in campaign.member_records]
        truncated = members[:-1]
        assert len(_components(truncated, params)) == 1
        assert verify_derivation(campaign, chain)
        assert not verify_derivation(_build_campaign(truncated, params), chain)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_chain_mints_the_currency_the_summary_accounts_for(scenario, bundled_outputs):
    out = bundled_outputs(scenario)
    chain = chain_from_json((out / "chain.json").read_text(encoding="utf-8"))
    minted = sum(RegisterBody.decode(tx.payload).endowment for tx in query(chain, kind=TxKind.Register))
    aggregates = json.loads((out / "summary.json").read_text(encoding="utf-8"))["aggregates"]
    assert minted == aggregates["minted"] == aggregates["total_supply"] + aggregates["burned"]
