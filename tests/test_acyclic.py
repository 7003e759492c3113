"""A command makes no reference cycles, which is why `cli.main` may run it
with the cyclic collector paused: every object a step builds is freed by
reference counting as the step goes, so nothing piles up while the
collector is off. Each step below runs with the collector disabled, and
a collection after it must find nothing unreachable."""

import contextlib
import gc

import pytest

from ctisim import cti
from ctisim.cli import build_parser, main
from ctisim.config import load_config
from ctisim.ledger import TxKind, chain_from_json, chain_to_json, verify_chain
from ctisim.mining import mine_campaigns, verify_derivation
from ctisim.simulation import run_scenario, summary_json
from tests.conftest import SCENARIO_DIR

# consumers reading a priced, policy-gated Green feed, as the benchmark's
# market-consume workload does; one consumer lacks the attributes, so
# refused reads and purchases raise and are caught along the way
MARKET = """
name: market
rounds: 12
seed: 7
economics: {deposit: 4, verification_fee: 3, base_fee: 2, period_rounds: 4,
            discount_per_hq: 1, sale_mode: fixed, fixed_price: 2}
access: {tlp: green, policy: "(or gov ICS-ISAC)"}
agents:
  - {name: authority, roles: [Authority]}
  - {name: v1, roles: [Verifier], strategy: {kind: HonestVerifier, p_acc: 1.0}}
  - {name: v2, roles: [Verifier], strategy: {kind: HonestVerifier, p_acc: 1.0}}
  - {name: v3, roles: [Verifier], strategy: {kind: NoisyVerifier, p_acc: 0.6}}
  - {name: p1, roles: [Producer], strategy: {kind: HonestProducer, share_rate: 1.0}}
  - {name: p2, roles: [Producer], strategy: {kind: FalseSharer, share_rate: 1.0, fabrication_rate: 0.5}}
  - {name: c1, roles: [Consumer], attributes: [gov], endowment: 200,
     strategy: {kind: LazyConsumer, consume_rate: 1.0}}
  - {name: c2, roles: [Consumer], attributes: [ICS-ISAC], endowment: 200,
     strategy: {kind: LazyConsumer, consume_rate: 0.5}}
  - {name: c3, roles: [Consumer], endowment: 200, strategy: {kind: LazyConsumer, consume_rate: 1.0}}
"""

SCENARIOS = sorted(path.name for path in SCENARIO_DIR.glob("*.yaml"))


@contextlib.contextmanager
def collector_paused():
    enabled = gc.isenabled()
    # a record's first decode of each policy text parses it
    cti._decoded_policy.cache_clear()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def acyclic(step, *args):
    value = step(*args)
    assert gc.collect() == 0, f"{step.__name__} left cyclic garbage"
    return value


@pytest.mark.parametrize("scenario", [*SCENARIOS, "market"])
def test_every_step_of_a_command_leaves_no_cyclic_garbage(scenario, tmp_path):
    if scenario == "market":
        path = tmp_path / "market.yaml"
        path.write_text(MARKET, encoding="utf-8")
    else:
        path = SCENARIO_DIR / scenario
    with collector_paused():
        config = acyclic(load_config, str(path))
        result = acyclic(run_scenario, config)
        text = acyclic(chain_to_json, result.chain)
        acyclic(summary_json, result.summary)
        acyclic(result.metrics.to_csv)
        chain = acyclic(chain_from_json, text)
        assert acyclic(verify_chain, chain).valid
        mining = config.mining
        campaigns = acyclic(mine_campaigns, chain, mining.window_rounds, mining.min_support, mining.min_overlap)
        for campaign in campaigns:
            assert acyclic(verify_derivation, campaign, chain)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_whole_command_leaves_only_its_argument_parser(command, tmp_path, capsys):
    """Overrides, `--values` and the sweep's legs included: a command leaves
    only the cycle argparse's parser makes, which `main` builds before it
    pauses the collector."""
    config, out = str(SCENARIO_DIR / "tlp-demo.yaml"), str(tmp_path / "out")
    if command == "run":
        argv = ["run", "--config", config, "--seed", "4", "--out", out]
    else:
        argv = ["sweep", "--config", config, "--param", "access.policy", "--values", "'(or gov x)',gov", "--out", out]
    with collector_paused():
        build_parser().parse_args(argv)
        parser_objects = gc.collect()
        assert main(argv) == 0
        assert gc.collect() == parser_objects


def test_the_market_config_buys_and_refuses_through_its_policy(tmp_path):
    path = tmp_path / "market.yaml"
    path.write_text(MARKET, encoding="utf-8")
    result = run_scenario(load_config(str(path)))
    kinds = [tx.kind for block in result.chain.blocks for tx in block.transactions]
    assert TxKind.Purchase in kinds
    refused = {name: result.summary["agents"][name]["rejected_actions"] for name in ("c1", "c2", "c3")}
    assert refused["c1"] == refused["c2"] == 0 < refused["c3"]
