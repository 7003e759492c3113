import random
from pathlib import Path

import pytest

from ctisim.config import AccessSpec, AgentSpec, ScenarioConfig
from ctisim.contracts import EconomicsConfig, ForfeiturePolicy, VerificationPolicy
from ctisim.identity import Role
from ctisim.mining import MiningParams
from ctisim.simulation import AgentStrategy, StrategyKind, UtilityModel

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


def agent(name, roles, kind=None, attributes=(), endowment=100, access=None, **params):
    strategy = (
        AgentStrategy(kind=kind, **params)
        if kind is not None
        else AgentStrategy(kind=StrategyKind.LazyConsumer, consume_rate=0.0)
    )
    return AgentSpec(
        name=name,
        roles=frozenset(roles),
        attributes=frozenset(attributes),
        strategy=strategy,
        endowment=endowment,
        access=access,
    )


def basic_crew():
    """Authority plus three perfect verifiers: the minimum working platform."""
    return [
        agent("authority", [Role.Authority]),
        agent("v1", [Role.Verifier], StrategyKind.HonestVerifier, p_acc=1.0),
        agent("v2", [Role.Verifier], StrategyKind.HonestVerifier, p_acc=1.0),
        agent("v3", [Role.Verifier], StrategyKind.HonestVerifier, p_acc=1.0),
    ]


def make_config(agents, rounds=10, seed=1, economics=None, verification=None,
                mining=None, utility=None, access=None, name="test"):
    return ScenarioConfig(
        name=name,
        rounds=rounds,
        seed=seed,
        agents=agents,
        economics=economics or EconomicsConfig(),
        verification=verification or VerificationPolicy(),
        access=access or AccessSpec(),
        mining=mining or MiningParams(),
        utility=utility or UtilityModel(),
    )


@pytest.fixture
def rng():
    return random.Random(1234)


def mixed_scenario(seed: int):
    """Every strategy kind under fixed-price sales, fees, discounts and a split forfeiture."""
    crew = [
        agent("authority", [Role.Authority]),
        agent("v1", [Role.Verifier], StrategyKind.NoisyVerifier, p_acc=0.8),
        agent("v2", [Role.Verifier], StrategyKind.NoisyVerifier, p_acc=0.8),
        agent("v3", [Role.Verifier], StrategyKind.HonestVerifier, p_acc=1.0),
        agent("v4", [Role.Verifier], StrategyKind.HonestVerifier, p_acc=1.0),
        agent("p1", [Role.Producer, Role.Consumer], StrategyKind.HonestProducer,
              share_rate=0.7, endowment=300),
        agent("p2", [Role.Producer, Role.Consumer], StrategyKind.HonestProducer,
              share_rate=0.5, endowment=300),
        agent("liar", [Role.Producer], StrategyKind.FalseSharer,
              share_rate=0.8, fabrication_rate=0.4, endowment=300),
        agent("flooder", [Role.Producer], StrategyKind.DoIFlooder,
              flood_multiplier=2, endowment=120),
        agent("buyer", [Role.Consumer], StrategyKind.LazyConsumer,
              consume_rate=0.8, endowment=400),
        agent("rider", [Role.Producer, Role.Consumer], StrategyKind.FreeRider,
              consume_rate=0.6),
    ]
    economics = EconomicsConfig(
        base_fee=15, period_rounds=20, discount_per_hq=1, deposit=9,
        verification_fee=3, sale_mode="fixed", fixed_price=4,
        forfeiture=ForfeiturePolicy.Split,
    )
    return make_config(crew, rounds=200, seed=seed, economics=economics,
                       utility=UtilityModel(consumption_benefit=2, sharing_risk_cost=1))
