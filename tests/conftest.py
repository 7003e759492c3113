import random
from pathlib import Path

import pytest

from ctisim.config import AccessSpec, AgentSpec, ScenarioConfig
from ctisim.contracts import EconomicsConfig, VerificationPolicy
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
