"""Scenario configuration: YAML files with nested key/value sections.

Top-level keys: name, rounds, seed, agents, economics, verification,
access, mining, utility, heartbeat. Validation is strict: unknown keys and
out-of-range values raise ConfigInvalid naming the offending field.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml

from .access_control import AttributePolicy, TlpChannel, parse_policy
from .contracts import ForfeiturePolicy
from .errors import ConfigInvalid, PolicyParseError
from .identity import Role
from .simulation import SUBMITTING_KINDS, AgentStrategy, StrategyKind, UtilityModel

DEFAULT_P_ACC = {StrategyKind.HonestVerifier: 1.0, StrategyKind.NoisyVerifier: 0.8}


@dataclass(frozen=True)
class AccessSpec:
    channel: TlpChannel = TlpChannel.White
    designated_names: tuple[str, ...] = ()
    policy: Optional[AttributePolicy] = None


@dataclass(frozen=True)
class AgentSpec:
    name: str
    roles: frozenset[Role]
    attributes: frozenset[str]
    strategy: AgentStrategy
    endowment: int = 100
    access: Optional[AccessSpec] = None


@dataclass
class EconomicsConfig:
    base_fee: int = 0
    period_rounds: int = 10
    discount_per_hq: int = 0
    deposit: int = 10
    verification_fee: int = 0
    sale_mode: str = "none"  # none | fixed | producer-set
    fixed_price: Optional[int] = None
    forfeiture: ForfeiturePolicy = ForfeiturePolicy.Split


@dataclass
class VerificationConfig:
    alpha: float = 0.8
    tau: float = 0.5
    trust_threshold: int = 30
    delta_valid: int = 2
    delta_invalid: int = -10
    delta_majority_vote: int = 1
    delta_minority_vote: int = -3
    initial_score: int = 50


@dataclass
class MiningConfig:
    window_rounds: int = 10
    min_support: int = 3
    min_overlap: int = 1


@dataclass
class ScenarioConfig:
    name: str
    rounds: int
    seed: int
    agents: list[AgentSpec]
    economics: EconomicsConfig = field(default_factory=EconomicsConfig)
    verification: VerificationConfig = field(default_factory=VerificationConfig)
    access: AccessSpec = field(default_factory=AccessSpec)
    mining: MiningConfig = field(default_factory=MiningConfig)
    utility: UtilityModel = field(default_factory=UtilityModel)
    heartbeat: bool = True


def _require(raw: dict, key: str, where: str = "") -> Any:
    if key not in raw:
        raise ConfigInvalid(f"{where}{key}", "required field is missing")
    return raw[key]


def _check_keys(raw: dict, allowed: set[str], where: str) -> None:
    for key in raw:
        if key not in allowed:
            raise ConfigInvalid(f"{where}{key}", "unknown field")


def _mapping(value: Any, name: str) -> dict:
    """A mapping-valued field; absent (null) reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigInvalid(name, f"expected a mapping, got {value!r}")
    return value


def _list(value: Any, name: str) -> list:
    """A list-valued field; absent (null) reads as empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigInvalid(name, f"expected a list, got {value!r}")
    return value


def _as_int(value: Any, name: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigInvalid(name, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigInvalid(name, f"must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigInvalid(name, f"must be <= {hi}")
    return value


def _as_float(value: Any, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigInvalid(name, f"expected a number, got {value!r}")
    return float(value)


def _as_prob(value: Any, name: str) -> float:
    value = _as_float(value, name)
    if not 0.0 <= value <= 1.0:
        raise ConfigInvalid(name, "must lie in [0, 1]")
    return value


def _parse_strategy(raw: dict, where: str) -> AgentStrategy:
    _check_keys(
        raw,
        {
            "kind",
            "share_rate",
            "fabrication_rate",
            "flood_multiplier",
            "p_acc",
            "consume_rate",
            "utility_responsive",
            "sale_price",
        },
        where,
    )
    kind_name = _require(raw, "kind", where)
    try:
        kind = StrategyKind(kind_name)
    except ValueError:
        raise ConfigInvalid(f"{where}kind", f"unknown strategy {kind_name!r}") from None
    strategy = AgentStrategy(kind=kind)
    if kind in DEFAULT_P_ACC:
        strategy.p_acc = DEFAULT_P_ACC[kind]
    if "share_rate" in raw:
        strategy.share_rate = _as_prob(raw["share_rate"], f"{where}share_rate")
    if "fabrication_rate" in raw:
        strategy.fabrication_rate = _as_prob(raw["fabrication_rate"], f"{where}fabrication_rate")
    if "flood_multiplier" in raw:
        strategy.flood_multiplier = _as_int(raw["flood_multiplier"], f"{where}flood_multiplier", lo=1)
    if "p_acc" in raw:
        strategy.p_acc = _as_prob(raw["p_acc"], f"{where}p_acc")
    if "consume_rate" in raw:
        strategy.consume_rate = _as_prob(raw["consume_rate"], f"{where}consume_rate")
    if "utility_responsive" in raw:
        if not isinstance(raw["utility_responsive"], bool):
            raise ConfigInvalid(f"{where}utility_responsive", "expected a boolean")
        strategy.utility_responsive = raw["utility_responsive"]
    if "sale_price" in raw and raw["sale_price"] is not None:
        strategy.sale_price = _as_int(raw["sale_price"], f"{where}sale_price", lo=0)
    return strategy


def _parse_access(raw: dict, where: str) -> AccessSpec:
    _check_keys(raw, {"tlp", "designated", "policy"}, where)
    channel_name = str(raw.get("tlp", "white")).capitalize()
    try:
        channel = TlpChannel(channel_name)
    except ValueError:
        raise ConfigInvalid(f"{where}tlp", f"unknown channel {raw.get('tlp')!r}") from None
    designated = tuple(str(d) for d in _list(raw.get("designated"), f"{where}designated"))
    policy_text = raw.get("policy") or ""
    if not isinstance(policy_text, str):
        raise ConfigInvalid(f"{where}policy", f"expected a string, got {policy_text!r}")
    policy = None
    if policy_text:
        try:
            policy = parse_policy(policy_text)
        except PolicyParseError as exc:
            raise ConfigInvalid(f"{where}policy", str(exc)) from None
    return AccessSpec(channel=channel, designated_names=designated, policy=policy)


def _parse_agent(raw: Any, index: int) -> AgentSpec:
    where = f"agents[{index}]."
    raw = _mapping(raw, f"agents[{index}]")
    _check_keys(raw, {"name", "roles", "attributes", "strategy", "endowment", "access"}, where)
    name = str(_require(raw, "name", where))
    roles = set()
    for role_name in _list(_require(raw, "roles", where), f"{where}roles"):
        try:
            roles.add(Role(role_name))
        except ValueError:
            raise ConfigInvalid(f"{where}roles", f"unknown role {role_name!r}") from None
    if not roles:
        raise ConfigInvalid(f"{where}roles", "at least one role required")
    strategy_raw = _mapping(raw.get("strategy"), f"{where}strategy")
    if strategy_raw:
        strategy = _parse_strategy(strategy_raw, f"{where}strategy.")
    else:
        # passive agent (e.g. the authority): never submits or consumes
        strategy = AgentStrategy(kind=StrategyKind.LazyConsumer, consume_rate=0.0)
    access_raw = _mapping(raw.get("access"), f"{where}access")
    access = _parse_access(access_raw, f"{where}access.") if access_raw else None
    return AgentSpec(
        name=name,
        roles=frozenset(roles),
        attributes=frozenset(str(a) for a in _list(raw.get("attributes"), f"{where}attributes")),
        strategy=strategy,
        endowment=_as_int(raw.get("endowment", 100), f"{where}endowment", lo=0),
        access=access,
    )


def parse_config(raw: Any) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigInvalid("config", "top level must be a mapping")
    _check_keys(
        raw,
        {
            "name",
            "rounds",
            "seed",
            "agents",
            "economics",
            "verification",
            "access",
            "mining",
            "utility",
            "heartbeat",
        },
        "",
    )
    rounds = _as_int(_require(raw, "rounds"), "rounds", lo=0)
    seed = _as_int(_require(raw, "seed"), "seed")
    agents_raw = _require(raw, "agents")
    if not isinstance(agents_raw, list) or not agents_raw:
        raise ConfigInvalid("agents", "must be a non-empty list")
    agents = [_parse_agent(a, i) for i, a in enumerate(agents_raw)]

    names = [a.name for a in agents]
    if len(set(names)) != len(names):
        raise ConfigInvalid("agents", "agent names must be unique")
    if not any(Role.Authority in a.roles for a in agents):
        raise ConfigInvalid("agents", "an Authority agent is required")

    eco_raw = _mapping(raw.get("economics"), "economics")
    _check_keys(
        eco_raw,
        {
            "base_fee",
            "period_rounds",
            "discount_per_hq",
            "deposit",
            "verification_fee",
            "sale_mode",
            "fixed_price",
            "forfeiture",
        },
        "economics.",
    )
    economics = EconomicsConfig(
        base_fee=_as_int(eco_raw.get("base_fee", 0), "economics.base_fee", lo=0),
        period_rounds=_as_int(eco_raw.get("period_rounds", 10), "economics.period_rounds", lo=1),
        discount_per_hq=_as_int(eco_raw.get("discount_per_hq", 0), "economics.discount_per_hq", lo=0),
        deposit=_as_int(eco_raw.get("deposit", 10), "economics.deposit", lo=0),
        verification_fee=_as_int(eco_raw.get("verification_fee", 0), "economics.verification_fee", lo=0),
        sale_mode=str(eco_raw.get("sale_mode", "none")),
        fixed_price=(
            _as_int(eco_raw["fixed_price"], "economics.fixed_price", lo=0)
            if eco_raw.get("fixed_price") is not None
            else None
        ),
        forfeiture=_parse_forfeiture(eco_raw.get("forfeiture", "split")),
    )
    if economics.sale_mode not in ("none", "fixed", "producer-set"):
        raise ConfigInvalid("economics.sale_mode", f"unknown mode {economics.sale_mode!r}")
    if economics.sale_mode == "fixed" and economics.fixed_price is None:
        raise ConfigInvalid("economics.fixed_price", "required when sale_mode is 'fixed'")

    ver_raw = _mapping(raw.get("verification"), "verification")
    _check_keys(
        ver_raw,
        {
            "alpha",
            "tau",
            "trust_threshold",
            "delta_valid",
            "delta_invalid",
            "delta_majority_vote",
            "delta_minority_vote",
            "initial_score",
        },
        "verification.",
    )
    verification = VerificationConfig(
        alpha=_as_prob(ver_raw.get("alpha", 0.8), "verification.alpha"),
        tau=_as_float(ver_raw.get("tau", 0.5), "verification.tau"),
        trust_threshold=_as_int(ver_raw.get("trust_threshold", 30), "verification.trust_threshold", lo=1, hi=100),
        delta_valid=_as_int(ver_raw.get("delta_valid", 2), "verification.delta_valid"),
        delta_invalid=_as_int(ver_raw.get("delta_invalid", -10), "verification.delta_invalid"),
        delta_majority_vote=_as_int(ver_raw.get("delta_majority_vote", 1), "verification.delta_majority_vote"),
        delta_minority_vote=_as_int(ver_raw.get("delta_minority_vote", -3), "verification.delta_minority_vote"),
        initial_score=_as_int(ver_raw.get("initial_score", 50), "verification.initial_score", lo=1, hi=100),
    )
    if not 0.0 < verification.tau < 1.0:
        raise ConfigInvalid("verification.tau", "must lie strictly between 0 and 1")

    mining_raw = _mapping(raw.get("mining"), "mining")
    _check_keys(mining_raw, {"window_rounds", "min_support", "min_overlap"}, "mining.")
    mining = MiningConfig(
        window_rounds=_as_int(mining_raw.get("window_rounds", 10), "mining.window_rounds", lo=1),
        min_support=_as_int(mining_raw.get("min_support", 3), "mining.min_support", lo=2),
        min_overlap=_as_int(mining_raw.get("min_overlap", 1), "mining.min_overlap", lo=1),
    )

    util_raw = _mapping(raw.get("utility"), "utility")
    _check_keys(util_raw, {"sharing_risk_cost", "consumption_benefit", "window"}, "utility.")
    utility = UtilityModel(
        sharing_risk_cost=_as_int(util_raw.get("sharing_risk_cost", 0), "utility.sharing_risk_cost", lo=0),
        consumption_benefit=_as_int(util_raw.get("consumption_benefit", 0), "utility.consumption_benefit", lo=0),
        window=_as_int(util_raw.get("window", 5), "utility.window", lo=1),
    )

    access = _parse_access(_mapping(raw.get("access"), "access"), "access.")

    heartbeat = raw.get("heartbeat", True)
    if not isinstance(heartbeat, bool):
        raise ConfigInvalid("heartbeat", "expected a boolean")

    config = ScenarioConfig(
        name=str(raw.get("name", "scenario")),
        rounds=rounds,
        seed=seed,
        agents=agents,
        economics=economics,
        verification=verification,
        access=access,
        mining=mining,
        utility=utility,
        heartbeat=heartbeat,
    )
    _validate_cross(config)
    return config


def _parse_forfeiture(value: Any) -> ForfeiturePolicy:
    mapping = {"split": ForfeiturePolicy.Split, "burn": ForfeiturePolicy.Burn, "hold": ForfeiturePolicy.HoldInContract}
    key = str(value).lower()
    if key not in mapping:
        raise ConfigInvalid("economics.forfeiture", f"unknown policy {value!r}")
    return mapping[key]


def _validate_cross(config: ScenarioConfig) -> None:
    has_producers = any(a.strategy.kind in SUBMITTING_KINDS for a in config.agents)
    verifier_capable = sum(1 for a in config.agents if Role.Verifier in a.roles)
    if has_producers and verifier_capable < 3:
        raise ConfigInvalid("agents", "need at least 3 Verifier-capable agents when producers are present")
    names = {a.name for a in config.agents}
    for a in config.agents:
        for spec in (a.access, config.access):
            if spec is None:
                continue
            for designated in spec.designated_names:
                if designated not in names:
                    raise ConfigInvalid("access.designated", f"unknown agent {designated!r}")


def load_config(path: str) -> ScenarioConfig:
    raw = load_raw(path)
    return parse_config(raw)


# libyaml's parser where PyYAML was built with it: the same documents, parsed
# several times faster than by the pure-Python SafeLoader
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_raw(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_SAFE_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigInvalid("config", f"YAML parse error: {exc}") from None
    if raw is None:
        raise ConfigInvalid("config", "file is empty")
    return raw


def apply_override(raw: dict, dotted_key: str, value: Any) -> dict:
    """Return a copy of the raw config with one dotted key replaced.

    Paths traverse mappings by key; the agents list is addressed by agent
    name, e.g. agents.flooder.strategy.flood_multiplier.
    """
    out = copy.deepcopy(raw)
    parts = dotted_key.split(".")
    node: Any = out
    for i, part in enumerate(parts[:-1]):
        if isinstance(node, list):
            node = _agent_by_name(node, part, dotted_key)
        elif isinstance(node, dict):
            if part not in node:
                node[part] = {}
            node = node[part]
        else:
            raise ConfigInvalid(dotted_key, f"cannot traverse {part!r}")
    leaf = parts[-1]
    if isinstance(node, list):
        raise ConfigInvalid(dotted_key, "path ends inside the agents list")
    if not isinstance(node, dict):
        raise ConfigInvalid(dotted_key, "path does not reach a mapping")
    node[leaf] = value
    return out


def _agent_by_name(agents: list, name: str, dotted_key: str) -> dict:
    for entry in agents:
        if isinstance(entry, dict) and entry.get("name") == name:
            return entry
    raise ConfigInvalid(dotted_key, f"no agent named {name!r}")
