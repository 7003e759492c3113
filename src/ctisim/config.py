"""Scenario configuration: YAML files with nested key/value sections.

Top-level keys: name, rounds, seed, agents, economics, verification,
access, mining, utility, heartbeat. Validation is strict: unknown keys and
out-of-range values raise ConfigInvalid naming the offending field.

Every mapping in a scenario file is read by `_section` into a dataclass
whose field names are its keys: the top level into `ScenarioConfig`, each
agent into `AgentSpec`, and the sections into the objects the engine,
contracts and miner read (`EconomicsConfig`, `VerificationPolicy`,
`MiningParams`, `UtilityModel`, `AgentStrategy`, `AccessSpec`). An absent
key takes the field's default, declared once on the dataclass; a present
value goes through the check `_CHECKS` holds for its field name.
"""

from __future__ import annotations

import copy
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Optional

import yaml

from .access_control import AttributePolicy, TlpChannel, parse_policy
from .contracts import EconomicsConfig, ForfeiturePolicy, VerificationPolicy
from .errors import ConfigInvalid, PolicyParseError
from .identity import Role
from .mining import MiningParams
from .simulation import SUBMITTING_KINDS, AgentStrategy, StrategyKind, UtilityModel

DEFAULT_P_ACC = {StrategyKind.HonestVerifier: 1.0, StrategyKind.NoisyVerifier: 0.8}
SALE_MODES = ("none", "fixed", "producer-set")
FORFEITURE = {
    "split": ForfeiturePolicy.Split,
    "burn": ForfeiturePolicy.Burn,
    "hold": ForfeiturePolicy.HoldInContract,
}


def passive_strategy() -> AgentStrategy:
    """An agent without a strategy (e.g. the authority) never submits or consumes."""
    return AgentStrategy(kind=StrategyKind.LazyConsumer, consume_rate=0.0)


@dataclass(frozen=True)
class AccessSpec:
    """An `access:` section: TLP channel, designated recipients by agent
    name, and attribute policy of the records an agent produces."""

    tlp: TlpChannel = TlpChannel.White
    designated: tuple[str, ...] = ()
    policy: Optional[AttributePolicy] = None


@dataclass(frozen=True)
class AgentSpec:
    name: str
    roles: frozenset[Role]
    strategy: AgentStrategy = field(default_factory=passive_strategy)
    # the agent's own access section; None falls back to the scenario-wide one
    access: Optional[AccessSpec] = None
    attributes: frozenset[str] = frozenset()
    endowment: int = 100


@dataclass
class ScenarioConfig:
    rounds: int
    seed: int
    agents: list[AgentSpec]
    economics: EconomicsConfig = field(default_factory=EconomicsConfig)
    verification: VerificationPolicy = field(default_factory=VerificationPolicy)
    mining: MiningParams = field(default_factory=MiningParams)
    utility: UtilityModel = field(default_factory=UtilityModel)
    access: AccessSpec = field(default_factory=AccessSpec)
    heartbeat: bool = True
    name: str = "scenario"


Check = Callable[[Any, str], Any]


def _section(cls: type, raw: Any, path: str, **overrides: Check) -> Any:
    """Read the mapping `raw` at `path` into dataclass `cls`.

    The allowed keys are the field names. Unknown keys are reported first,
    then each field in declaration order: a present value goes through its
    check (from `overrides`, else `_CHECKS`), an absent one keeps the
    field's default or, for a field without one, is reported missing.
    """
    raw = _mapping(raw, path)
    prefix = f"{path}." if path else ""
    declared = fields(cls)
    names = {f.name for f in declared}
    for key in raw:
        if key not in names:
            raise ConfigInvalid(f"{prefix}{key}", "unknown field")
    values = {}
    for f in declared:
        if f.name in raw:
            check = overrides.get(f.name) or _CHECKS[f.name]
            values[f.name] = check(raw[f.name], prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigInvalid(prefix + f.name, "required field is missing")
    return cls(**values)


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


def _int(lo: Optional[int] = None, hi: Optional[int] = None) -> Check:
    return lambda value, name: _as_int(value, name, lo, hi)


def _optional(check: Check) -> Check:
    """A field where null means unset."""
    return lambda value, name: None if value is None else check(value, name)


def _bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigInvalid(name, "expected a boolean")
    return value


def _names(value: Any, name: str) -> list[str]:
    """A list of agent names or attribute tags, each read as a string."""
    return [str(v) for v in _list(value, name)]


def _roles(value: Any, name: str) -> frozenset[Role]:
    roles = set()
    for role_name in _list(value, name):
        try:
            roles.add(Role(role_name))
        except ValueError:
            raise ConfigInvalid(name, f"unknown role {role_name!r}") from None
    if not roles:
        raise ConfigInvalid(name, "at least one role required")
    if Role.Authority in roles and (Role.Producer in roles or Role.Verifier in roles):
        # reputation could revoke it, and the first authority seals every block
        raise ConfigInvalid(name, "an Authority may not also be a Producer or Verifier")
    return frozenset(roles)


def _kind(value: Any, name: str) -> StrategyKind:
    try:
        return StrategyKind(value)
    except ValueError:
        raise ConfigInvalid(name, f"unknown strategy {value!r}") from None


def _tlp(value: Any, name: str) -> TlpChannel:
    try:
        return TlpChannel(str(value).capitalize())
    except ValueError:
        raise ConfigInvalid(name, f"unknown channel {value!r}") from None


def _policy(value: Any, name: str) -> Optional[AttributePolicy]:
    """Null or empty means no policy; anything else must parse."""
    if value is None or value == "":
        return None
    if not isinstance(value, str):
        raise ConfigInvalid(name, f"expected a string, got {value!r}")
    try:
        return parse_policy(value)
    except PolicyParseError as exc:
        raise ConfigInvalid(name, str(exc)) from None


def _sale_mode(value: Any, name: str) -> str:
    if value not in SALE_MODES:
        raise ConfigInvalid(name, f"unknown mode {value!r}")
    return value


def _forfeiture(value: Any, name: str) -> ForfeiturePolicy:
    key = str(value).lower()
    if key not in FORFEITURE:
        raise ConfigInvalid(name, f"unknown policy {value!r}")
    return FORFEITURE[key]


def _strategy(value: Any, name: str) -> AgentStrategy:
    raw = _mapping(value, name)
    if not raw:
        return passive_strategy()
    strategy = _section(AgentStrategy, raw, name)
    if "p_acc" not in raw and strategy.kind in DEFAULT_P_ACC:
        strategy.p_acc = DEFAULT_P_ACC[strategy.kind]
    return strategy


def _agent_access(value: Any, name: str) -> Optional[AccessSpec]:
    return _section(AccessSpec, value, name) if _mapping(value, name) else None


# metrics.csv writes each agent name bare, so a name may hold none of the
# characters a CSV field would have to quote
_CSV_QUOTED = (",", '"', "\r", "\n")


def _agent_name(value: Any, name: str) -> str:
    text = str(value)
    if any(c in text for c in _CSV_QUOTED):
        raise ConfigInvalid(name, f"{text!r} holds a comma, double quote or line break")
    return text


def _agents(value: Any, name: str) -> list[AgentSpec]:
    if not isinstance(value, list) or not value:
        raise ConfigInvalid(name, "must be a non-empty list")
    agents = [
        _section(AgentSpec, entry, f"{name}[{i}]", access=_agent_access, name=_agent_name)
        for i, entry in enumerate(value)
    ]
    names = [a.name for a in agents]
    if len(set(names)) != len(names):
        raise ConfigInvalid(name, "agent names must be unique")
    if not any(Role.Authority in a.roles for a in agents):
        raise ConfigInvalid(name, "an Authority agent is required")
    return agents


def _economics(value: Any, name: str) -> EconomicsConfig:
    economics = _section(EconomicsConfig, value, name)
    if economics.sale_mode == "fixed" and economics.fixed_price is None:
        raise ConfigInvalid(f"{name}.fixed_price", "required when sale_mode is 'fixed'")
    return economics


def _verification(value: Any, name: str) -> VerificationPolicy:
    verification = _section(VerificationPolicy, value, name)
    if not 0.0 < verification.tau < 1.0:
        raise ConfigInvalid(f"{name}.tau", "must lie strictly between 0 and 1")
    return verification


# One check per field name; a name means the same in every mapping that has
# it, except an agent's own `access` and `name`, which `_agents` reads with
# _agent_access and _agent_name.
_CHECKS: dict[str, Check] = {
    # top level: ScenarioConfig
    "rounds": _int(lo=0),
    "seed": _int(),
    "agents": _agents,
    "economics": _economics,
    "verification": _verification,
    "mining": lambda value, name: _section(MiningParams, value, name),
    "utility": lambda value, name: _section(UtilityModel, value, name),
    "access": lambda value, name: _section(AccessSpec, value, name),
    "heartbeat": _bool,
    "name": lambda value, _: str(value),
    # agents[i]: AgentSpec
    "roles": _roles,
    "strategy": _strategy,
    "attributes": lambda value, name: frozenset(_names(value, name)),
    "endowment": _int(lo=0),
    # access: AccessSpec
    "tlp": _tlp,
    "designated": lambda value, name: tuple(_names(value, name)),
    "policy": _policy,
    # economics: EconomicsConfig
    "base_fee": _int(lo=0),
    "period_rounds": _int(lo=1),
    "discount_per_hq": _int(lo=0),
    "deposit": _int(lo=0),
    "verification_fee": _int(lo=0),
    "sale_mode": _sale_mode,
    "fixed_price": _optional(_int(lo=0)),
    "forfeiture": _forfeiture,
    # verification: VerificationPolicy
    "alpha": _as_prob,
    "tau": _as_float,
    "trust_threshold": _int(lo=1, hi=100),
    "delta_valid": _int(),
    "delta_invalid": _int(),
    "delta_majority_vote": _int(),
    "delta_minority_vote": _int(),
    "initial_score": _int(lo=1, hi=100),
    # mining: MiningParams
    "window_rounds": _int(lo=1),
    "min_support": _int(lo=2),
    "min_overlap": _int(lo=1),
    # utility: UtilityModel
    "sharing_risk_cost": _int(lo=0),
    "consumption_benefit": _int(lo=0),
    "window": _int(lo=1),
    # agents[i].strategy: AgentStrategy
    "kind": _kind,
    "share_rate": _as_prob,
    "fabrication_rate": _as_prob,
    "flood_multiplier": _int(lo=1),
    "p_acc": _as_prob,
    "consume_rate": _as_prob,
    "utility_responsive": _bool,
    "sale_price": _optional(_int(lo=0)),
}


def parse_config(raw: Any) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigInvalid("config", "top level must be a mapping")
    config = _section(ScenarioConfig, raw, "")
    _validate_cross(config)
    return config


def _validate_cross(config: ScenarioConfig) -> None:
    has_producers = any(a.strategy.kind in SUBMITTING_KINDS for a in config.agents)
    verifier_capable = sum(1 for a in config.agents if Role.Verifier in a.roles)
    if has_producers and verifier_capable < 3:
        raise ConfigInvalid("agents", "need at least 3 Verifier-capable agents when producers are present")
    names = {a.name for a in config.agents}
    sections = [("access", config.access)] + [
        (f"agents[{i}].access", a.access) for i, a in enumerate(config.agents) if a.access is not None
    ]
    for where, spec in sections:
        for designated in spec.designated:
            if designated not in names:
                raise ConfigInvalid(f"{where}.designated", f"unknown agent {designated!r}")


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
        except UnicodeDecodeError as exc:
            raise ConfigInvalid("config", f"not UTF-8 text: {exc}") from None
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
