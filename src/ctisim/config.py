"""Scenario configuration: YAML files with nested key/value sections.

Top-level keys: name, rounds, seed, agents, economics, verification,
access, mining, utility. Validation is strict: unknown keys and
out-of-range values raise ConfigInvalid naming the offending field.

Every mapping in a scenario file is read by `_section` into a named tuple
whose field names are its keys: the top level into `ScenarioConfig`, each
agent into `AgentSpec`, and the sections into the objects the engine,
contracts and miner read (`EconomicsConfig`, `VerificationPolicy`,
`MiningParams`, `UtilityModel`, `AgentStrategy`, `AccessSpec`). An absent
key takes the field's default, declared once on the named tuple; a present
value goes through the check `_CHECKS` holds for its field name. The
sections are immutable, so a default section is one shared instance, and
a config for another seed or length is `config._replace(seed=...)`.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, NamedTuple, Optional

import yaml

from .access_control import AttributePolicy, TlpChannel, TlpLabel, parse_policy
from .contracts import QUORUM, EconomicsConfig, ForfeiturePolicy, VerificationPolicy
from .encoding import UINT_LIMIT
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


# An agent without a strategy (e.g. the authority) never submits or consumes.
PASSIVE_STRATEGY = AgentStrategy(kind=StrategyKind.LazyConsumer, consume_rate=0.0)


class AccessSpec(NamedTuple):
    """An `access:` section: TLP channel, designated recipients by agent
    name, and attribute policy of the records an agent produces."""

    tlp: TlpChannel = TlpChannel.White
    designated: tuple[str, ...] = ()
    policy: Optional[AttributePolicy] = None


class AgentSpec(NamedTuple):
    name: str
    roles: frozenset[Role]
    strategy: AgentStrategy = PASSIVE_STRATEGY
    # the agent's own access section; None falls back to the scenario-wide one
    access: Optional[AccessSpec] = None
    attributes: frozenset[str] = frozenset()
    endowment: int = 100


class ScenarioConfig(NamedTuple):
    rounds: int
    seed: int
    agents: list[AgentSpec]
    economics: EconomicsConfig = EconomicsConfig()
    verification: VerificationPolicy = VerificationPolicy()
    mining: MiningParams = MiningParams()
    utility: UtilityModel = UtilityModel()
    access: AccessSpec = AccessSpec()
    name: str = "scenario"


Check = Callable[[Any, str], Any]


def _section(cls: type, raw: Any, path: str, **overrides: Check) -> Any:
    """Read the mapping `raw` at `path` into the named tuple `cls`.

    The allowed keys are the field names (`cls._fields`). Unknown keys are
    reported first, then each field in declaration order: a present value
    goes through its check (from `overrides`, else `_CHECKS`), an absent
    one keeps the field's default (`cls._field_defaults`) or, for a field
    without one, is reported missing.
    """
    raw = _mapping(raw, path or "config")
    prefix = f"{path}." if path else ""
    names = cls._fields
    for key in raw:
        if key not in names:
            raise ConfigInvalid(f"{prefix}{key}", "unknown field")
    values = {}
    for name in names:
        if name in raw:
            check = overrides.get(name) or _CHECKS[name]
            values[name] = check(raw[name], prefix + name)
        elif name not in cls._field_defaults:
            raise ConfigInvalid(prefix + name, "required field is missing")
    return cls(**values)


def _got(value: Any) -> str:
    """The offending value as a refusal names it: a mapping or list by its
    kind, as through aliases a small document can make one of any size,
    and a scalar by its repr."""
    if isinstance(value, (dict, list)):
        return "a mapping" if isinstance(value, dict) else "a list"
    return repr(value)


def _mapping(value: Any, name: str) -> dict:
    """A mapping-valued field; absent (null) reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigInvalid(name, f"expected a mapping, got {_got(value)}")
    return value


def _list(value: Any, name: str) -> list:
    """A list-valued field; absent (null) reads as empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigInvalid(name, f"expected a list, got {_got(value)}")
    return value


def _as_int(value: Any, name: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigInvalid(name, f"expected an integer, got {_got(value)}")
    if lo is not None and value < lo:
        raise ConfigInvalid(name, f"must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigInvalid(name, f"must be <= {hi}")
    return value


def _as_float(value: Any, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigInvalid(name, f"expected a number, got {_got(value)}")
    return float(value)


def _as_prob(value: Any, name: str) -> float:
    value = _as_float(value, name)
    if not 0.0 <= value <= 1.0:
        raise ConfigInvalid(name, "must lie in [0, 1]")
    return value


def _int(lo: Optional[int] = None, hi: Optional[int] = None) -> Check:
    """An integer field. One with a lower bound is a count, an amount or a
    round, which the chain writes as an unsigned field, so without an upper
    bound of its own it stays below UINT_LIMIT."""
    if lo is not None and hi is None:
        hi = UINT_LIMIT - 1
    return lambda value, name: _as_int(value, name, lo, hi)


def _optional(check: Check) -> Check:
    """A field where null means unset."""
    return lambda value, name: None if value is None else check(value, name)


def _bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigInvalid(name, "expected a boolean")
    return value


def _text(value: Any, name: str) -> str:
    """A scalar read as a string; a mapping or list is refused before `str`
    reads it."""
    if isinstance(value, (dict, list)):
        raise ConfigInvalid(name, f"expected a scalar, got {_got(value)}")
    return str(value)


def _names(value: Any, name: str) -> list[str]:
    """A list of agent names or attribute tags, each a scalar read as a string."""
    return [_text(v, name) for v in _list(value, name)]


def _choice(table: dict[str, Any], what: str, spell: Callable[[str], str] = str) -> Check:
    """A scalar named by its text as `spell` writes it: the value `table`
    holds under that text, or a refusal naming it an unknown `what`."""

    def check(value: Any, name: str) -> Any:
        choice = table.get(spell(_text(value, name)))
        if choice is None:
            raise ConfigInvalid(name, f"unknown {what} {value!r}")
        return choice

    return check


_role = _choice({role.value: role for role in Role}, "role")


def _roles(value: Any, name: str) -> frozenset[Role]:
    roles = {_role(role_name, name) for role_name in _list(value, name)}
    if not roles:
        raise ConfigInvalid(name, "at least one role required")
    if Role.Authority in roles and (Role.Producer in roles or Role.Verifier in roles):
        # reputation could revoke it, and the first authority seals every block
        raise ConfigInvalid(name, "an Authority may not also be a Producer or Verifier")
    return frozenset(roles)


def _policy(value: Any, name: str) -> Optional[AttributePolicy]:
    """Null or empty means no policy; anything else must parse."""
    if value is None or value == "":
        return None
    if not isinstance(value, str):
        raise ConfigInvalid(name, f"expected a string, got {_got(value)}")
    try:
        return parse_policy(value)
    except PolicyParseError as exc:
        raise ConfigInvalid(name, str(exc)) from None


def _strategy(value: Any, name: str) -> AgentStrategy:
    raw = _mapping(value, name)
    if not raw:
        return PASSIVE_STRATEGY
    strategy = _section(AgentStrategy, raw, name)
    if "p_acc" not in raw and strategy.kind in DEFAULT_P_ACC:
        strategy = strategy._replace(p_acc=DEFAULT_P_ACC[strategy.kind])
    return strategy


def _agent_access(value: Any, name: str) -> Optional[AccessSpec]:
    return _section(AccessSpec, value, name) if _mapping(value, name) else None


# metrics.csv writes each agent name bare, so a name may hold none of the
# characters a CSV field would have to quote
_CSV_QUOTED = (",", '"', "\r", "\n")


def _agent_name(value: Any, name: str) -> str:
    text = _text(value, name)
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
    "name": _text,
    # agents[i]: AgentSpec
    "roles": _roles,
    "strategy": _strategy,
    "attributes": lambda value, name: frozenset(_names(value, name)),
    "endowment": _int(lo=0),
    # access: AccessSpec
    "tlp": _choice({channel.value: channel for channel in TlpChannel}, "channel", str.capitalize),
    "designated": lambda value, name: tuple(_names(value, name)),
    "policy": _policy,
    # economics: EconomicsConfig
    "base_fee": _int(lo=0),
    "period_rounds": _int(lo=1),
    "discount_per_hq": _int(lo=0),
    "deposit": _int(lo=0),
    "verification_fee": _int(lo=0),
    "sale_mode": _choice({mode: mode for mode in SALE_MODES}, "mode"),
    "fixed_price": _optional(_int(lo=0)),
    "forfeiture": _choice(FORFEITURE, "policy", str.lower),
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
    "kind": _choice({kind.value: kind for kind in StrategyKind}, "strategy"),
    "share_rate": _as_prob,
    "fabrication_rate": _as_prob,
    "flood_multiplier": _int(lo=1),
    "p_acc": _as_prob,
    "consume_rate": _as_prob,
    "utility_responsive": _bool,
    "sale_price": _optional(_int(lo=0)),
}


def parse_config(raw: dict) -> ScenarioConfig:
    config = _section(ScenarioConfig, raw, "")
    _validate_cross(config)
    return config


def _validate_cross(config: ScenarioConfig) -> None:
    has_producers = any(a.strategy.kind in SUBMITTING_KINDS for a in config.agents)
    verifier_capable = sum(1 for a in config.agents if Role.Verifier in a.roles)
    if has_producers and verifier_capable < QUORUM:
        raise ConfigInvalid("agents", f"need at least {QUORUM} Verifier-capable agents when producers are present")
    names = {a.name for a in config.agents}
    sections = [("access", config.access)] + [
        (f"agents[{i}].access", a.access) for i, a in enumerate(config.agents) if a.access is not None
    ]
    for where, spec in sections:
        for designated in spec.designated:
            if designated not in names:
                raise ConfigInvalid(f"{where}.designated", f"unknown agent {designated!r}")
        try:  # the label the engine gives this section's records, by name, not id
            TlpLabel(spec.tlp, frozenset(spec.designated))
        except ValueError as exc:
            raise ConfigInvalid(f"{where}.designated", str(exc)) from None


def load_config(path: str) -> ScenarioConfig:
    raw = load_raw(path)
    return parse_config(raw)


# libyaml's parser where PyYAML was built with it: the same documents, parsed
# several times faster than by the pure-Python SafeLoader
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Deepest nesting of mappings and sequences `read_yaml` accepts; a scenario
# nests 5 deep (agents[i].access.designated). Both loaders compose a node
# by recursion, and libyaml's overflows the C stack near 50,000 levels; a
# value nested past Python's recursion limit breaks `str` and `deepcopy`.
MAX_YAML_DEPTH = 32
# Most nodes (scalars, mappings, sequences) a document may expand to, an
# alias counting as every node its anchor names. Bundled scenarios have
# 94-237 and a generated 1,000-consumer config 17,351; five levels of ten
# aliases expand 351 bytes to 123,458.
MAX_YAML_NODES = 100_000
_OPEN = (yaml.MappingStartEvent, yaml.SequenceStartEvent)
_CLOSE = (yaml.MappingEndEvent, yaml.SequenceEndEvent)


def read_yaml(stream: Any, name: str) -> Any:
    """The YAML in `stream`, a string or a text file, loaded safely.

    Its events are walked first, which takes no recursion. A value nested
    deeper than MAX_YAML_DEPTH, or a document of more than MAX_YAML_NODES
    nodes, raises ConfigInvalid naming `name`; an alias counts as deep as
    the node its anchor names and as all of its nodes, so chained anchors
    cannot build a deeper or larger value from a small document. Then a
    file is rewound and loaded. A malformed document raises yaml.YAMLError.
    """
    # per open mapping or sequence: its anchor, the deepest level in it and
    # the nodes counted up to and with it
    opened: list[list] = []
    spans: dict[str, int] = {}  # the levels each anchored collection spans
    sizes: dict[str, int] = {}  # the nodes each anchored collection holds
    nodes = 0
    for event in yaml.parse(stream, Loader=_SAFE_LOADER):
        if isinstance(event, yaml.ScalarEvent):
            nodes += 1
            level = len(opened)  # as deep as the collection holding it
        elif isinstance(event, _OPEN):
            nodes += 1
            opened.append([event.anchor, len(opened) + 1, nodes])
            level = len(opened)
        elif isinstance(event, _CLOSE):
            anchor, level, first = opened.pop()
            if anchor is not None:
                spans[anchor] = level - len(opened)
                sizes[anchor] = nodes - first + 1
        elif isinstance(event, yaml.AliasEvent):
            level = len(opened) + spans.get(event.anchor, 0)
            nodes += sizes.get(event.anchor, 1)  # an anchored scalar is one node
        else:
            continue
        if nodes > MAX_YAML_NODES:
            raise ConfigInvalid(name, f"expands to more than {MAX_YAML_NODES:,} nodes")
        if level > MAX_YAML_DEPTH:
            raise ConfigInvalid(name, f"nested deeper than {MAX_YAML_DEPTH} levels")
        if opened and level > opened[-1][1]:
            opened[-1][1] = level
    if not isinstance(stream, str):
        stream.seek(0)
    return yaml.load(stream, Loader=_SAFE_LOADER)


def load_raw(path: str) -> dict:
    """The file's YAML, which must be a mapping. `run` and `sweep` both read
    their config here, so both refuse a bad file with the same words."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = read_yaml(fh, "config")
        except yaml.YAMLError as exc:
            raise ConfigInvalid("config", f"YAML parse error: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigInvalid("config", f"not UTF-8 text: {exc}") from None
    if raw is None:
        raise ConfigInvalid("config", "file is empty")
    if not isinstance(raw, dict):
        raise ConfigInvalid("config", "top level must be a mapping")
    return raw


def apply_override(raw: dict, dotted_key: str, value: Any) -> dict:
    """Return a copy of the raw config with one dotted key replaced.

    Paths traverse mappings by key; the agents list is addressed by agent
    name, e.g. agents.flooder.strategy.flood_multiplier. An absent or null
    mapping on the way is created empty, as `parse_config` reads null.
    A key with an empty part (``''``, ``economics.``, ``a..b``) is refused.
    """
    parts = dotted_key.split(".")
    if "" in parts:
        raise ConfigInvalid("--param", f"{dotted_key!r} has an empty key part")
    out = copy.deepcopy(raw)
    node: Any = out
    for i, part in enumerate(parts[:-1]):
        if isinstance(node, list):
            node = _agent_by_name(node, part, dotted_key)
        elif isinstance(node, dict):
            if node.get(part) is None:
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
