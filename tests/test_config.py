import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ctisim import cli, config as config_module
from ctisim.access_control import TlpChannel, TlpLabel
from ctisim.config import (
    AccessSpec,
    AgentSpec,
    MAX_YAML_DEPTH,
    MAX_YAML_NODES,
    ScenarioConfig,
    apply_override,
    load_config,
    load_raw,
    parse_config,
    read_yaml,
)
from ctisim.contracts import EconomicsConfig, ForfeiturePolicy, VerificationPolicy
from ctisim.errors import ConfigInvalid
from ctisim.identity import Role
from ctisim.mining import MiningParams
from ctisim.simulation import AgentStrategy, StrategyKind, UtilityModel
from tests.conftest import SCENARIO_DIR

MINIMAL = """
name: tiny
rounds: 5
seed: 1
agents:
  - name: authority
    roles: [Authority]
  - name: v1
    roles: [Verifier]
    strategy: {kind: HonestVerifier}
  - name: v2
    roles: [Verifier]
    strategy: {kind: HonestVerifier}
  - name: v3
    roles: [Verifier]
    strategy: {kind: HonestVerifier}
  - name: p
    roles: [Producer]
    strategy: {kind: HonestProducer, share_rate: 0.5}
"""


def parse(text):
    return parse_config(yaml.safe_load(text))


def test_minimal_config_parses_with_defaults():
    config = parse(MINIMAL)
    assert config.rounds == 5
    assert config.economics.deposit == 10
    assert config.verification.trust_threshold == 30
    assert config.verification.initial_score == 50
    assert config.economics.forfeiture is ForfeiturePolicy.Split
    assert config.mining.min_support == 3
    producer = next(a for a in config.agents if a.name == "p")
    assert producer.strategy.kind is StrategyKind.HonestProducer
    assert Role.Producer in producer.roles


def test_verifier_default_accuracy_by_kind():
    config = parse(MINIMAL)
    v1 = next(a for a in config.agents if a.name == "v1")
    assert v1.strategy.p_acc == 1.0
    noisy = parse(MINIMAL.replace("kind: HonestVerifier}", "kind: NoisyVerifier}"))
    assert next(a for a in noisy.agents if a.name == "v1").strategy.p_acc == 0.8


def test_missing_rounds_names_the_field():
    raw = yaml.safe_load(MINIMAL)
    del raw["rounds"]
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    assert exc.value.field == "rounds"


def test_unknown_top_level_key_rejected():
    raw = yaml.safe_load(MINIMAL)
    raw["typo_section"] = {}
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    assert "typo_section" in exc.value.field


def test_unknown_strategy_kind_rejected():
    with pytest.raises(ConfigInvalid):
        parse(MINIMAL.replace("HonestProducer", "MysteryAgent"))


def test_probability_ranges_checked():
    with pytest.raises(ConfigInvalid):
        parse(MINIMAL.replace("share_rate: 0.5", "share_rate: 1.5"))


def test_authority_required():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"] = raw["agents"][1:]
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    assert "Authority" in str(exc.value)


def revocable_authority(role, strategy):
    """MINIMAL over 40 rounds at seed 7, the producer always sharing, with an
    authority that is also a `role`: reputation can revoke it, and the
    first authority seals every block."""
    raw = yaml.safe_load(MINIMAL)
    raw.update(rounds=40, seed=7)
    raw["agents"][0].update(roles=["Authority", role], strategy=strategy)
    raw["agents"][4]["strategy"]["share_rate"] = 1.0
    return raw


REVOCABLE_AUTHORITIES = {
    "verifier": revocable_authority("Verifier", {"kind": "NoisyVerifier", "p_acc": 0.0}),
    "producer": revocable_authority("Producer", {"kind": "FalseSharer", "fabrication_rate": 1.0}),
}


@pytest.mark.parametrize("raw", REVOCABLE_AUTHORITIES.values(), ids=REVOCABLE_AUTHORITIES.keys())
def test_authority_that_reputation_can_revoke_rejected(raw):
    assert invalid_field(raw).field == "agents[0].roles"


def test_authority_may_consume():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][0]["roles"] = ["Authority", "Consumer"]
    assert parse_config(raw).agents[0].roles == {Role.Authority, Role.Consumer}


def test_three_verifiers_required_with_producers():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"] = [a for a in raw["agents"] if a["name"] != "v3"]
    with pytest.raises(ConfigInvalid):
        parse_config(raw)
    # without producers two verifiers are fine
    raw["agents"] = [a for a in raw["agents"] if a["name"] != "p"]
    parse_config(raw)


def test_duplicate_agent_names_rejected():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"].append(dict(raw["agents"][-1]))
    with pytest.raises(ConfigInvalid):
        parse_config(raw)


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
def test_agent_name_metrics_csv_would_have_to_quote_rejected(char):
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][4]["name"] = f"acme{char} inc"
    assert invalid_field(raw).field == "agents[4].name"


def test_tau_strictly_inside_unit_interval():
    raw = yaml.safe_load(MINIMAL)
    raw["verification"] = {"tau": 1.0}
    with pytest.raises(ConfigInvalid):
        parse_config(raw)


def test_fixed_sale_mode_needs_price():
    raw = yaml.safe_load(MINIMAL)
    raw["economics"] = {"sale_mode": "fixed"}
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    assert exc.value.field == "economics.fixed_price"


def test_access_parsing():
    raw = yaml.safe_load(MINIMAL)
    raw["access"] = {"tlp": "green", "policy": "(and a b)"}
    config = parse_config(raw)
    assert config.access.tlp is TlpChannel.Green
    assert config.access.policy is not None


def test_designated_names_must_exist():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][-1]["access"] = {"tlp": "red", "designated": ["nobody"]}
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    assert exc.value.field == "agents[4].access.designated"
    del raw["agents"][-1]["access"]
    raw["access"] = {"tlp": "red", "designated": ["nobody"]}
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    assert exc.value.field == "access.designated"


@pytest.mark.parametrize(
    "access, problem",
    [
        ({"tlp": "green", "designated": ["v1"]}, "Green must not carry a designated set"),
        ({"tlp": "white", "designated": ["v1"]}, "White must not carry a designated set"),
        ({"tlp": "red", "designated": ["v1", "v2"]}, "Red requires exactly one designated recipient"),
        ({"tlp": "red"}, "Red requires exactly one designated recipient"),
        ({"tlp": "orange"}, "Orange requires a non-empty designated group"),
    ],
    ids=["green-designated", "white-designated", "red-two", "red-none", "orange-none"],
)
@pytest.mark.parametrize("where", ["access", "agents[4].access"])
def test_an_access_label_no_record_can_carry_is_refused(where, access, problem):
    """Such a label would make every record its producer shares FormatInvalid."""
    raw = yaml.safe_load(MINIMAL)
    if where == "access":
        raw["access"] = access
    else:
        raw["agents"][4]["access"] = access
    err = invalid_field(raw)
    assert (err.field, str(err)) == (f"{where}.designated", f"{where}.designated: {problem}")


@settings(max_examples=150, deadline=None)
@given(channel=st.sampled_from(TlpChannel), names=st.lists(st.sampled_from(["v1", "v2", "v3", "p"]), max_size=3),
       where=st.sampled_from(["access", "agents[4].access"]))
def test_config_accepts_exactly_the_labels_tlp_label_accepts(channel, names, where):
    """The label rule has one owner, TlpLabel; config names the field and
    passes its words on."""
    raw = yaml.safe_load(MINIMAL)
    access = {"tlp": channel.value.lower(), "designated": names}
    if where == "access":
        raw["access"] = access
    else:
        raw["agents"][4]["access"] = access
    try:
        TlpLabel(channel, frozenset(names))
    except ValueError as exc:
        err = invalid_field(raw)
        assert (err.field, str(err)) == (f"{where}.designated", f"{where}.designated: {exc}")
    else:
        parse_config(raw)


def test_bad_policy_string_rejected():
    raw = yaml.safe_load(MINIMAL)
    raw["access"] = {"policy": "(not a)"}
    with pytest.raises(ConfigInvalid):
        parse_config(raw)


def test_apply_override_nested_key():
    raw = yaml.safe_load(MINIMAL)
    out = apply_override(raw, "verification.alpha", 0.9)
    assert out["verification"]["alpha"] == 0.9
    assert "verification" not in raw or raw.get("verification") != out["verification"]


def test_apply_override_agent_by_name():
    raw = yaml.safe_load(MINIMAL)
    out = apply_override(raw, "agents.p.strategy.share_rate", 1.0)
    agent = next(a for a in out["agents"] if a["name"] == "p")
    assert agent["strategy"]["share_rate"] == 1.0


def test_apply_override_unknown_agent():
    raw = yaml.safe_load(MINIMAL)
    with pytest.raises(ConfigInvalid):
        apply_override(raw, "agents.ghost.strategy.share_rate", 1.0)


def test_override_with_unknown_leaf_fails_validation():
    raw = yaml.safe_load(MINIMAL)
    out = apply_override(raw, "economics.typo_key", 3)
    with pytest.raises(ConfigInvalid):
        parse_config(out)


@pytest.mark.parametrize("key", ["", "economics.", "economics..deposit"])
def test_a_key_with_an_empty_part_is_refused_naming_param_and_key(tmp_path, capsys, key):
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(SCENARIO_DIR / "doi-flood.yaml"), "--param", key, "--values", "1"]
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --param: {key!r} has an empty key part\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["run", "--seed", "-1"], ["sweep", "--param", "seed", "--values", "-1"]], ids=["run", "sweep"]
)
def test_a_negative_seed_is_refused_naming_seed(tmp_path, capsys, argv):
    """random.Random(-n) seeds the stream of Random(n), so a negative seed
    would write seed n's outputs under another label."""
    out = tmp_path / "o"
    assert cli.main([*argv, "--config", str(SCENARIO_DIR / "tlp-demo.yaml"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed: must be >= 0\n"
    assert not out.exists()


def test_bundled_scenarios_all_parse(scenario_dir):
    for path in sorted(scenario_dir.glob("*.yaml")):
        config = load_config(str(path))
        assert config.rounds > 0


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_bundled_scenarios_load_alike_under_both_loaders(scenario_dir):
    for path in sorted(scenario_dir.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        expected = repr(yaml.load(text, Loader=yaml.SafeLoader))
        assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == expected, path.name
        assert repr(load_raw(str(path))) == expected, path.name


@pytest.mark.parametrize("text", ["name: [x\n", "", "# only a comment\n"])
def test_unloadable_yaml_is_config_invalid(tmp_path, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        load_raw(str(path))


# --- nesting: refused before either loader recurses ------------------------------

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def nested(depth):
    """A config whose `name` is a flow sequence `depth` - 1 deep, so the
    document nests `depth` deep."""
    return "name: " + "[" * (depth - 1) + "]" * (depth - 1) + "\n"


def aliased(depth):
    """A config whose `name` reaches `depth` levels only through an alias
    of a sequence 16 deep, so the document itself nests at most 17 deep."""
    outer = depth - 17
    return "x: &x " + "[" * 16 + "]" * 16 + "\nname: " + "[" * outer + "*x" + "]" * outer + "\n"


@pytest.mark.parametrize("shape", [nested, aliased])
@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_nesting_at_the_bound_loads_and_one_deeper_is_refused(monkeypatch, tmp_path, loader, shape):
    monkeypatch.setattr(config_module, "_SAFE_LOADER", loader)
    path = tmp_path / "deep.yaml"
    path.write_text(shape(MAX_YAML_DEPTH))
    assert isinstance(load_raw(str(path))["name"], list)
    path.write_text(shape(MAX_YAML_DEPTH + 1))
    with pytest.raises(ConfigInvalid, match=f"^config: nested deeper than {MAX_YAML_DEPTH} levels$"):
        load_raw(str(path))
    with pytest.raises(ConfigInvalid, match="^--values: nested deeper"):
        read_yaml("[" * 40 + "]" * 40, "--values")


DEEP_CASES = ["run", "sweep"]


def deep_argv(tmp_path, case):
    """The argv of a `run` of a 50,000-deep config, or of a `sweep` over a
    2,000-deep --values list, and the name its refusal gives."""
    out = str(tmp_path / "o")
    if case == "run":
        path = tmp_path / "deep.yaml"
        path.write_text(nested(50_000))
        return ["run", "--config", str(path), "--out", out], "config"
    values = "[" * 2000 + "]" * 2000
    doi = str(SCENARIO_DIR / "doi-flood.yaml")
    return ["sweep", "--config", doi, "--param", "name", "--values", values, "--out", out], "--values"


@pytest.mark.parametrize("case", DEEP_CASES)
def test_deep_yaml_exits_one_under_the_pure_python_loader(monkeypatch, tmp_path, capsys, case):
    # the fallback where PyYAML lacks libyaml: it raised RecursionError
    monkeypatch.setattr(config_module, "_SAFE_LOADER", yaml.SafeLoader)
    argv, name = deep_argv(tmp_path, case)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {name}: nested deeper than {MAX_YAML_DEPTH} levels\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("case", DEEP_CASES)
def test_deep_yaml_exits_one_under_libyaml(tmp_path, case):
    # in a child process: libyaml's composer overflowed the C stack (exit 139)
    argv, name = deep_argv(tmp_path, case)
    src = str(Path(config_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "ctisim.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (1, f"error: {name}: nested deeper than {MAX_YAML_DEPTH} levels\n")
    assert not (tmp_path / "o").exists()


# --- expansion: every node an alias names counts ---------------------------------

def expanding_to(total):
    """A document of exactly `total` nodes (>= 204): a 100-node anchored
    list, then a list of aliases of it padded with scalars."""
    aliases, pad = divmod(total - 104, 100)
    return "a: &a [" + ", ".join("0" * 99) + "]\nb: [" + ", ".join(["*a"] * aliases + ["0"] * pad) + "]\n"


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_expansion_at_the_node_bound_loads_and_one_node_more_is_refused(monkeypatch, loader):
    monkeypatch.setattr(config_module, "_SAFE_LOADER", loader)
    loaded = read_yaml(expanding_to(MAX_YAML_NODES), "config")
    assert len(loaded["b"]) == (MAX_YAML_NODES - 104) // 100 + (MAX_YAML_NODES - 104) % 100
    refusal = f"^config: expands to more than {MAX_YAML_NODES:,} nodes$"
    with pytest.raises(ConfigInvalid, match=refusal):
        read_yaml(expanding_to(MAX_YAML_NODES + 1), "config")
    # without an alias, as many nodes written out are refused alike
    with pytest.raises(ConfigInvalid, match=refusal):
        read_yaml("[" + "0," * MAX_YAML_NODES + "]", "config")


def test_a_config_whose_agents_share_lists_loads_as_dumped(tmp_path):
    # yaml.safe_dump writes a list that several agents share once, with an
    # anchor, and an alias at every later use, as generated configs do
    raw = yaml.safe_load(MINIMAL)
    tags, roles = ["ICS-ISAC", "gov"], ["Consumer"]
    raw["agents"] += [{"name": f"c{i}", "roles": roles, "attributes": tags} for i in range(1000)]
    path = tmp_path / "shared.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    assert "&id001" in path.read_text() and "*id001" in path.read_text()
    assert load_raw(str(path)) == raw
    assert len(parse_config(raw).agents) == 1005


# --- field types: a wrong type is a ConfigInvalid naming the field -------------

def invalid_field(raw):
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    return exc.value


@pytest.mark.parametrize(
    "tau, got",
    [("abc", "'abc'"), ([1], "a list"), ("0.7", "'0.7'"), ({"a": 1}, "a mapping")],
    ids=["abc", "tau1", "0.7", "mapping"],
)
def test_tau_must_be_a_number(tau, got):
    raw = yaml.safe_load(MINIMAL)
    raw["verification"] = {"tau": tau}
    err = invalid_field(raw)
    assert (err.field, str(err)) == ("verification.tau", f"verification.tau: expected a number, got {got}")


@pytest.mark.parametrize("rounds, got", [("5", "'5'"), ([5], "a list"), ({"n": 5}, "a mapping")],
                         ids=["string", "list", "mapping"])
def test_rounds_must_be_an_integer(rounds, got):
    raw = yaml.safe_load(MINIMAL)
    raw["rounds"] = rounds
    assert str(invalid_field(raw)) == f"rounds: expected an integer, got {got}"


def test_attributes_must_be_a_list():
    raw = yaml.safe_load(MINIMAL)
    for value, got in [("gov", "'gov'"), ({"gov": None}, "a mapping")]:
        raw["agents"][4]["attributes"] = value
        assert str(invalid_field(raw)) == f"agents[4].attributes: expected a list, got {got}"


def test_roles_must_be_a_list():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][4]["roles"] = "Producer"
    err = invalid_field(raw)
    assert err.field == "agents[4].roles"
    assert "expected a list" in str(err)


def test_designated_must_be_a_list():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][4]["access"] = {"tlp": "red", "designated": "v1"}
    assert invalid_field(raw).field == "agents[4].access.designated"


def test_designated_entries_are_names():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][4]["access"] = {"tlp": "red", "designated": [["v1"]]}
    assert invalid_field(raw).field == "agents[4].access.designated"


def set_name(raw, value):
    raw["name"] = value
    return "name"


def set_agent_name(raw, value):
    raw["agents"][4]["name"] = value
    return "agents[4].name"


def set_attribute(raw, value):
    raw["agents"][4]["attributes"] = ["gov", value]
    return "agents[4].attributes"


def set_designated(raw, value):
    raw["agents"][4]["access"] = {"tlp": "orange", "designated": ["v1", value]}
    return "agents[4].access.designated"


def set_tlp(raw, value):
    raw["access"] = {"tlp": value}
    return "access.tlp"


def set_forfeiture(raw, value):
    raw["economics"] = {"forfeiture": value}
    return "economics.forfeiture"


def set_role(raw, value):
    raw["agents"][4]["roles"] = ["Producer", value]
    return "agents[4].roles"


def set_kind(raw, value):
    raw["agents"][4]["strategy"] = {"kind": value}
    return "agents[4].strategy.kind"


def set_sale_mode(raw, value):
    raw["economics"] = {"sale_mode": value}
    return "economics.sale_mode"


TEXT_FIELDS = [
    set_name, set_agent_name, set_attribute, set_designated, set_tlp, set_forfeiture,
    set_role, set_kind, set_sale_mode,
]


@pytest.mark.parametrize("value, kind", [(["a"], "list"), ({"a": 1}, "mapping")], ids=["list", "mapping"])
@pytest.mark.parametrize("setter", TEXT_FIELDS, ids=lambda f: f.__name__[4:])
def test_a_text_field_refuses_a_list_or_mapping(setter, value, kind):
    raw = yaml.safe_load(MINIMAL)
    field = setter(raw, value)
    err = invalid_field(raw)
    assert (err.field, str(err)) == (field, f"{field}: expected a scalar, got a {kind}")


@pytest.mark.parametrize("value, text", [(7, "7"), (2.5, "2.5"), (True, "True"), ("x", "x")])
def test_a_scalar_name_or_tag_reads_as_its_string(value, text):
    raw = yaml.safe_load(MINIMAL)
    raw["name"] = value
    raw["agents"][4]["attributes"] = [value]
    config = parse_config(raw)
    assert (config.name, config.agents[4].attributes) == (text, frozenset({text}))


@pytest.mark.parametrize("policy", [5, 0, False, [], {}], ids=["5", "0", "false", "list", "mapping"])
def test_policy_must_be_a_string(policy):
    got = {list: "a list", dict: "a mapping"}.get(type(policy), repr(policy))
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][4]["access"] = {"tlp": "green", "policy": policy}
    assert str(invalid_field(raw)) == f"agents[4].access.policy: expected a string, got {got}"
    del raw["agents"][4]["access"]
    raw["access"] = {"tlp": "green", "policy": policy}
    assert str(invalid_field(raw)) == f"access.policy: expected a string, got {got}"


@pytest.mark.parametrize("policy", [None, ""])
def test_null_or_empty_policy_means_no_policy(policy):
    raw = yaml.safe_load(MINIMAL)
    raw["access"] = {"tlp": "green", "policy": policy}
    assert parse_config(raw).access.policy is None


@pytest.mark.parametrize("section", ["economics", "verification", "access", "mining", "utility"])
def test_section_must_be_a_mapping(section):
    raw = yaml.safe_load(MINIMAL)
    for value, got in [(5, "5"), (["a"], "a list")]:
        raw[section] = value
        err = invalid_field(raw)
        assert (err.field, str(err)) == (section, f"{section}: expected a mapping, got {got}")


def test_agent_entry_must_be_a_mapping():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"].append(7)
    assert invalid_field(raw).field == "agents[5]"


@pytest.mark.parametrize("key", ["strategy", "access"])
def test_agent_strategy_and_access_must_be_mappings(key):
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][4][key] = "HonestProducer"
    assert invalid_field(raw).field == f"agents[4].{key}"


# --- every section field: default when absent, checked when present ------------

def names(cls):
    return list(cls._fields)


SECTIONS = {
    "economics": EconomicsConfig,
    "verification": VerificationPolicy,
    "mining": MiningParams,
    "utility": UtilityModel,
    "strategy": AgentStrategy,
}

# per field: a valid value other than the default, what it parses to, and an
# invalid value
SAMPLES = {
    "economics": {
        "base_fee": (5, 5, -1),
        "period_rounds": (3, 3, 0),
        "discount_per_hq": (1, 1, -1),
        "deposit": (4, 4, -1),
        "verification_fee": (6, 6, -1),
        "sale_mode": ("producer-set", "producer-set", "auction"),
        "fixed_price": (7, 7, -1),
        "forfeiture": ("burn", ForfeiturePolicy.Burn, "keep"),
    },
    "verification": {
        "alpha": (0.6, 0.6, 1.5),
        "tau": (0.4, 0.4, 0.0),
        "trust_threshold": (20, 20, 101),
        "delta_valid": (3, 3, 0.5),
        "delta_invalid": (-5, -5, 0.5),
        "delta_majority_vote": (2, 2, 0.5),
        "delta_minority_vote": (-1, -1, 0.5),
        "initial_score": (60, 60, 0),
    },
    "mining": {"window_rounds": (4, 4, 0), "min_support": (5, 5, 1), "min_overlap": (2, 2, 0)},
    "utility": {"sharing_risk_cost": (2, 2, -1), "consumption_benefit": (3, 3, -1), "window": (7, 7, 0)},
    "strategy": {
        "kind": ("FalseSharer", StrategyKind.FalseSharer, "Mystery"),
        "share_rate": (0.25, 0.25, -0.1),
        "fabrication_rate": (0.5, 0.5, 2),
        "flood_multiplier": (4, 4, 0),
        "p_acc": (0.9, 0.9, 1.01),
        "consume_rate": (0.3, 0.3, "often"),
        "utility_responsive": (True, True, 1),
        "sale_price": (8, 8, -1),
    },
}

FIELDS = [(section, name) for section, cls in SECTIONS.items() for name in cls._fields]
FIELD_IDS = [f"{section}.{name}" for section, name in FIELDS]


def raw_with_section(section, values):
    """MINIMAL with `values` as the given section: for "strategy", the
    producer's strategy, kind HonestProducer unless given."""
    raw = yaml.safe_load(MINIMAL)
    if section == "strategy":
        raw["agents"][4]["strategy"] = {"kind": "HonestProducer", **values}
    else:
        raw[section] = values
    return raw


def parse_section(section, values):
    config = parse_config(raw_with_section(section, values))
    return config.agents[4].strategy if section == "strategy" else getattr(config, section)


def test_samples_cover_every_section_field():
    assert {s: list(v) for s, v in SAMPLES.items()} == {s: names(cls) for s, cls in SECTIONS.items()}


@pytest.mark.parametrize("section, name", FIELDS, ids=FIELD_IDS)
def test_absent_key_reads_as_the_dataclass_default(section, name):
    """An absent key reads as the default the section's named tuple declares."""
    defaults = SECTIONS[section]._field_defaults
    if name not in defaults:
        raw = yaml.safe_load(MINIMAL)
        raw["agents"][4]["strategy"] = {"share_rate": 0.5}
        assert invalid_field(raw).field == f"agents[4].strategy.{name}"
        return
    parsed = parse_section(section, {})
    assert getattr(parsed, name) == defaults[name]


@pytest.mark.parametrize("section, name", FIELDS, ids=FIELD_IDS)
def test_present_key_is_accepted(section, name):
    value, expected, _ = SAMPLES[section][name]
    assert getattr(parse_section(section, {name: value}), name) == expected


@pytest.mark.parametrize("section, name", FIELDS, ids=FIELD_IDS)
def test_invalid_value_is_rejected_naming_the_field(section, name):
    bad = SAMPLES[section][name][2]
    where = "agents[4].strategy" if section == "strategy" else section
    assert invalid_field(raw_with_section(section, {name: bad})).field == f"{where}.{name}"


@pytest.mark.parametrize("section, key", [("economics", "fixed_price"), ("strategy", "sale_price")])
def test_null_price_reads_as_unset(section, key):
    assert getattr(parse_section(section, {key: None}), key) is None


def test_every_check_belongs_to_a_field():
    parsed = (ScenarioConfig, AgentSpec, AccessSpec, *SECTIONS.values())
    assert set(config_module._CHECKS) == {name for cls in parsed for name in names(cls)}


def test_default_accuracy_by_kind_yields_to_explicit_p_acc():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][1]["strategy"] = {"kind": "NoisyVerifier", "p_acc": 0.3}
    assert parse_config(raw).agents[1].strategy.p_acc == 0.3


# --- the cli docstring's key lists match the named tuples -----------------------

def documented(text):
    """Names in a comma list, with parenthesised notes and "and" dropped."""
    text = re.sub(r"\([^)]*\)", "", " ".join(text.split()))
    return [name.strip() for name in text.replace(" and ", ", ").split(",") if name.strip()]


def cli_section_comments():
    """The comment after each top-level key of the cli docstring's example,
    continuation lines joined."""
    out, current = {}, None
    for line in cli.__doc__.splitlines():
        head = re.match(r" {4}(\w+):\s+#\s?(.*)", line)
        more = re.match(r"\s+#\s?(.*)", line)
        if head:
            current = head.group(1)
            out[current] = head.group(2)
        elif more and current:
            out[current] += " " + more.group(1)
        else:
            current = None
    return out


@pytest.mark.parametrize(
    "section, cls",
    [("economics", EconomicsConfig), ("verification", VerificationPolicy), ("access", AccessSpec),
     ("mining", MiningParams), ("utility", UtilityModel)],
)
def test_cli_doc_lists_each_sections_keys(section, cls):
    assert documented(cli_section_comments()[section]) == names(cls)


def test_cli_doc_lists_strategy_kinds_and_parameters():
    kinds = re.search(r"Strategy kinds: (.*?);", cli.__doc__, re.S).group(1)
    assert documented(kinds) == [k.value for k in StrategyKind]
    params = re.search(r"parameters are (.*?)\.\n", cli.__doc__, re.S).group(1)
    assert documented(params) == [n for n in names(AgentStrategy) if n != "kind"]


def test_config_doc_lists_top_level_keys():
    keys = re.search(r"Top-level keys: (.*?)\.", config_module.__doc__, re.S).group(1)
    assert sorted(documented(keys)) == sorted(names(ScenarioConfig))
