import pytest
import yaml

from ctisim.access_control import TlpChannel
from ctisim.config import apply_override, load_config, load_raw, parse_config
from ctisim.contracts import ForfeiturePolicy
from ctisim.errors import ConfigInvalid
from ctisim.identity import Role
from ctisim.simulation import StrategyKind

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
    assert config.access.channel is TlpChannel.Green
    assert config.access.policy is not None


def test_designated_names_must_exist():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][-1]["access"] = {"tlp": "red", "designated": ["nobody"]}
    with pytest.raises(ConfigInvalid):
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


# --- field types: a wrong type is a ConfigInvalid naming the field -------------

def invalid_field(raw):
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    return exc.value


@pytest.mark.parametrize("tau", ["abc", [1], "0.7"])
def test_tau_must_be_a_number(tau):
    raw = yaml.safe_load(MINIMAL)
    raw["verification"] = {"tau": tau}
    assert invalid_field(raw).field == "verification.tau"


def test_attributes_must_be_a_list():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][4]["attributes"] = "gov"
    assert invalid_field(raw).field == "agents[4].attributes"


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
    assert invalid_field(raw).field == "access.designated"


def test_policy_must_be_a_string():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][4]["access"] = {"tlp": "green", "policy": 5}
    assert invalid_field(raw).field == "agents[4].access.policy"


@pytest.mark.parametrize("section", ["economics", "verification", "access", "mining", "utility"])
def test_section_must_be_a_mapping(section):
    raw = yaml.safe_load(MINIMAL)
    raw[section] = 5
    assert invalid_field(raw).field == section


def test_agent_entry_must_be_a_mapping():
    raw = yaml.safe_load(MINIMAL)
    raw["agents"].append(7)
    assert invalid_field(raw).field == "agents[5]"


@pytest.mark.parametrize("key", ["strategy", "access"])
def test_agent_strategy_and_access_must_be_mappings(key):
    raw = yaml.safe_load(MINIMAL)
    raw["agents"][4][key] = "HonestProducer"
    assert invalid_field(raw).field == f"agents[4].{key}"
