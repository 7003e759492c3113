import csv
import gc
import json
import shutil
import subprocess

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ctisim import cli
from ctisim.cli import main
from ctisim.config import MAX_YAML_NODES, apply_override, load_config, parse_config
from ctisim.simulation import json_scalar, run_scenario, summary_json
from tests.conftest import SCENARIO_DIR
from tests.test_config import MINIMAL, REVOCABLE_AUTHORITIES, SAMPLES

BASELINE = str(SCENARIO_DIR / "blocis-baseline.yaml")
DOI = str(SCENARIO_DIR / "doi-flood.yaml")
TLP = str(SCENARIO_DIR / "tlp-demo.yaml")


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_all_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--config", DOI, "--out", str(out)) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "chain.json").exists()
    printed = capsys.readouterr().out
    assert "verified=" in printed


def test_metrics_row_count_is_rounds_times_agents(tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--config", DOI, "--out", str(out))
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "round,agent,reputation,balance,shares,verified,rejected,consumes,forfeited,utility"
    assert len(lines) - 1 == 10 * 6  # rounds x agents


def test_run_twice_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("run", "--config", BASELINE, "--out", str(out_a))
    run_cli("run", "--config", BASELINE, "--out", str(out_b))
    for name in ("metrics.csv", "summary.json", "chain.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_flag_and_env_override(tmp_path, monkeypatch):
    """--seed overrides the config seed; no environment variable does."""
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli("run", "--config", DOI, "--out", str(out_a), "--seed", "123")
    run_cli("run", "--config", DOI, "--out", str(out_b))
    monkeypatch.setenv("CTISIM_SEED", "123")
    run_cli("run", "--config", DOI, "--out", str(out_c))
    assert (out_a / "chain.json").read_bytes() != (out_b / "chain.json").read_bytes()
    assert (out_b / "chain.json").read_bytes() == (out_c / "chain.json").read_bytes()


# --- the summary writer against json.dumps(indent=2) ------------------------------

json_strings = st.text() | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\x7f\t\n\r\b\f", "caf\u00e9", "\u2028\uffff",
     "\U0001f600", "\ud800", ""]
)
json_ints = st.integers() | st.sampled_from([2**64, 2**64 + 1, -(2**65), 10**40, -1, 0])
json_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]
)
json_scalars = st.none() | st.booleans() | json_ints | json_floats | json_strings

AGENT_KEYS = ("reputation", "balance", "revoked", "revoked_round", "rejected_actions", "total_utility")
AGGREGATE_KEYS = (
    "total_submissions", "total_verified", "total_rejected", "verified_fabricated", "poisoning_rate",
    "revoked_agents", "verifier_forfeit_income", "escrow", "held", "burned", "total_supply", "minted",
    "campaigns",
)


def ordered(fields):
    """Dicts of the drawn values, with their keys in the order of `fields`."""
    return st.fixed_dictionaries(fields).map(lambda drawn: {key: drawn[key] for key in fields})


def scalar_row(keys):
    return ordered({key: json_scalars for key in keys})


# each field drawn from the values its slot may hold: a string, an integer,
# a float or null, an integer or null; the agents, votes and aggregates
# are objects of any scalars
summaries = ordered({
    "scenario": json_strings,
    "rounds": json_ints,
    "seed": json_ints,
    "agents": st.dictionaries(json_strings, scalar_row(AGENT_KEYS), max_size=3),
    "contracts": st.lists(ordered({
        "contract_id": json_strings,
        "producer": json_strings,
        "status": json_strings,
        "pi_score": st.none() | json_floats,
        "deposit": json_ints,
        "deposit_state": json_strings,
        "verification_fee": json_ints,
        "sale_price": st.none() | json_ints,
        "created_round": json_ints,
        "finalized_round": st.none() | json_ints,
        "votes": st.dictionaries(json_strings, json_scalars, max_size=3),
    }), max_size=3),
    "campaigns": st.lists(ordered({
        "campaign_id": json_strings,
        "member_records": st.lists(json_strings, max_size=3),
        "shared_indicators": st.lists(json_strings, max_size=3),
        "window": st.lists(json_ints, max_size=2),
        "support": json_ints,
    }), max_size=2),
    "aggregates": scalar_row(AGGREGATE_KEYS),
})


def summary_shaped(**changes):
    """A summary with one agent, contract and campaign, then `changes`."""
    summary = {
        "scenario": "s", "rounds": 1, "seed": 2,
        "agents": {"a": dict.fromkeys(AGENT_KEYS, 0)},
        "contracts": [{
            "contract_id": "00", "producer": "a", "status": "Pending", "pi_score": None, "deposit": 1,
            "deposit_state": "Held", "verification_fee": 1, "sale_price": None, "created_round": 1,
            "finalized_round": None, "votes": {"v": "HighQuality"},
        }],
        "campaigns": [{"campaign_id": "01", "member_records": ["00"], "shared_indicators": ["x"],
                       "window": [1, 2], "support": 2}],
        "aggregates": dict.fromkeys(AGGREGATE_KEYS, 0),
    }
    summary.update(changes)
    return summary


def with_contract(**changes):
    return summary_shaped(contracts=[{**summary_shaped()["contracts"][0], **changes}])


@settings(max_examples=400, deadline=None)
@given(value=json_scalars)
def test_json_scalar_matches_json_dumps(value):
    assert json_scalar(value) == json.dumps(value)


@settings(max_examples=400, deadline=None)
@given(value=summaries)
def test_json_writer_matches_json_dumps_indent_2(value):
    assert summary_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    summary_shaped(agents={}),
    summary_shaped(contracts=[]),
    summary_shaped(campaigns=[]),
    with_contract(votes={}),
    summary_shaped(campaigns=[{"campaign_id": "01", "member_records": [], "shared_indicators": [],
                               "window": [], "support": 0}]),
    summary_shaped(agents={"a": {}}, contracts=[], campaigns=[], aggregates={}),
])
def test_json_writer_empty_containers(value):
    assert summary_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    summary_shaped(agents={1: dict.fromkeys(AGENT_KEYS, 0)}),
    with_contract(votes={"v": b"bytes"}),
    summary_shaped(aggregates={"k": {1, 2}}),
])
def test_json_writer_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        summary_json(value)


@pytest.mark.parametrize("scenario", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
def test_json_outputs_equal_json_dumps_of_the_run(scenario, tmp_path):
    path = str(SCENARIO_DIR / f"{scenario}.yaml")
    result = run_scenario(load_config(path))
    out = tmp_path / "out"
    assert run_cli("run", "--config", path, "--out", str(out)) == 0
    assert (out / "summary.json").read_text(encoding="utf-8") == json.dumps(result.summary, indent=2) + "\n"


def test_missing_rounds_field_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nseed: 1\nagents:\n  - {name: a, roles: [Authority]}\n")
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert "rounds" in capsys.readouterr().err


@pytest.mark.parametrize("raw", REVOCABLE_AUTHORITIES.values(), ids=REVOCABLE_AUTHORITIES.keys())
def test_revocable_authority_exits_one(tmp_path, capsys, raw):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw))
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert "agents[0].roles" in capsys.readouterr().err


def test_authority_running_a_producer_strategy_is_refused_each_round(tmp_path, capsys):
    # an Authority without the Producer role submitting fabrications was
    # revoked by its rejections, and the next seal had no authority to sign it
    raw = {
        "name": "authority-false-sharer", "rounds": 40, "seed": 7,
        "agents": [
            {"name": "auth", "roles": ["Authority"],
             "strategy": {"kind": "FalseSharer", "share_rate": 1.0, "fabrication_rate": 1.0}},
            *({"name": f"verifier-{i}", "roles": ["Verifier"], "strategy": {"kind": "HonestVerifier"}}
              for i in range(1, 4)),
        ],
    }
    config, out = tmp_path / "config.yaml", tmp_path / "o"
    config.write_text(yaml.safe_dump(raw))
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
    assert "Traceback" not in capsys.readouterr().err
    auth = json.loads((out / "summary.json").read_text())["agents"]["auth"]
    assert (auth["revoked"], auth["rejected_actions"]) == (False, 40)
    assert run_cli("verify-chain", "--chain", str(out / "chain.json")) == 0


def test_agent_name_with_a_comma_exits_one(tmp_path, capsys):
    raw = yaml.safe_load((SCENARIO_DIR / "blocis-baseline.yaml").read_text())
    index = next(i for i, a in enumerate(raw["agents"]) if a["name"] == "verifier-1")
    raw["agents"][index]["name"] = "acme, inc"
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw))
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert f"agents[{index}].name" in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics.csv").exists()


def test_an_access_label_no_record_can_carry_exits_one_and_writes_nothing(tmp_path, capsys):
    raw = yaml.safe_load((SCENARIO_DIR / "tlp-demo.yaml").read_text())
    for agent in raw["agents"]:
        agent.pop("access", None)
    raw["access"] = {"tlp": "green", "designated": ["consumer-a"]}
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw))
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == "error: access.designated: Green must not carry a designated set\n"
    assert not (tmp_path / "o").exists()


# Every integer a config bounds below: the chain writes each as, or into, an
# unsigned 64-bit field. The producer `p` is MINIMAL's agents[4].
UINT_FIELDS = [
    "rounds", "agents.p.endowment",
    "economics.base_fee", "economics.period_rounds", "economics.discount_per_hq", "economics.deposit",
    "economics.verification_fee", "economics.fixed_price",
    "mining.window_rounds", "mining.min_support", "mining.min_overlap",
    "utility.sharing_risk_cost", "utility.consumption_benefit", "utility.window",
    "agents.p.strategy.flood_multiplier", "agents.p.strategy.sale_price",
]


@pytest.mark.parametrize("key", UINT_FIELDS)
def test_an_integer_past_64_bits_exits_one_and_writes_nothing(tmp_path, capsys, key):
    field = key.replace("agents.p", "agents[4]")
    raw = yaml.safe_load(MINIMAL)
    assert parse_config(apply_override(raw, key, 2**64 - 1))
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(apply_override(raw, key, 2**64)))
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {field}: must be <= {2**64 - 1}\n"
    assert not (tmp_path / "o").exists()


UNBOUNDED_FIELDS = [
    "seed", "verification.delta_valid", "verification.delta_invalid",
    "verification.delta_majority_vote", "verification.delta_minority_vote",
]


@pytest.mark.parametrize("key", UNBOUNDED_FIELDS)
def test_seeds_and_deltas_stay_unbounded(key):
    raw = yaml.safe_load(MINIMAL)
    for value in (2**64, -(2**64)):
        assert parse_config(apply_override(raw, key, value))


def test_every_integer_field_is_a_uint_field_unbounded_or_a_score():
    integer = {"rounds", "seed", "agents.p.endowment"} | {
        f"{'agents.p.strategy' if section == 'strategy' else section}.{name}"
        for section, samples in SAMPLES.items()
        for name, (value, _, _) in samples.items()
        if type(value) is int
    }
    scores = {"verification.trust_threshold", "verification.initial_score"}  # bounded by 100
    assert integer == set(UINT_FIELDS) | set(UNBOUNDED_FIELDS) | scores


def aliased(key, levels, width):
    """A `key` of `levels` nested lists, each of `width` aliases of the
    last: a few hundred bytes of YAML that `str` reads as width**levels."""
    lines = [f"{key}:", "  - &l0 [" + ", ".join(["xxxxxxxx"] * width) + "]"]
    for i in range(1, levels):
        lines.append(f"  - &l{i} [" + ", ".join([f"*l{i - 1}"] * width) + "]")
    return "\n".join(lines) + "\n"


def doi_flood_with(key, text):
    """doi-flood's config with its `key` line replaced by `text`."""
    lines = (SCENARIO_DIR / "doi-flood.yaml").read_text().splitlines()
    return "\n".join(line for line in lines if not line.startswith(f"{key}:")) + "\n" + text


def test_an_aliased_name_exits_one_and_writes_nothing(tmp_path, capsys):
    # 4 levels: 12,347 nodes, under MAX_YAML_NODES, so `_text` refuses it
    bad = tmp_path / "bad.yaml"
    bad.write_text(doi_flood_with("name", aliased("name", 4, 10)))
    assert bad.stat().st_size < 2000
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == "error: name: expected a scalar, got a list\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["run", "sweep"])
def test_a_config_or_values_past_the_node_bound_exits_one_briefly(tmp_path, capsys, case):
    # `rounds` of 5 levels of 10 aliases expands a 1,343-byte config to
    # 123,549 nodes: refused whole, before any check could repr the value
    out = tmp_path / "o"
    if case == "run":
        bad = tmp_path / "bad.yaml"
        bad.write_text(doi_flood_with("rounds", aliased("rounds", 5, 10)))
        assert bad.stat().st_size < 2000
        argv, name = ["run", "--config", str(bad), "--out", str(out)], "config"
    else:
        values = ", ".join(line[4:] for line in aliased("v", 5, 10).splitlines()[1:])
        argv = ["sweep", "--config", DOI, "--param", "rounds", "--values", values, "--out", str(out)]
        name = "--values"
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {name}: expands to more than {MAX_YAML_NODES:,} nodes\n"
    assert not out.exists()


@pytest.mark.parametrize("where, value, field, kind", [
    ("attributes", [["ICS-ISAC", "gov"]], "attributes", "list"),
    ("access", {"tlp": "orange", "designated": [{"consumer-a": None}]}, "access.designated", "mapping"),
], ids=["list-tag", "mapping-designated"])
def test_a_tag_or_designated_entry_that_is_not_a_scalar_exits_one(tmp_path, capsys, where, value, field, kind):
    raw = yaml.safe_load((SCENARIO_DIR / "tlp-demo.yaml").read_text())
    index = next(i for i, a in enumerate(raw["agents"]) if a["name"] == "prod-orange")
    raw["agents"][index][where] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw))
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: agents[{index}].{field}: expected a scalar, got a {kind}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_every_metrics_csv_row_is_as_wide_as_its_header(tmp_path, path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--out", str(out)) == 0
    with open(out / "metrics.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows and all(len(row) == len(header) for row in rows)


def test_unreadable_config_exits_two(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)) == 2


@pytest.mark.parametrize(
    "argv",
    [["run"], ["bogus"], ["run", "--config", "x", "--seed", "x"]],
    ids=["run-without-config", "unknown-command", "seed-not-an-integer"],
)
def test_a_usage_error_exits_one_with_its_usage_message(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ctisim") and "error: " in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--help"])
    assert exit_.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
def test_main_pauses_the_collector_and_restores_the_callers_state(tmp_path, capsys, monkeypatch, enabled):
    paused = []

    def spy(config):
        paused.append(not gc.isenabled())
        return run_scenario(config)

    monkeypatch.setattr(cli, "run_scenario", spy)
    out, bad = tmp_path / "out", tmp_path / "bad.yaml"
    bad.write_text("name: x\n")
    caller = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    codes, states = [], []
    try:
        codes.append(main(["run", "--config", DOI, "--out", str(out)]))
        states.append(gc.isenabled())
        dump = json.loads((out / "chain.json").read_text())
        payload = dump[1]["transactions"][0]["payload"]
        dump[1]["transactions"][0]["payload"] = ("0" if payload[0] != "0" else "1") + payload[1:]
        (tmp_path / "tampered.json").write_text(json.dumps(dump))
        for argv in (
            ["run", "--config", str(bad), "--out", str(tmp_path / "o")],
            ["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")],
            ["verify-chain", "--chain", str(tmp_path / "tampered.json")],
        ):
            codes.append(main(argv))
            states.append(gc.isenabled())
        with pytest.raises(SystemExit) as usage:
            main(["run"])
        codes.append(usage.value.code)
        states.append(gc.isenabled())
    finally:
        gc.enable() if caller else gc.disable()
    assert codes == [0, 1, 2, 3, 1]
    assert states == [enabled] * len(codes)
    assert paused == [True]


def test_verify_chain_accepts_fresh_dump(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("run", "--config", DOI, "--out", str(out))
    assert run_cli("verify-chain", "--chain", str(out / "chain.json")) == 0
    assert "VALID" in capsys.readouterr().out


def test_verify_chain_flags_single_byte_edit(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("run", "--config", DOI, "--out", str(out))
    dump = json.loads((out / "chain.json").read_text())
    # flip one hex character inside a committed payload
    victim_height = 1
    payload = dump[victim_height]["transactions"][0]["payload"]
    flipped = ("0" if payload[0] != "0" else "1") + payload[1:]
    dump[victim_height]["transactions"][0]["payload"] = flipped
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(dump))
    assert run_cli("verify-chain", "--chain", str(tampered)) == 3
    assert f"first_bad_height={victim_height}" in capsys.readouterr().out


def test_verify_chain_truncated_file_exits_two(tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--config", DOI, "--out", str(out))
    text = (out / "chain.json").read_text()
    truncated = tmp_path / "trunc.json"
    truncated.write_text(text[: len(text) // 2])
    assert run_cli("verify-chain", "--chain", str(truncated)) == 2


def test_verify_chain_out_of_range_header_integer_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("run", "--config", TLP, "--out", str(out))
    dump = json.loads((out / "chain.json").read_text())
    dump[1]["height"] = 2**64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dump, indent=2) + "\n")
    assert run_cli("verify-chain", "--chain", str(bad)) == 2
    assert "cannot load chain" in capsys.readouterr().err


def test_verify_chain_of_a_dump_with_an_access_grant_exits_two(tmp_path, capsys):
    """A dump an earlier version wrote, with the authority's AccessGrant
    after a Purchase, is refused by that kind's name, not verified."""
    out = tmp_path / "out"
    run_cli("run", "--config", DOI, "--out", str(out))
    dump = json.loads((out / "chain.json").read_text())
    dump[1]["transactions"][0]["kind"] = "AccessGrant"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(dump, indent=2) + "\n")
    assert run_cli("verify-chain", "--chain", str(old)) == 2
    err = capsys.readouterr().err
    assert "cannot load chain" in err and "'AccessGrant'" in err


def test_verify_chain_non_utf8_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "chain.json"
    bad.write_bytes(b"\xff\xfe[]\n")
    assert run_cli("verify-chain", "--chain", str(bad)) == 2
    assert "cannot load chain" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["run"], ["sweep", "--param", "seed", "--values", "1"]], ids=["run", "sweep"]
)
def test_non_utf8_config_exits_one(tmp_path, capsys, argv):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"\xff\xfename: x\n")
    assert run_cli(*argv, "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("drop_seed", [False, True], ids=["bundled", "no-seed-key"])
def test_run_seed_writes_the_bytes_of_the_sweep_leg(tmp_path, drop_seed):
    path = DOI
    if drop_seed:
        raw = yaml.safe_load((SCENARIO_DIR / "doi-flood.yaml").read_text())
        del raw["seed"]
        path = str(tmp_path / "no-seed.yaml")
        (tmp_path / "no-seed.yaml").write_text(yaml.safe_dump(raw))
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert run_cli("run", "--config", path, "--seed", "4", "--out", str(run_out)) == 0
    assert run_cli("sweep", "--config", path, "--param", "seed", "--values", "4", "--out", str(sweep_out)) == 0
    for name in ("chain.json", "summary.json", "metrics.csv"):
        assert (run_out / name).read_bytes() == (sweep_out / "seed=4" / name).read_bytes()
    assert json.loads((run_out / "summary.json").read_text())["seed"] == 4


def test_sweep_writes_nothing_when_a_later_value_does_not_parse(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("sweep", "--config", DOI, "--param", "seed", "--values", "1,2,x", "--out", str(out)) == 1
    assert "seed: expected an integer" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_no_output_file_when_a_leg_directory_cannot_be_made(tmp_path, capsys):
    out = tmp_path / "o"
    long_value = "x" * 300  # `name=` and 300 bytes pass the usual 255-byte name limit
    argv = ["--param", "name", "--values", f"short,{long_value}", "--out", str(out)]
    assert run_cli("sweep", "--config", DOI, *argv) == 2
    assert "File name too long" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_a_null_section_takes_overrides(tmp_path):
    raw = yaml.safe_load((SCENARIO_DIR / "doi-flood.yaml").read_text())
    raw["economics"] = None
    path = tmp_path / "null-economics.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert "economics: null" in path.read_text()
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "run")) == 0
    args = ["--param", "economics.deposit", "--values", "3,4", "--out", str(tmp_path / "sweep")]
    assert run_cli("sweep", "--config", str(path), *args) == 0
    for value in (3, 4):
        summary = json.loads((tmp_path / "sweep" / f"economics.deposit={value}" / "summary.json").read_text())
        assert {c["deposit"] for c in summary["contracts"]} == {value}


@pytest.mark.parametrize(
    "argv", [["run"], ["sweep", "--param", "seed", "--values", "1"]], ids=["run", "sweep"]
)
def test_a_config_that_is_not_a_mapping_exits_one(tmp_path, capsys, argv):
    bad = tmp_path / "list.yaml"
    bad.write_text("- name: x\n- rounds: 3\n")
    assert run_cli(*argv, "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == "error: config: top level must be a mapping\n"
    assert not (tmp_path / "o").exists()


def test_sweep_writes_leg_dirs_and_csv(tmp_path):
    out = tmp_path / "sweep"
    rc = run_cli(
        "sweep", "--config", DOI,
        "--param", "agents.flooder.strategy.flood_multiplier",
        "--values", "1,2,3", "--out", str(out),
    )
    assert rc == 0
    legs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(legs) == 3
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("param,value,")


def test_sweep_over_zero_rounds_writes_a_full_row(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", DOI, "--param", "rounds", "--values", "0,1", "--out", str(out)) == 0
    zero, one = csv.DictReader((out / "sweep.csv").read_text().splitlines())
    assert zero.keys() == one.keys() and None not in zero.values()
    assert zero["total_supply"] == str(sum(spec.endowment for spec in load_config(DOI).agents))
    assert (zero["total_submissions"], zero["campaigns"], zero["poisoning_rate"]) == ("0", "0", "0.0")
    capsys.readouterr()
    assert run_cli("verify-chain", "--chain", str(out / "rounds=0" / "chain.json")) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_sweep_ignores_seed_env(tmp_path, monkeypatch):
    args = ["sweep", "--config", DOI, "--param", "verification.alpha", "--values", "0.6,0.8"]
    plain, with_env = tmp_path / "plain", tmp_path / "env"
    assert run_cli(*args, "--out", str(plain)) == 0
    monkeypatch.setenv("CTISIM_SEED", "123")
    assert run_cli(*args, "--out", str(with_env)) == 0
    assert (plain / "sweep.csv").read_bytes() == (with_env / "sweep.csv").read_bytes()
    for leg in sorted(p.name for p in plain.iterdir() if p.is_dir()):
        for name in ("metrics.csv", "summary.json", "chain.json"):
            assert (plain / leg / name).read_bytes() == (with_env / leg / name).read_bytes()


def test_sweep_unknown_key_exits_one(tmp_path):
    rc = run_cli(
        "sweep", "--config", DOI,
        "--param", "economics.not_a_key", "--values", "1,2",
        "--out", str(tmp_path / "s"),
    )
    assert rc == 1


@pytest.mark.parametrize("values", ["[", "1,{a: 1", "1,,2"])
def test_sweep_values_that_are_not_yaml_exit_one(tmp_path, capsys, values):
    out = tmp_path / "s"
    assert run_cli("sweep", "--config", DOI, "--param", "seed", "--values", values, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --values: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "values, first, second",
    [("a/b,a_b", "a/b", "a_b"), ("1,1", "1", "1"), ("x,a:b,a_b", "a:b", "a_b")],
    ids=["separator", "repeat", "colon"],
)
def test_sweep_legs_that_share_a_directory_are_refused(tmp_path, capsys, values, first, second):
    out = tmp_path / "s"
    assert run_cli("sweep", "--config", DOI, "--param", "name", "--values", values, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --values: ")
    assert f"{first!r} and {second!r}" in err
    assert not out.exists()


def test_sweep_over_lists_writes_a_leg_per_list_and_quotes_them(tmp_path):
    out = tmp_path / "s"
    rc = run_cli(
        "sweep", "--config", DOI, "--param", "agents.flooder.attributes",
        "--values", "[a,b],[c]", "--out", str(out),
    )
    assert rc == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
        "agents.flooder.attributes=['a', 'b']",
        "agents.flooder.attributes=['c']",
    ]
    text = (out / "sweep.csv").read_text()
    header, first, second = text.splitlines()
    assert header.startswith("param,value,")
    # a value holding a comma is quoted; one without keeps its bare bytes
    assert first.startswith("agents.flooder.attributes,\"['a', 'b']\",")
    assert second.startswith("agents.flooder.attributes,['c'],")
    assert [row[1] for row in csv.reader(text.splitlines()[1:])] == ["['a', 'b']", "['c']"]
    for leg in ("['a', 'b']", "['c']"):
        assert (out / f"agents.flooder.attributes={leg}" / "summary.json").exists()


def test_parallel_sweep_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ["--config", DOI, "--param", "verification.alpha", "--values", "0.6,0.8,1.0"]
    assert run_cli("sweep", *args, "--out", str(serial)) == 0
    assert run_cli("sweep", *args, "--out", str(parallel), "--parallel") == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
    for leg in sorted(p.name for p in serial.iterdir() if p.is_dir()):
        for name in ("metrics.csv", "summary.json", "chain.json"):
            assert (serial / leg / name).read_bytes() == (parallel / leg / name).read_bytes()


def test_emitted_files_never_leak_hidden_oracle_fields(tmp_path):
    # run a scenario that definitely holds fabricated records and campaign
    # hints internally, then grep every emitted byte for the hidden tags,
    # including their hex encodings inside transaction payloads
    out = tmp_path / "out"
    run_cli("run", "--config", BASELINE, "--out", str(out))
    hidden_tokens = [b"ground_truth", b"campaign_hint", b"Genuine", b"Fabricated", b"camp-"]
    for name in ("chain.json", "metrics.csv", "summary.json"):
        blob = (out / name).read_bytes()
        for token in hidden_tokens:
            assert token not in blob, f"{token!r} leaked into {name}"
            assert token.hex().encode() not in blob, f"hex({token!r}) leaked into {name}"


def test_console_entry_point_runs(tmp_path):
    exe = shutil.which("ctisim")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "run", "--config", DOI, "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
