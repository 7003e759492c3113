import csv
import json
import shutil
import subprocess

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ctisim.cli import _json_text, main
from ctisim.config import load_config
from ctisim.simulation import run_scenario
from tests.conftest import SCENARIO_DIR
from tests.test_config import REVOCABLE_AUTHORITIES

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
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli("run", "--config", DOI, "--out", str(out_a), "--seed", "123")
    monkeypatch.setenv("CTISIM_SEED", "123")
    run_cli("run", "--config", DOI, "--out", str(out_b))
    monkeypatch.delenv("CTISIM_SEED")
    run_cli("run", "--config", DOI, "--out", str(out_c))
    assert (out_a / "chain.json").read_bytes() == (out_b / "chain.json").read_bytes()
    assert (out_a / "chain.json").read_bytes() != (out_c / "chain.json").read_bytes()


def test_json_metrics_format(tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--config", DOI, "--out", str(out), "--format", "json")
    rows = json.loads((out / "metrics.json").read_text())
    assert len(rows) == 10 * 6
    assert set(rows[0]) == {
        "round", "agent", "reputation", "balance", "shares",
        "verified", "rejected", "consumes", "forfeited", "utility",
    }


def test_json_metrics_rows_equal_csv_rows(tmp_path):
    csv_out, json_out = tmp_path / "csv", tmp_path / "json"
    run_cli("run", "--config", DOI, "--out", str(csv_out))
    run_cli("run", "--config", DOI, "--out", str(json_out), "--format", "json")
    with open(csv_out / "metrics.csv", newline="") as fh:
        header, *csv_rows = list(csv.reader(fh))
    json_rows = json.loads((json_out / "metrics.json").read_text())
    assert csv_rows and len(json_rows) == len(csv_rows)
    for obj, row in zip(json_rows, csv_rows):
        assert list(obj) == header
        assert [str(v) for v in obj.values()] == row


# --- the JSON writer against json.dumps(indent=2) --------------------------------

json_strings = st.text() | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\x7f\t\n\r\b\f", "caf\u00e9", "\u2028\uffff",
     "\U0001f600", "\ud800", ""]
)
json_numbers = (
    st.integers()
    | st.sampled_from([2**64, 2**64 + 1, -(2**65), 10**40, -1, 0])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308,
                       float("nan"), float("inf"), float("-inf")])
)
json_values = st.recursive(
    st.none() | st.booleans() | json_numbers | json_strings,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(json_strings, children, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(value=json_values)
def test_json_writer_matches_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{}, [], (), {"a": {}}, [[], {}], {"k": [[]]}])
def test_json_writer_empty_containers(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1: "int key"}, {"k": b"bytes"}, {"k": {1, 2}}])
def test_json_writer_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize("scenario", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
def test_json_outputs_equal_json_dumps_of_the_run(scenario, tmp_path, monkeypatch):
    monkeypatch.delenv("CTISIM_SEED", raising=False)
    path = str(SCENARIO_DIR / f"{scenario}.yaml")
    result = run_scenario(load_config(path))
    out = tmp_path / "out"
    assert run_cli("run", "--config", path, "--out", str(out), "--format", "json") == 0
    rows = result.metrics.to_obj()
    assert rows
    assert (out / "metrics.json").read_text(encoding="utf-8") == json.dumps(rows, indent=2) + "\n"
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


def test_agent_name_with_a_comma_exits_one(tmp_path, capsys):
    raw = yaml.safe_load((SCENARIO_DIR / "blocis-baseline.yaml").read_text())
    index = next(i for i, a in enumerate(raw["agents"]) if a["name"] == "verifier-1")
    raw["agents"][index]["name"] = "acme, inc"
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw))
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert f"agents[{index}].name" in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics.csv").exists()


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_every_metrics_csv_row_is_as_wide_as_its_header(tmp_path, path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--out", str(out)) == 0
    with open(out / "metrics.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows and all(len(row) == len(header) for row in rows)


def test_unreadable_config_exits_two(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)) == 2


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
    dump[1]["timestamp"] = 2**64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dump, indent=2) + "\n")
    assert run_cli("verify-chain", "--chain", str(bad)) == 2
    assert "cannot load chain" in capsys.readouterr().err


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


@pytest.mark.parametrize("values", ["[", "1,{a: 1"])
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
