"""Tests of the benchmark itself, at a tiny size.

Run from the repository root with `python -m pytest bench/test_bench.py`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from scenario import ScenarioParams, generate  # noqa: E402

TINY = ScenarioParams(
    producers=6,
    false_sharers=1,
    verifiers=4,
    consumers=4,
    rounds=8,
    consume_rate=0.5,
    priced_share=0.5,
    tlp="green",
    policy="(or gov ICS-ISAC)",
    window_rounds=10,
)
SEED = 3


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_ITERATIONS", 2)
    monkeypatch.setattr(run, "SWEEP_SEED_PAIRS", 1)
    monkeypatch.setattr(
        run,
        "WORKLOADS",
        {name: (kind, TINY if params else None) for name, (kind, params) in run.WORKLOADS.items()},
    )


def test_generator_is_deterministic_and_loadable(tmp_path):
    text = generate(TINY, SEED)
    assert text == generate(TINY, SEED)
    other = generate(TINY, SEED + 1)
    assert other != text
    assert other.replace(f"seed: {SEED + 1}\n", f"seed: {SEED}\n") == text

    run.import_ctisim()
    from ctisim.config import load_config

    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    config = load_config(str(path))
    assert config.seed == SEED
    assert config.rounds == TINY.rounds
    assert config.economics.sale_mode == "producer-set"
    assert len(config.agents) == 1 + TINY.verifiers + TINY.producers + TINY.false_sharers + TINY.consumers


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["bench"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_runs_in_both_modes_with_identical_outputs(tiny, workload):
    plain = run.run(workload, SEED, 0, traced=False)
    traced = run.run(workload, SEED, 0, traced=True)
    for result in (plain, traced):
        assert result["failed"] == 0
        assert result["attempted"] >= 2
    # tracing must not touch the RNG or the bytes written
    assert traced["fingerprint"] == plain["fingerprint"]
    assert set(plain["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    assert set(layers) == set(run.per_layer_units())
    assert layers["simulation.self_s"] >= 0
    assert layers["cli.self_s"] >= 0
    if workload == "audit-replay":
        campaigns = plain["fingerprint"]["counts"]["campaigns"]
        assert campaigns > 0
        assert layers["mining.verify_derivation.calls"] == campaigns
        assert layers["mining.verified_technical_records.calls"] == 1 + campaigns
        assert layers["ledger.verify_chain.s"] > 0
    else:
        assert layers["cli.main.calls"] >= 1
        assert layers["ledger.append_block.txs"] == plain["fingerprint"]["counts"]["txs"]
    assert (run.OUT_ROOT / f"{workload}-seed{SEED}-trace1" / "spans.json").is_file()


def test_same_seed_gives_same_outputs_across_runs(tiny):
    first = run.run("market-consume", SEED, 0, traced=False)
    second = run.run("market-consume", SEED, 0, traced=False)
    assert first["fingerprint"] == second["fingerprint"]


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path / "out")
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "market-consume", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert "correct" not in capsys.readouterr().out
