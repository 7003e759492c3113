"""Command line interface: run scenarios, verify chain dumps, sweep parameters.

Exit codes: 0 success, 1 invalid config or arguments, 2 I/O failure,
3 tampered chain; `main` maps a ConfigInvalid to 1 and an OSError to 2
for every command. A run's outputs depend on its config alone, and the
seed is one of its keys: `run --seed N` overrides the config's `seed` key
exactly as `sweep --param seed --values N` does for its leg, so the two
write the same bytes. `run` and each sweep leg take the same two steps:
build the config (raw YAML, overrides, `parse_config`), then run it and
write its outputs. --values is one YAML flow sequence: `1,2,3` sweeps three
numbers, `[a,b],[c]` two lists. Legs run one after another in the order
given; the --parallel flag is still accepted but changes nothing. Each leg
writes to `<param>=<value>` under --out, with path separators and colons
mapped to `_`. Every leg's directory and config are settled before any leg
runs, so values that map to the same directory, or a value the config
refuses, exit 1 with nothing written; then every leg's directory is made,
so a name the file system refuses exits 2 with no output file written.
`sweep.csv` quotes a value holding a comma or a quote. The config file
and --values are read by one YAML reader, `config.read_yaml`, which
refuses nesting deeper than `config.MAX_YAML_DEPTH`, or more than
`config.MAX_YAML_NODES` nodes with every alias expanded, with exit 1
before the YAML loader builds anything.

`summary.json` (`simulation.summary_json`), `chain.json` (`ledger.chain_to_json`)
and `metrics.csv` are each written from one template per row, the JSON files
byte-identical to `json.dumps(obj, indent=2)` plus a newline. Every summary,
zero rounds included, holds every agent and aggregate the output reads.

Scenario files are YAML with nested sections (see scenarios/ for complete
examples)::

    name: demo            # label echoed into summary.json
    rounds: 50            # action rounds; registrations happen at round 0
    seed: 42
    agents:               # one entry per stakeholder
      - name: authority               # unique; metrics.csv writes it bare, so no
                                      # comma, double quote or line break
        roles: [Authority]            # Producer | Consumer | Verifier | Authority
                                      # (an Authority is not also Producer or Verifier)
      - name: prod
        roles: [Producer, Consumer]
        attributes: [ICS-ISAC, gov]   # tags evaluated by access policies
        endowment: 100
        strategy: {kind: HonestProducer, share_rate: 0.5}
        access: {tlp: orange, designated: [ally], policy: "(and ICS-ISAC gov)"}
    economics:            # base_fee, period_rounds, discount_per_hq, deposit,
                          # verification_fee, sale_mode (none|fixed|producer-set),
                          # fixed_price, forfeiture (split|burn|hold)
    verification:         # alpha, tau, trust_threshold, delta_valid,
                          # delta_invalid, delta_majority_vote,
                          # delta_minority_vote, initial_score
    access:               # tlp, designated (one agent under red, one or
                          # more under orange, none under green or white),
                          # policy (the scenario-wide default)
    mining:               # window_rounds, min_support, min_overlap
    utility:              # sharing_risk_cost, consumption_benefit, window

Strategy kinds: HonestProducer, FreeRider, FalseSharer, DoIFlooder,
HonestVerifier, NoisyVerifier, LazyConsumer; parameters are share_rate,
fabrication_rate, flood_multiplier, p_acc, consume_rate, utility_responsive
and sale_price (used when sale_mode is producer-set).

Attribute policies are monotone s-expressions over attribute tags::

    policy   := tag | "(" ("and" | "or") policy+ ")"

e.g. ``(and ICS-ISAC (or critical-infra gov))``. A bare tag is a single
leaf; negation does not exist, so granting an attribute can only widen
access. Operators nest at most 32 deep.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Optional

import yaml

from .config import ScenarioConfig, apply_override, load_raw, parse_config, read_yaml
from .errors import ConfigInvalid, EncodingError
from .ledger import chain_from_json, chain_to_json, verify_chain
from .simulation import ScenarioResult, run_scenario, summary_json

SWEEP_AGGREGATE_KEYS = (
    "total_submissions",
    "total_verified",
    "total_rejected",
    "verified_fabricated",
    "poisoning_rate",
    "revoked_agents",
    "burned",
    "total_supply",
    "campaigns",
)


def _write_outputs(result: ScenarioResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "chain.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(chain_to_json(result.chain))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_json(result.summary))
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.metrics.to_csv())


def _one_line_summary(result: ScenarioResult) -> str:
    summary, agg = result.summary, result.summary["aggregates"]
    return (
        f"scenario={summary['scenario']} rounds={summary['rounds']} seed={summary['seed']} "
        f"verified={agg['total_verified']} rejected={agg['total_rejected']} "
        f"poisoning_rate={agg['poisoning_rate']} revoked={agg['revoked_agents']} campaigns={agg['campaigns']}"
    )


def _config(raw: dict, overrides: dict[str, object]) -> ScenarioConfig:
    """Step one of a run: the raw config, each dotted key overridden, parsed."""
    for key, value in overrides.items():
        raw = apply_override(raw, key, value)
    return parse_config(raw)


def _run(config: ScenarioConfig, out_dir: str) -> ScenarioResult:
    """Step two of a run: run the scenario and write its three outputs."""
    result = run_scenario(config)
    _write_outputs(result, out_dir)
    return result


def cmd_run(args: argparse.Namespace) -> int:
    overrides = {} if args.seed is None else {"seed": args.seed}
    result = _run(_config(load_raw(args.config), overrides), args.out)
    print(_one_line_summary(result))
    return 0


def cmd_verify_chain(args: argparse.Namespace) -> int:
    try:
        with open(args.chain, "r", encoding="utf-8") as fh:
            text = fh.read()
        chain = chain_from_json(text)
    except (OSError, UnicodeDecodeError, EncodingError) as exc:
        print(f"error: cannot load chain: {exc}", file=sys.stderr)
        return 2
    report = verify_chain(chain)
    if report.valid:
        print("VALID")
        return 0
    print(f"INVALID first_bad_height={report.first_bad_height} reason={report.reason}")
    return 3


def cmd_sweep(args: argparse.Namespace) -> int:
    raw = load_raw(args.config)
    # one YAML flow sequence, so a value may itself be a list or a mapping
    try:
        values = read_yaml("[" + args.values + "]", "--values")
    except yaml.YAMLError as exc:
        reason = getattr(exc, "problem", None) or exc
        print(f"error: --values: {args.values!r} is not YAML: {reason}", file=sys.stderr)
        return 1
    if not values:
        print("error: --values must list at least one value", file=sys.stderr)
        return 1
    # every leg's directory and config are fixed before any leg runs, so a
    # value that collides with another or does not parse writes nothing
    legs: dict[str, str] = {}
    for value in values:
        name = f"{args.param}={value}".replace(os.sep, "_").replace(":", "_")
        if name in legs:
            print(
                f"error: --values: {legs[name]!r} and {str(value)!r} both write {name}",
                file=sys.stderr,
            )
            return 1
        legs[name] = str(value)
    configs = [_config(raw, {args.param: value}) for value in values]
    # a directory name the file system refuses exits 2 before any leg writes
    for name in legs:
        os.makedirs(os.path.join(args.out, name), exist_ok=True)

    rows = []
    for value, name, config in zip(values, legs, configs):
        agg = _run(config, os.path.join(args.out, name)).summary["aggregates"]
        rows.append([args.param, value, *(agg[key] for key in SWEEP_AGGREGATE_KEYS)])
    with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        # csv quotes a field holding a comma, a quote or a line break
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param", "value", *SWEEP_AGGREGATE_KEYS])
        writer.writerows([str(field) for field in row] for row in rows)
    print(f"sweep complete: {len(rows)} legs in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctisim",
        description="Deterministic simulator of a blockchain-backed CTI sharing platform",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write metrics/summary/chain")
    run_p.add_argument("--config", required=True, help="scenario YAML file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.set_defaults(func=cmd_run)

    vc_p = sub.add_parser("verify-chain", help="verify a chain.json dump")
    vc_p.add_argument("--chain", required=True, help="chain.json path")
    vc_p.set_defaults(func=cmd_verify_chain)

    sw_p = sub.add_parser("sweep", help="run a scenario over several values of one parameter")
    sw_p.add_argument("--config", required=True, help="scenario YAML file")
    sw_p.add_argument("--param", required=True, help="dotted config key, e.g. verification.alpha")
    sw_p.add_argument("--values", required=True, help="comma-separated YAML values: 1,2,3 or [a,b],[c]")
    sw_p.add_argument("--parallel", action="store_true", help="no effect: legs always run in order")
    sw_p.add_argument("--out", default="sweep-out", help="output directory")
    sw_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
