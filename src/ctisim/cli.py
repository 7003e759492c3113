"""Command line interface: run scenarios, verify chain dumps, sweep parameters.

Exit codes: 0 success, 1 invalid config or arguments, 2 I/O failure,
3 tampered chain. For `run`, the CTISIM_SEED environment variable overrides
the config seed and the --seed flag overrides both. `sweep` takes neither:
each leg runs at the config seed, or at the swept value when the swept key
is `seed`. Sweep legs run one after another in the order given; the
--parallel flag is still accepted but changes nothing. Each leg writes to
`<param>=<value>` under --out, with path separators and colons mapped to
`_`; values that map to the same directory are refused before any leg runs.

`summary.json` and `metrics.json` are written directly by `_json_text`,
byte-identical to `json.dumps(obj, indent=2)` plus a newline; `chain.json`
by `ledger.chain_to_json`, byte-identical in the same way.

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
    access:               # tlp, designated, policy (the scenario-wide default)
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
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

import yaml

from .config import apply_override, load_raw, parse_config
from .errors import ConfigInvalid, EncodingError
from .ledger import chain_from_json, chain_to_json, verify_chain
from .simulation import ScenarioResult, run_scenario

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


def _resolve_seed(cli_seed: Optional[int], config_seed: int) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("CTISIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigInvalid("CTISIM_SEED", f"not an integer: {env!r}") from None
    return config_seed


_INF = float("inf")


def _json_text(value: object) -> str:
    """The text `json.dumps(value, indent=2)` gives, written directly.

    On Python 3.11 `json.dumps` runs its pure-Python encoder whenever
    `indent` is set. This writes the same text in one recursive pass, with
    json's own ASCII string escaping, `int.__repr__` and `float.__repr__`
    (NaN and the infinities spelled as json spells them), and tuples as
    lists. Dict keys must be strings, as every key in the summary and the
    metrics is.
    """
    out: list[str] = []
    write = out.append

    def emit(value: object, newline: str) -> None:
        if isinstance(value, str):
            write(encode_basestring_ascii(value))
        elif value is None:
            write("null")
        elif value is True:
            write("true")
        elif value is False:
            write("false")
        elif isinstance(value, int):
            write(int.__repr__(value))
        elif isinstance(value, float):
            if value != value:
                write("NaN")
            elif value == _INF:
                write("Infinity")
            elif value == -_INF:
                write("-Infinity")
            else:
                write(float.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                write("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                write(sep)
                write(encode_basestring_ascii(key))
                write(": ")
                emit(item, inner)
                sep = "," + inner
            write(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                write("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                write(sep)
                emit(item, inner)
                sep = "," + inner
            write(newline + "]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    emit(value, "\n")
    return "".join(out)


def _write_outputs(result: ScenarioResult, out_dir: str, fmt: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "chain.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(chain_to_json(result.chain))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_text(result.summary) + "\n")
    if fmt == "json":
        with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_json_text(result.metrics.to_obj()) + "\n")
    else:
        with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(result.metrics.to_csv())


def _one_line_summary(result: ScenarioResult) -> str:
    agg = result.summary.get("aggregates", {})
    return (
        f"scenario={result.summary.get('scenario')} rounds={result.summary.get('rounds')} "
        f"seed={result.summary.get('seed')} verified={agg.get('total_verified', 0)} "
        f"rejected={agg.get('total_rejected', 0)} poisoning_rate={agg.get('poisoning_rate', 0.0)} "
        f"revoked={agg.get('revoked_agents', 0)} campaigns={agg.get('campaigns', 0)}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = parse_config(load_raw(args.config))
        seed = _resolve_seed(args.seed, config.seed)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    result = run_scenario(config, seed)
    try:
        _write_outputs(result, args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
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


def _run_sweep_leg(raw: dict, param: str, value, out_dir: str, fmt: str) -> dict:
    overridden = apply_override(raw, param, value)
    config = parse_config(overridden)
    result = run_scenario(config)
    _write_outputs(result, out_dir, fmt)
    agg = result.summary.get("aggregates", {})
    row = {"param": param, "value": value}
    for key in SWEEP_AGGREGATE_KEYS:
        row[key] = agg.get(key, 0)
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        raw = load_raw(args.config)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    texts = [v for v in args.values.split(",") if v != ""]
    values = []
    for text in texts:
        try:
            values.append(yaml.safe_load(text))
        except yaml.YAMLError as exc:
            reason = getattr(exc, "problem", None) or exc
            print(f"error: --values: {text!r} is not YAML: {reason}", file=sys.stderr)
            return 1
    if not values:
        print("error: --values must list at least one value", file=sys.stderr)
        return 1
    # every leg's directory is fixed before any leg runs, so two values that
    # would write the same directory are refused before anything is written
    legs: dict[str, str] = {}
    for text, value in zip(texts, values):
        name = f"{args.param}={value}".replace(os.sep, "_").replace(":", "_")
        if name in legs:
            print(
                f"error: --values: {legs[name]!r} and {text!r} both write {name}",
                file=sys.stderr,
            )
            return 1
        legs[name] = text

    try:
        rows = [
            _run_sweep_leg(raw, args.param, v, os.path.join(args.out, name), args.format)
            for v, name in zip(values, legs)
        ]
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
        columns = ["param", "value", *SWEEP_AGGREGATE_KEYS]
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in columns))
        with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write sweep.csv: {exc}", file=sys.stderr)
        return 2
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
    run_p.add_argument("--format", choices=("csv", "json"), default="csv", help="metrics format")
    run_p.set_defaults(func=cmd_run)

    vc_p = sub.add_parser("verify-chain", help="verify a chain.json dump")
    vc_p.add_argument("--chain", required=True, help="chain.json path")
    vc_p.set_defaults(func=cmd_verify_chain)

    sw_p = sub.add_parser("sweep", help="run a scenario over several values of one parameter")
    sw_p.add_argument("--config", required=True, help="scenario YAML file")
    sw_p.add_argument("--param", required=True, help="dotted config key, e.g. verification.alpha")
    sw_p.add_argument("--values", required=True, help="comma-separated values")
    sw_p.add_argument("--parallel", action="store_true", help="no effect: legs always run in order")
    sw_p.add_argument("--out", default="sweep-out", help="output directory")
    sw_p.add_argument("--format", choices=("csv", "json"), default="csv", help="metrics format")
    sw_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
