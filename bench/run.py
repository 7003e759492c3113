#!/usr/bin/env python3
"""ctisim benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload campaign-scale --seed 1 --seconds 20 --trace 0

Each workload runs in this process through ctisim's public entry points
(`ctisim.cli.main`, `ctisim.ledger.chain_from_json` / `verify_chain`,
`ctisim.mining.mine_campaigns` / `verify_derivation`), imported from the
checkout's `src/`. Set-up is repeated `SETUP_REPEATS` times; then iterations
run until `--seconds` have passed. Every iteration is checked outside the
timed region. All times are host seconds.

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end ones (see bench/README.md). With `--trace 1` half the time
runs untraced and half with the spans of bench/tracing.py, and the metrics
are the per-layer ones plus the tracing overhead. The full result, the
generated scenario YAML and (traced) the spans of the last iteration are
written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

from scenario import ScenarioParams, generate  # noqa: E402
from tracing import Tracer, layer_metrics, metric_units, write_spans  # noqa: E402

SETUP_REPEATS = 3
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
SUBPROCESS_TIMEOUT_S = 170
# Times are reported at the host speed at which `reference_loop` takes this
# long.
REFERENCE_LOOP_S = 0.02

# Mining-bound: ~2.9k verified records, so the all-pairs scan in
# mining._components is the largest layer; no consumers, so no envelope or
# purchase work. 60 rounds rather than 100 keep an iteration near 2 s, so a
# run collects enough samples for a steady median.
CAMPAIGN_SCALE = ScenarioParams(
    producers=100, false_sharers=10, verifiers=10, consumers=0, rounds=60, window_rounds=10
)
# Consume-bound: ~13k purchases and as many free envelope reads, while
# mining sees only ~600 records. The mining window is 10, not 3: a window of
# 3 splits the three campaign hints into 5 to 8 campaigns depending on the
# seed, and audit-replay decodes the whole chain once per campaign, so its
# work would vary by seed; with 10 every seed gives 3 campaigns.
MARKET_CONSUME = ScenarioParams(
    producers=20,
    false_sharers=2,
    verifiers=10,
    consumers=100,
    rounds=60,
    consume_rate=0.5,
    priced_share=0.5,
    tlp="green",
    policy="(or gov ICS-ISAC)",
    window_rounds=10,
)
SWEEP_SEED_PAIRS = 2

WORKLOADS: dict[str, tuple[str, Optional[ScenarioParams]]] = {
    "campaign-scale": ("run", CAMPAIGN_SCALE),
    "market-consume": ("run", MARKET_CONSUME),
    "audit-replay": ("audit", MARKET_CONSUME),
    "bundled-sweep": ("sweep", None),
}
END_TO_END_UNITS = {"wall_s": "s", "tx_per_s": "tx/s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    """The traced run's metrics: the layers' and the tracing overhead."""
    return {**metric_units(), "trace.wall_s": "s", "trace.overhead_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Context:
    kind: str
    params: Optional[ScenarioParams]
    pkg: object
    work: Path
    scenario: Optional[Path] = None
    chain_path: Optional[Path] = None
    chain_sha256: str = ""
    scenarios: list[Path] = field(default_factory=list)
    seed_pairs: list[tuple[int, int]] = field(default_factory=list)
    # facts about output bytes already checked, keyed by their sha256
    seen: dict[str, dict] = field(default_factory=dict)


# -- host speed ----------------------------------------------------------------

class _Item:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str):
        self.key = key
        self.name = name


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop (objects, sets, dicts,
    hashing, JSON) that shares no code with ctisim.

    A shared host switches between a fast and a slow speed (the loop takes
    ~15 or ~25 ms) every few seconds, in proportions that drift over
    minutes, far more than the samples of one run average away. The loop is
    timed just before and after every set-up and iteration, and a run's
    iteration times are rescaled by REFERENCE_LOOP_S / (mean loop time of
    the run); a short set-up by the two loop timings around it. Both means
    estimate the run's time-averaged speed, so a drift of the host slows
    the loop and the workload alike and cancels, while a change to ctisim
    moves only the workload. Unscaled seconds are kept as well.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        items = [_Item(i, str(i)) for i in range(3000)]
        groups = [set(range(i % 7, i % 7 + 4)) for i in range(3000)]
        for i in range(0, 3000, 3):
            for j in range(i + 1, min(i + 40, 3000)):
                if abs(items[i].key - items[j].key) < 30 and groups[i] & groups[j]:
                    items[j].name = items[i].name
        digests = {item.key: hashlib.sha256(item.name.encode()).digest() for item in items}
        json.dumps([{"k": k, "v": v.hex()} for k, v in digests.items()])
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def timed(fn, probes: list[float]):
    """Run fn() between two timings of `reference_loop`, which are appended
    to `probes`; return its result and its host seconds."""
    probes.append(reference_loop())
    t0 = perf_counter()
    value = fn()
    elapsed = perf_counter() - t0
    probes.append(reference_loop())
    return value, elapsed


# -- set-up ------------------------------------------------------------------

def import_ctisim():
    """Import ctisim afresh from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ctisim" or m.startswith("ctisim.")]:
        del sys.modules[name]
    for name in ("ctisim", "ctisim.cli", "ctisim.errors", "ctisim.ledger", "ctisim.mining"):
        importlib.import_module(name)
    pkg = sys.modules["ctisim"]
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported ctisim from {pkg.__file__}, not from {SRC}")
    return pkg


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CTISIM_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup(kind: str, params: Optional[ScenarioParams], seed: int, work: Path) -> Context:
    """Import ctisim, generate and parse the scenario; audit-replay also
    writes the chain it audits (in a child process, so that run's memory
    does not count in this process's peak)."""
    pkg = import_ctisim()
    ctx = Context(kind=kind, params=params, pkg=pkg, work=work)
    if params is not None:
        ctx.scenario = work / "scenario.yaml"
        ctx.scenario.write_text(generate(params, seed), encoding="utf-8")
        pkg.config.load_config(str(ctx.scenario))
    if kind == "audit":
        source = work / "source"
        subprocess.run(
            [sys.executable, "-m", "ctisim.cli", "run", "--config", str(ctx.scenario), "--out", str(source)],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        ctx.chain_path = source / "chain.json"
        ctx.chain_sha256 = sha256_file(ctx.chain_path)
    if kind == "sweep":
        ctx.scenarios = sorted((ROOT / "scenarios").glob("*.yaml"))
        if not ctx.scenarios:
            raise BenchError(f"no bundled scenarios under {ROOT / 'scenarios'}")
        for path in ctx.scenarios:
            pkg.config.load_config(str(path))
        rng = random.Random(seed)
        ctx.seed_pairs = [
            (rng.randrange(1, 1_000_000), rng.randrange(1, 1_000_000)) for _ in range(SWEEP_SEED_PAIRS)
        ]
    return ctx


# -- one iteration (the timed region) ------------------------------------------

def iterate(ctx: Context):
    cli = ctx.pkg.cli
    if ctx.kind == "audit":
        ledger, mining = ctx.pkg.ledger, ctx.pkg.mining
        with open(ctx.chain_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        chain = ledger.chain_from_json(text)
        report = ledger.verify_chain(chain)
        campaigns = mining.mine_campaigns(chain, ctx.params.window_rounds, 3, 1)
        audits = [mining.verify_derivation(c, chain) for c in campaigns]
        return chain, report, campaigns, audits
    with contextlib.redirect_stdout(io.StringIO()):
        if ctx.kind == "run":
            return [cli.main(["run", "--config", str(ctx.scenario), "--out", str(ctx.work / "out")])]
        return [
            cli.main(
                [
                    "sweep",
                    "--config", str(path),
                    "--param", "seed",
                    "--values", f"{a},{b}",
                    "--parallel",
                    "--out", str(ctx.work / "out" / f"{path.stem}-{k}"),
                ]
            )
            for path in ctx.scenarios
            for k, (a, b) in enumerate(ctx.seed_pairs)
        ]


# -- checks (outside the timed region) --------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def chain_facts(ctx: Context, path: Path, digest: str) -> dict:
    """VALID verdict, head header hash and tx count of a chain.json; bytes
    already checked are not decoded again."""
    if digest not in ctx.seen:
        ledger = ctx.pkg.ledger
        with open(path, "r", encoding="utf-8") as fh:
            chain = ledger.chain_from_json(fh.read())
        ctx.seen[digest] = {
            "valid": ledger.verify_chain(chain).valid,
            "head": ledger.hash_header(chain.head).hex(),
            "txs": sum(len(b.transactions) for b in chain.blocks),
        }
    return ctx.seen[digest]


def run_dir_facts(ctx: Context, out: Path) -> tuple[dict, dict, list[str]]:
    """Digests and simulated counts of one `ctisim run` output directory."""
    digests = {name: sha256_file(out / name) for name in ("chain.json", "summary.json", "metrics.csv")}
    chain = chain_facts(ctx, out / "chain.json", digests["chain.json"])
    digests["head"] = chain["head"]
    agg = json.loads((out / "summary.json").read_text(encoding="utf-8"))["aggregates"]
    with open(out / "metrics.csv", "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        col = header.index("consumes")
        consumes = sum(int(line.split(",")[col]) for line in fh)
    counts = {
        "txs": chain["txs"],
        "verified": agg["total_verified"],
        "rejected": agg["total_rejected"],
        "revoked": agg["revoked_agents"],
        "campaigns": agg["campaigns"],
        "consumes": consumes,
    }
    problems = [] if chain["valid"] else [f"verify_chain is not VALID on {out / 'chain.json'}"]
    return digests, counts, problems


def check(ctx: Context, outcome) -> tuple[dict, list[str]]:
    """Fingerprint of an iteration's outputs, and what is wrong with them."""
    if ctx.kind == "audit":
        chain, report, campaigns, audits = outcome
        problems = []
        if not report.valid:
            problems.append(f"verify_chain: {report.reason} at height {report.first_bad_height}")
        if not all(audits):
            problems.append(f"{audits.count(False)} of {len(audits)} campaigns fail verify_derivation")
        fingerprint = {
            "outputs": {
                "chain.json": ctx.chain_sha256,
                "head": ctx.pkg.ledger.hash_header(chain.head).hex(),
                "campaign_ids": [c.campaign_id.hex() for c in campaigns],
            },
            "counts": {
                "txs": sum(len(b.transactions) for b in chain.blocks),
                "campaigns": len(campaigns),
                "audited": len(audits),
            },
        }
        return fingerprint, problems

    problems = [f"exit code {rc}" for rc in outcome if rc != 0]
    out = ctx.work / "out"
    if ctx.kind == "run":
        leg_dirs = [out]
    else:
        leg_dirs = sorted(p.parent for p in out.glob("*/*/chain.json"))
    outputs: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for leg in leg_dirs:
        digests, leg_counts, leg_problems = run_dir_facts(ctx, leg)
        outputs[leg.relative_to(out).as_posix()] = digests
        problems.extend(leg_problems)
        for key, value in leg_counts.items():
            counts[key] = counts.get(key, 0) + value
    for sweep_csv in sorted(out.glob("*/sweep.csv")):
        outputs[sweep_csv.relative_to(out).as_posix()] = {"sha256": sha256_file(sweep_csv)}
    return {"outputs": outputs, "counts": counts}, problems


# -- measurement ------------------------------------------------------------------

@dataclass
class Phase:
    samples: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: list[dict] = field(default_factory=list)
    last_spans: list = field(default_factory=list)


def measure(
    ctx: Context,
    seconds: float,
    min_iterations: int,
    reference: dict,
    probes: list[float],
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Iterate until `seconds` have passed; `reference` holds the first
    fingerprint, which every later iteration must reproduce. Samples are
    unscaled host seconds."""

    def once():
        if tracer is None:
            return iterate(ctx)
        tracer.active = True
        try:
            return iterate(ctx)
        finally:
            tracer.active = False

    phase = Phase()
    start = perf_counter()
    while phase.attempted < min_iterations or perf_counter() - start < seconds:
        phase.attempted += 1
        # start every iteration from the same collector state
        gc.collect()
        try:
            outcome, elapsed = timed(once, probes)
        except Exception:
            traceback.print_exc()
            phase.failed += 1
            continue
        finally:
            spans = tracer.take() if tracer is not None else []
        if tracer is not None:
            phase.layers.append(layer_metrics(spans))
            phase.last_spans = spans
        try:
            fingerprint, problems = check(ctx, outcome)
        except (OSError, ValueError, KeyError) as exc:
            print(f"check failed: cannot read the outputs: {exc!r}", file=sys.stderr)
            phase.failed += 1
            continue
        if "fingerprint" not in reference:
            reference["fingerprint"] = fingerprint
        elif fingerprint != reference["fingerprint"]:
            problems.append("outputs differ from the first iteration with this seed")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems:
            phase.failed += 1
        else:
            phase.samples.append(elapsed)
    return phase


def tail(samples: list[float]) -> Optional[tuple[int, float]]:
    """Highest percentile with at least ten samples above it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


# -- facts and output ---------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_sha256() -> str:
    """Digest of the measured sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "scenarios").glob("*.yaml")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    kind, params = WORKLOADS[workload]
    if not (SRC / "ctisim" / "__init__.py").is_file():
        raise BenchError(f"no ctisim sources under {SRC}")
    work = OUT_ROOT / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probes: list[float] = []
    setup_times = []
    for _ in range(1 if traced else SETUP_REPEATS):
        ctx, elapsed = timed(lambda: setup(kind, params, seed, work), probes)
        setup_times.append(elapsed)

    reference: dict = {}
    result: dict = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "generator": params.to_dict() if params else {"scenarios": [p.name for p in ctx.scenarios],
                                                      "seed_pairs": ctx.seed_pairs},
        "machine": machine_facts(),
        "unscaled_setup_s_samples": setup_times,
    }
    if not traced:
        phase = measure(ctx, seconds, MIN_ITERATIONS, reference, probes)
        attempted, failed = phase.attempted, phase.failed
    else:
        plain = measure(ctx, seconds / 2, MIN_TRACED_ITERATIONS, reference, probes)
        split = len(probes)
        tracer = Tracer(ctx.pkg, ctx.pkg.errors.CtiSimError)
        tracer.install()
        try:
            phase = measure(ctx, seconds / 2, MIN_TRACED_ITERATIONS, reference, probes, tracer)
        finally:
            tracer.uninstall()
        attempted, failed = plain.attempted + phase.attempted, plain.failed + phase.failed
        result["unscaled_untraced_wall_s_samples"] = plain.samples
    if not phase.samples or (traced and not plain.samples):
        raise BenchError(f"no iteration of {workload} succeeded")

    # means, not medians: with a two-speed host the median follows
    # whichever speed held the majority of the run, the mean the average
    scale = REFERENCE_LOOP_S / statistics.mean(probes)
    result.update(
        reference_loop_s_samples=probes,
        speed_scale=scale,
        unscaled_wall_s_samples=phase.samples,
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        fingerprint=reference["fingerprint"],
    )
    if traced:
        per_layer = {
            name: statistics.median(layer[name] for layer in phase.layers) for name in metric_units()
        }
        # each half at its own speed, so a drift between them is not
        # counted as overhead
        traced_wall = statistics.mean(phase.samples) * REFERENCE_LOOP_S / statistics.mean(probes[split:])
        plain_wall = statistics.mean(plain.samples) * REFERENCE_LOOP_S / statistics.mean(probes[:split])
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - plain_wall
        metrics = {
            name: {"value": round(per_layer[name]) if unit in ("count", "bytes") else per_layer[name], "unit": unit}
            for name, unit in per_layer_units().items()
        }
        write_spans(work / "spans.json", phase.last_spans)
    else:
        wall = statistics.mean(phase.samples) * scale
        values = {
            "wall_s": wall,
            "tx_per_s": reference["fingerprint"]["counts"]["txs"] / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # a set-up lasts a fraction of a second, shorter than the host's
            # speed phases, so each is rescaled by the two loop timings
            # around it (the first probes) rather than by the run's mean
            "setup_s": statistics.median(
                elapsed * REFERENCE_LOOP_S * 2 / (probes[2 * i] + probes[2 * i + 1])
                for i, elapsed in enumerate(setup_times)
            ),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        result["wall_s_tail"] = tail([x * scale for x in phase.samples])
    result["metrics"] = metrics

    for scratch in ("out", "source"):
        shutil.rmtree(work / scratch, ignore_errors=True)
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    result["result_path"] = os.path.relpath(work / "result.json", ROOT)
    return result


def report(result: dict) -> None:
    """Human-readable lines; the caller prints the JSON line last."""
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if not result["trace"]:
        samples = result["unscaled_wall_s_samples"]
        tail_text = "none (fewer than 11 samples)"
        if result["wall_s_tail"]:
            pct, value = result["wall_s_tail"]
            tail_text = f"p{pct}={value:.4f} s"
        scale = result["speed_scale"]
        print(f"  wall_s mean={result['metrics']['wall_s']['value']:.4f} s "
              f"median={statistics.median(samples) * scale:.4f} s n={len(samples)} "
              f"highest supported percentile: {tail_text}")
        print(f"  unscaled host seconds: wall_s mean={statistics.mean(samples):.4f} s "
              f"median={statistics.median(samples):.4f} s, "
              f"setup_s median={statistics.median(result['unscaled_setup_s_samples']):.4f} s; "
              f"speed scale {scale:.4f}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {result['error_rate']:.6g} ratio ({result['failed']}/{result['attempted']})")
    fingerprint = result["fingerprint"]
    print(f"  counts: {json.dumps(fingerprint['counts'], sort_keys=True)}")
    for where, digests in fingerprint["outputs"].items():
        print(f"  outputs {where}: {json.dumps(digests, sort_keys=True)}")
    print(f"  result: {result['result_path']}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the workload seed reaches ctisim only through the generated config
    os.environ.pop("CTISIM_SEED", None)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
