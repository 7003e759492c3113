"""Traced mode: spans around ctisim's public functions, recorded from outside.

`Tracer.install` replaces each function listed in `PATCH_SITES` at the
binding its caller looks up (a module global or a class attribute) with a
wrapper that records a span: name, start, end, parent span, thread, whether
it raised `CtiSimError`, and a size taken from the result. Nothing under
`src/` is edited, and the wrappers never touch the simulation's RNG or
arguments, so traced and untraced runs write the same bytes.

Spans are kept in memory; `layer_metrics` turns one iteration's spans into
the per-layer metrics, and `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import statistics
from pathlib import Path
import threading
from time import perf_counter
from typing import Callable, Optional

# (object path inside the ctisim package, attribute, span name, size of result)
PATCH_SITES: list[tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_config", "config.parse_config", None),
    ("cli", "run_scenario", "simulation.run_scenario", None),
    ("cli", "chain_to_json", "ledger.chain_to_json", len),
    ("simulation", "make_record", "cti.make_record", None),
    ("simulation", "seal", "access_control.seal", None),
    ("simulation", "open_envelope", "access_control.open_envelope", None),
    ("simulation", "append_block", "ledger.append_block", lambda block: len(block.transactions)),
    ("simulation", "mine_campaigns", "mining.mine_campaigns", len),
    ("contracts", "authorize", "access_control.authorize", None),
    ("access_control", "authorize", "access_control.authorize", None),
    ("contracts.ContractSystem", "verifier_pool", "contracts.verifier_pool", None),
    ("contracts.ContractSystem", "submit_report", "contracts.submit_report", None),
    ("contracts.ContractSystem", "cast_vote", "contracts.cast_vote", None),
    ("contracts.ContractSystem", "finalize_verification", "contracts.finalize_verification", None),
    ("contracts.ContractSystem", "purchase", "contracts.purchase", None),
    ("contracts.ContractSystem", "renew_subscription", "contracts.renew_subscription", None),
    ("identity.Registry", "authenticate_committed", "identity.authenticate_committed", None),
    ("identity.Registry", "active_ids", "identity.active_ids", None),
    ("ledger.Transaction", "create", "ledger.transaction_create", None),
    ("ledger", "chain_from_json", "ledger.chain_from_json", None),
    ("ledger", "verify_chain", "ledger.verify_chain", None),
    ("mining", "decode_record", "cti.decode_record", None),
    ("mining", "verified_technical_records", "mining.verified_technical_records", len),
    ("mining", "mine_campaigns", "mining.mine_campaigns", len),
    ("mining", "verify_derivation", "mining.verify_derivation", None),
]

CALLS_AND_SECONDS = (
    "contracts.submit_report",
    "contracts.cast_vote",
    "contracts.finalize_verification",
    "contracts.purchase",
    "contracts.renew_subscription",
    "contracts.verifier_pool",
    "access_control.seal",
    "access_control.open_envelope",
    "access_control.authorize",
    "identity.authenticate_committed",
    "identity.active_ids",
    "ledger.transaction_create",
    "ledger.append_block",
    "cti.make_record",
    "cti.decode_record",
    "mining.verified_technical_records",
    "mining.verify_derivation",
    "config.parse_config",
    "cli.main",
)
SECONDS_ONLY = (
    "simulation.run_scenario",
    "ledger.chain_to_json",
    "ledger.chain_from_json",
    "ledger.verify_chain",
    "mining.mine_campaigns",
)
ERRORS = (
    "contracts.submit_report",
    "contracts.cast_vote",
    "contracts.finalize_verification",
    "contracts.purchase",
    "contracts.renew_subscription",
    "access_control.open_envelope",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric `layer_metrics` reports, with its unit."""
    units: dict[str, str] = {
        "simulation.run_scenario.s": "s",
        "simulation.self_s": "s",
        "simulation.round_ms.p50": "ms",
        "simulation.round_ms.p90": "ms",
        "ledger.append_block.txs": "count",
        "ledger.chain_json_bytes": "bytes",
        "mining.records": "count",
        "mining.campaigns": "count",
        "cli.self_s": "s",
    }
    for name in CALLS_AND_SECONDS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in SECONDS_ONLY:
        units[f"{name}.s"] = "s"
    for name in ERRORS:
        units[f"{name}.errors"] = "count"
    return dict(sorted(units.items()))


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "error", "size")

    def __init__(self, name: str, parent: Optional["Span"], thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.error = False
        self.size = 0


class Tracer:
    """Records spans while `active`; wrappers pass straight through otherwise."""

    def __init__(self, package, error_type: type):
        self.package = package
        self.error_type = error_type
        self.spans: list[Span] = []
        self.active = False
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, size: Optional[Callable]) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = isinstance(exc, self.error_type)
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if size is not None:
                span.size = size(result)
            return result

        return traced

    def install(self) -> None:
        for path, attr, name, size in PATCH_SITES:
            owner = self.package
            for part in path.split("."):
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__, size))
                else:
                    replacement = self._wrap(name, original, size)
            else:
                original = getattr(owner, attr)
                replacement = self._wrap(name, original, size)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one iteration, from its spans."""
    metrics = {name: 0 for name in metric_units()}
    for span in spans:
        base = span.name
        metrics[f"{base}.s"] += span.end - span.start
        if f"{base}.calls" in metrics:
            metrics[f"{base}.calls"] += 1
        if span.error and f"{base}.errors" in metrics:
            metrics[f"{base}.errors"] += 1
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    gaps: list[float] = []
    for span in spans:
        if span.name == "simulation.run_scenario":
            kids = children.get(id(span), [])
            # a thread's spans nest, so direct children never overlap
            metrics["simulation.self_s"] += (span.end - span.start) - sum(k.end - k.start for k in kids)
            starts = sorted(k.start for k in kids if k.name == "ledger.append_block")
            gaps.extend((b - a) * 1000.0 for a, b in zip(starts, starts[1:]))
        elif span.name == "ledger.append_block":
            metrics["ledger.append_block.txs"] += span.size
        elif span.name == "ledger.chain_to_json":
            metrics["ledger.chain_json_bytes"] += span.size
        elif span.name == "mining.mine_campaigns":
            metrics["mining.campaigns"] += span.size
            metrics["mining.records"] += sum(
                k.size for k in children.get(id(span), []) if k.name == "mining.verified_technical_records"
            )
        elif span.name == "cli.main":
            # sweep legs run on pool threads, so their spans have no parent
            # link to main: take what main's interval covers, as a union
            inner = [
                (s.start, s.end)
                for s in spans
                if s.name in ("simulation.run_scenario", "ledger.chain_to_json")
                and span.start <= s.start
                and s.end <= span.end
            ]
            metrics["cli.self_s"] += (span.end - span.start) - _covered(inner)
    metrics["simulation.round_ms.p50"] = _quantile(gaps, 0.5)
    metrics["simulation.round_ms.p90"] = _quantile(gaps, 0.9)
    return metrics


def write_spans(path: Path, spans: list[Span]) -> None:
    """Write spans as rows; `parent` is the parent's row index, or -1."""
    t_zero = min((s.start for s in spans), default=0.0)
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [
        [s.name, s.start - t_zero, s.end - s.start, index.get(id(s.parent), -1), s.thread, s.error, s.size]
        for s in spans
    ]
    fields = ["name", "start_s", "duration_s", "parent", "thread", "error", "size"]
    path.write_text(json.dumps({"fields": fields, "spans": rows}), encoding="utf-8")
