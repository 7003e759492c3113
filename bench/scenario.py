"""Seeded generator for the benchmark's synthetic ctisim scenarios.

`generate(params, seed)` returns the YAML text of a scenario that
`ctisim.config.load_config` accepts. The workload seed is written only into
the config's `seed` field, so the same (params, seed) pair always gives the
same bytes, and `ctisim run --config <file>` replays the workload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import yaml


@dataclass(frozen=True)
class ScenarioParams:
    producers: int
    false_sharers: int
    verifiers: int
    consumers: int
    rounds: int
    consume_rate: float = 0.0
    # share of honest producers that list their records at SALE_PRICE;
    # with 0 the marketplace is off (sale_mode none)
    priced_share: float = 0.0
    tlp: str = "white"
    policy: Optional[str] = None
    window_rounds: int = 10

    def to_dict(self) -> dict:
        return asdict(self)


SHARE_RATE = 0.5
SALE_PRICE = 3
P_ACC = 0.9
BASE_FEE = 5
DISCOUNT_PER_HQ = 1
# enough that no consumer runs out of currency within a workload
CONSUMER_ENDOWMENT = 1000
# every `DENIED_EVERY`-th consumer holds no attribute, so a policy denies it
# and the access-denied paths are exercised as well as the granted ones
DENIED_EVERY = 10
CONSUMER_ATTRIBUTES = (["gov"], ["ICS-ISAC"])


def scenario_dict(params: ScenarioParams, seed: int) -> dict:
    p = params
    priced = round(p.producers * p.priced_share)
    agents: list[dict] = [{"name": "authority", "roles": ["Authority"]}]
    for i in range(p.verifiers):
        agents.append(
            {
                "name": f"verifier-{i + 1}",
                "roles": ["Verifier"],
                "strategy": {"kind": "NoisyVerifier", "p_acc": P_ACC},
            }
        )
    for i in range(p.producers):
        strategy: dict = {"kind": "HonestProducer", "share_rate": SHARE_RATE}
        if i < priced:
            strategy["sale_price"] = SALE_PRICE
        agents.append({"name": f"producer-{i + 1}", "roles": ["Producer"], "strategy": strategy})
    for i in range(p.false_sharers):
        agents.append(
            {
                "name": f"false-sharer-{i + 1}",
                "roles": ["Producer"],
                "strategy": {"kind": "FalseSharer", "share_rate": 1.0, "fabrication_rate": 0.5},
            }
        )
    for i in range(p.consumers):
        attributes = [] if i % DENIED_EVERY == DENIED_EVERY - 1 else CONSUMER_ATTRIBUTES[i % 2]
        agents.append(
            {
                "name": f"consumer-{i + 1}",
                "roles": ["Consumer"],
                "attributes": attributes,
                "endowment": CONSUMER_ENDOWMENT,
                "strategy": {"kind": "LazyConsumer", "consume_rate": p.consume_rate},
            }
        )
    access: dict = {"tlp": p.tlp}
    if p.policy:
        access["policy"] = p.policy
    return {
        "name": "bench-generated",
        "rounds": p.rounds,
        "seed": seed,
        "economics": {
            "deposit": 10,
            "base_fee": BASE_FEE,
            "period_rounds": 10,
            "discount_per_hq": DISCOUNT_PER_HQ,
            "sale_mode": "producer-set" if priced else "none",
            "forfeiture": "split",
        },
        "mining": {"window_rounds": p.window_rounds, "min_support": 3, "min_overlap": 1},
        "access": access,
        "agents": agents,
    }


def generate(params: ScenarioParams, seed: int) -> str:
    """YAML text of the scenario for `params`, seeded with `seed`."""
    header = f"# generated by bench/scenario.py: {params.to_dict()}\n"
    return header + yaml.safe_dump(scenario_dict(params, seed), sort_keys=False)
