"""Agent-based round engine.

Registrations, each minting its stakeholder's endowment, happen at round
0, in block 1, even in a run of zero rounds; every later round runs the
same synchronous phases, each an `Engine` method called once per round:
`_submit`, `_vote`, `_finalize`, `_consume` (purchases and free reads),
`_renew`, `_record_metrics`, then `_seal` for one sealed block. An agent
is lapsed, and may not act, while its paid subscription period ended
before the round (`_can_act`). All state transitions materialize as
ledger transactions, and a fixed config (its seed included) replays to a
byte-identical chain. The operations return their results, not their
transactions: each block holds what the registry committed that round
(`Registry.unsealed`), in commit order, and a round that committed nothing
seals an empty block. Contract errors raised by an agent's action are
recorded as rejected-action events and never abort the run. After the
last round the run mines campaigns from the records its contracts
verified, without decoding them back from the chain it has just sealed. A
record's envelope is sealed on the first free read of it, in the round
that verified it, and kept only for that round's other readers: nothing
else opens one. Opening an envelope is the `authorize` decision; a
denied free read is a rejected action, like a refused purchase.

Whether a record is genuine or fabricated is known to the engine alone:
`Engine.truth` maps each accepted submission's contract id to it, the
verifiers' votes and the summary's `verified_fabricated` read it there,
and no record, transaction or output carries it. Every run builds its
summary one way, reading each figure the contracts decide from them.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from enum import Enum
from json.encoder import encode_basestring_ascii as _enc
from math import isfinite
from typing import TYPE_CHECKING, NamedTuple, Optional

from .access_control import AttributePolicy, TlpLabel, open_envelope, seal
from .contracts import ContractSystem, ContractStatus, ReportContract, Vote
from .cti import CtiCategory, CtiRecord, Ioc, IocKind, make_record
from .encoding import ZERO_DIGEST, Digest
from .errors import CtiSimError
from .identity import Credential, Registry, Role, evidence_for
from .ledger import Chain, append_block, sha256
from .mining import Campaign, mine_campaigns

if TYPE_CHECKING:
    from .config import AgentSpec, ScenarioConfig


class StrategyKind(Enum):
    HonestProducer = "HonestProducer"
    FreeRider = "FreeRider"
    FalseSharer = "FalseSharer"
    DoIFlooder = "DoIFlooder"
    HonestVerifier = "HonestVerifier"
    NoisyVerifier = "NoisyVerifier"
    LazyConsumer = "LazyConsumer"


class GroundTruth(Enum):
    Genuine = "Genuine"
    Fabricated = "Fabricated"


SUBMITTING_KINDS = (StrategyKind.HonestProducer, StrategyKind.FalseSharer, StrategyKind.DoIFlooder)

# Members bound once, compared by identity; names read through `_value_`
# (why: see the note at the bound members in `contracts`).
_HONEST_PRODUCER, _FALSE_SHARER, _FLOODER = SUBMITTING_KINDS
_GENUINE, _FABRICATED = GroundTruth.Genuine, GroundTruth.Fabricated
_HIGH, _LOW = Vote.HighQuality, Vote.LowQuality
_VERIFIED, _REJECTED = ContractStatus.Verified, ContractStatus.Rejected
_DOMAIN, _TECHNICAL = IocKind.Domain, CtiCategory.Technical

# The shared indicator of each campaign a genuine record may join, `camp-1` to
# `camp-3`: an opaque derivation of its label, which never reaches emitted bytes.
_CAMPAIGN_INDICATORS = [f"shared-{sha256(b'campaign-indicator:camp-%d' % n)[:6].hex()}.example" for n in (1, 2, 3)]


class AgentStrategy(NamedTuple):
    kind: StrategyKind
    share_rate: float = 1.0
    fabrication_rate: float = 0.0
    flood_multiplier: int = 1
    p_acc: float = 1.0
    consume_rate: float = 0.0
    utility_responsive: bool = False
    sale_price: Optional[int] = None


class UtilityModel(NamedTuple):
    """Per-agent economics: what a genuine share risks, what consuming is
    worth, and the trailing window used to estimate incentive income."""

    sharing_risk_cost: int = 0
    consumption_benefit: int = 0
    window: int = 5


def verifier_vote_model(truth: GroundTruth, p_acc: float, rng: random.Random) -> Vote:
    """Truth-aligned vote with probability p_acc, the opposite otherwise."""
    genuine = truth is _GENUINE
    if rng.random() < p_acc:
        return _HIGH if genuine else _LOW
    return _LOW if genuine else _HIGH


class AgentRoundLog:
    __slots__ = ("shares", "genuine_shares", "verified", "rejected", "consumes", "forfeited", "income")

    def __init__(
        self,
        shares: int = 0,
        genuine_shares: int = 0,
        verified: int = 0,
        rejected: int = 0,
        consumes: int = 0,
        forfeited: int = 0,
        income: int = 0,
    ):
        self.shares = shares
        self.genuine_shares = genuine_shares
        self.verified = verified
        self.rejected = rejected
        self.consumes = consumes
        self.forfeited = forfeited
        self.income = income  # realized: renewal discounts, sale revenue, verifier payouts


def compute_utility(log: AgentRoundLog, model: UtilityModel) -> int:
    """utility_t = benefit*consumes - risk_cost*genuine_shares + realized income."""
    return (
        model.consumption_benefit * log.consumes
        - model.sharing_risk_cost * log.genuine_shares
        + log.income
    )


class AgentState:
    __slots__ = (
        "name", "sid", "credential", "strategy", "current", "total_utility", "events",
        "share_rounds", "est_income_events", "record_counter", "revoked_round",
    )

    def __init__(self, name: str, sid: Digest, credential: Credential, strategy: AgentStrategy):
        self.name = name
        self.sid = sid
        self.credential = credential
        self.strategy = strategy
        # this round's log, and the sum of compute_utility over finished rounds
        self.current = AgentRoundLog()
        self.total_utility = 0
        self.events: list[tuple[int, str]] = []
        self.share_rounds: list[int] = []
        self.est_income_events: list[tuple[int, int]] = []
        self.record_counter = 0
        self.revoked_round: Optional[int] = None


class MetricsRow(NamedTuple):
    """One agent's metrics for one round; the fields, in order, are the
    columns of metrics.csv, and `MetricsSeries.to_csv` writes a row as
    `",".join(map(str, row))` would, through one format string."""

    round: int
    agent: str
    reputation: int
    balance: int
    shares: int
    verified: int
    rejected: int
    consumes: int
    forfeited: int
    utility: int


# one metrics.csv line: `%s` spells each field as `str` does
_CSV_ROW = ",".join(["%s"] * len(MetricsRow._fields)) + "\n"


class MetricsSeries:
    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[MetricsRow] = []

    def to_csv(self) -> str:
        return ",".join(MetricsRow._fields) + "\n" + "".join([_CSV_ROW % r for r in self.rows])


class ScenarioResult(NamedTuple):
    chain: Chain
    metrics: MetricsSeries
    contracts: dict[Digest, ReportContract]
    campaigns: list[Campaign]
    summary: dict
    agents: list[AgentState]
    truth: dict[Digest, GroundTruth]


class Engine:
    """One scenario run; construct a fresh engine per run. Its one source
    of randomness is seeded from `config.seed`: to run another seed, pass a
    config that holds it (`config._replace(seed=...)`)."""

    def __init__(self, config: "ScenarioConfig"):
        self.cfg = config
        self.rng = random.Random(config.seed)
        self.agents: list[AgentState] = []
        self.by_id: dict[Digest, AgentState] = {}
        # each accepted submission's truth, by contract id
        self.truth: dict[Digest, GroundTruth] = {}

    # -- setup ------------------------------------------------------------

    def _register_all(self) -> None:
        cfg = self.cfg
        self.registry = Registry()
        self.contracts = ContractSystem(self.registry, cfg.verification, cfg.economics)
        authority_spec = next(s for s in cfg.agents if Role.Authority in s.roles)
        ordered = [authority_spec] + [s for s in cfg.agents if s is not authority_spec]
        credentials: dict[str, Credential] = {}
        for spec in ordered:
            credentials[spec.name] = self.contracts.register(
                spec.roles, spec.attributes, evidence_for(spec.name), spec.endowment
            )
        # agent action order follows the config, not registration order
        for spec in cfg.agents:
            credential = credentials[spec.name]
            state = AgentState(spec.name, credential.stakeholder, credential, spec.strategy)
            self.agents.append(state)
            self.by_id[state.sid] = state
        # A producer's access spec, its sale price and every agent's id are
        # fixed from here on, and a label is immutable, so all of an agent's
        # records share one label, policy and price.
        self._terms = {spec.name: self._record_terms(spec) for spec in cfg.agents}
        # roles and rates never change; an agent left out draws no random number in `_consume`
        self._readers = [
            a for a in self.agents if a.strategy.consume_rate > 0 and Role.Consumer in a.credential.roles
        ]

    def _record_terms(self, spec: "AgentSpec") -> tuple[TlpLabel, Optional[AttributePolicy], Optional[int]]:
        """TLP label, policy and sale price of records produced by this agent."""
        access = spec.access if spec.access is not None else self.cfg.access
        designated = frozenset(a.sid for a in self.agents if a.name in access.designated)
        economics = self.cfg.economics
        price = {"fixed": economics.fixed_price, "producer-set": spec.strategy.sale_price}
        return TlpLabel(access.tlp, designated), access.policy, price.get(economics.sale_mode)

    # -- per-agent behavior -------------------------------------------------

    def _worth_sharing(self, agent: AgentState, round_no: int) -> bool:
        """Whether the agent's income per share over the trailing window,
        rounds [round_no - window, round_no), covers the sharing risk.

        Both histories are appended in non-decreasing round order, so the
        window is found by bisection, not by a scan.
        """
        lo = round_no - self.cfg.utility.window
        shares = agent.share_rounds
        recent_shares = bisect_left(shares, round_no) - bisect_left(shares, lo)
        if recent_shares == 0:
            return True  # probe: refresh the income estimate
        events = agent.est_income_events
        recent = events[bisect_left(events, (lo,)):bisect_left(events, (round_no,))]
        recent_income = sum(amt for _, amt in recent)
        return recent_income / recent_shares >= self.cfg.utility.sharing_risk_cost

    def _submission_plan(self, agent: AgentState, round_no: int) -> list[bool]:
        s = agent.strategy
        kind = s.kind
        if kind is _FLOODER:
            return [True] * s.flood_multiplier
        if kind is not _HONEST_PRODUCER and kind is not _FALSE_SHARER:
            return []
        if self.rng.random() >= s.share_rate:
            return []
        if kind is _FALSE_SHARER:
            return [self.rng.random() < s.fabrication_rate]
        if s.utility_responsive and not self._worth_sharing(agent, round_no):
            return []
        return [False]

    def _make_record(self, agent: AgentState, fabricated: bool, round_no: int) -> CtiRecord:
        agent.record_counter += 1
        n = agent.record_counter
        if fabricated:
            iocs = (Ioc(_DOMAIN, f"bogus-{agent.name}-{n}.example", round_no),)
        elif self.rng.random() < 0.5:
            iocs = (
                Ioc(_DOMAIN, _CAMPAIGN_INDICATORS[self.rng.randint(1, 3) - 1], round_no),
                Ioc(_DOMAIN, f"{agent.name}-{n}.example", round_no),
            )
        else:
            iocs = (Ioc(_DOMAIN, f"{agent.name}-{n}.example", round_no),)
        tlp, policy, sale_price = self._terms[agent.name]
        return make_record(
            producer=agent.sid,
            category=_TECHNICAL,
            indicators=iocs,
            narrative_digest=ZERO_DIGEST,
            tlp=tlp,
            policy=policy,
            sale_price=sale_price,
            created_round=round_no,
        )

    def _can_act(self, agent: AgentState, round_no: int) -> Optional[str]:
        """Why the agent may not act in round `round_no`: revoked, or lapsed
        (its paid period ended before the round and `_renew` failed)."""
        if agent.credential.revoked:
            return "Revoked"
        if self.cfg.economics.base_fee > 0 and self.contracts.subscription.paid_through[agent.sid] < round_no:
            return "SubscriptionLapsed"
        return None

    # -- the run ------------------------------------------------------------

    def run(self) -> ScenarioResult:
        cfg = self.cfg
        chain = Chain.new()
        metrics = MetricsSeries()
        self._register_all()
        self._seal(chain)

        for round_no in range(1, cfg.rounds + 1):
            self._run_round(chain, metrics, round_no)

        contracts, mining = self.contracts.contracts.values(), cfg.mining
        verified = [c.record for c in contracts if c.status is _VERIFIED and c.record.category is _TECHNICAL]
        campaigns = mine_campaigns(verified, mining.window_rounds, mining.min_support, mining.min_overlap)
        summary = self._build_summary(campaigns)
        return ScenarioResult(
            chain=chain,
            metrics=metrics,
            contracts=self.contracts.contracts,
            campaigns=campaigns,
            summary=summary,
            agents=self.agents,
            truth=self.truth,
        )

    def _run_round(self, chain: Chain, metrics: MetricsSeries, round_no: int) -> None:
        submitted = self._submit(round_no)
        self._vote(submitted, round_no)
        verified = self._finalize(submitted, round_no)
        self._consume(verified, round_no)
        self._renew(round_no)
        self._record_metrics(metrics, round_no)
        self._seal(chain)

    # -- the round's phases, in order ----------------------------------------

    def _submit(self, round_no: int) -> list[ReportContract]:
        """Each agent's planned records under deposit; returns those accepted."""
        submitted: list[ReportContract] = []
        for agent in self.agents:
            for fabricated in self._submission_plan(agent, round_no):
                blocker = self._can_act(agent, round_no)
                if blocker:
                    agent.events.append((round_no, blocker))
                    continue
                record = self._make_record(agent, fabricated, round_no)
                try:
                    contract = self.contracts.submit_report(agent.sid, record, self.rng)
                except CtiSimError as exc:
                    agent.events.append((round_no, type(exc).__name__))
                    continue
                self.truth[contract.contract_id] = _FABRICATED if fabricated else _GENUINE
                submitted.append(contract)
                agent.current.shares += 1
                if not fabricated:
                    agent.current.genuine_shares += 1
                agent.share_rounds.append(round_no)
        return submitted

    def _vote(self, submitted: list[ReportContract], round_no: int) -> None:
        """The engine guarantees every assigned verifier votes this round."""
        for contract in submitted:
            truth = self.truth[contract.contract_id]
            for v_sid in contract.assigned_verifiers:
                v_agent = self.by_id[v_sid]
                vote = verifier_vote_model(truth, v_agent.strategy.p_acc, self.rng)
                try:
                    self.contracts.cast_vote(v_sid, contract.contract_id, vote)
                except CtiSimError as exc:
                    v_agent.events.append((round_no, type(exc).__name__))

    def _finalize(self, submitted: list[ReportContract], round_no: int) -> list[ReportContract]:
        """Settle each submission's deposit, fees and reputation; returns those verified."""
        newly_verified: list[ReportContract] = []
        for contract in submitted:
            producer = self.by_id[contract.record.producer]
            try:
                outcome = self.contracts.finalize_verification(contract.contract_id, round_no)
            except CtiSimError as exc:
                producer.events.append((round_no, type(exc).__name__))
                continue
            if contract.status is _VERIFIED:
                producer.current.verified += 1
                newly_verified.append(contract)
            else:
                producer.current.rejected += 1
                producer.current.forfeited += contract.deposit
            for v_sid, amount in outcome.verifier_payouts.items():
                self.by_id[v_sid].current.income += amount
            for sid, amount in outcome.discounts.items():
                self.by_id[sid].est_income_events.append((round_no, amount))
            for sid in outcome.revoked:
                self.by_id[sid].revoked_round = round_no
        return newly_verified

    def _consume(self, verified: list[ReportContract], round_no: int) -> None:
        """Purchases and free reads of this round's newly verified records.
        A record is sealed on its first free read and its envelope serves
        the round's later readers (no later round reads it)."""
        group = self.registry.active_ids()
        envelopes = {}
        for agent in self._readers:
            if self.rng.random() >= agent.strategy.consume_rate or self._can_act(agent, round_no):
                continue
            for contract in verified:
                if contract.record.producer == agent.sid:
                    continue
                cid = contract.contract_id
                if contract.record.sale_price is not None:
                    try:
                        price = self.contracts.purchase(agent.sid, cid)
                    except CtiSimError as exc:
                        agent.events.append((round_no, type(exc).__name__))
                        continue
                    agent.current.consumes += 1
                    seller = self.by_id[contract.record.producer]
                    seller.current.income += price
                    seller.est_income_events.append((round_no, price))
                else:
                    envelope = envelopes.get(cid)
                    if envelope is None:
                        envelope = envelopes[cid] = seal(contract.record)
                    try:
                        open_envelope(envelope, agent.credential, group)
                    except CtiSimError as exc:
                        agent.events.append((round_no, type(exc).__name__))
                        continue
                    agent.current.consumes += 1

    def _renew(self, round_no: int) -> None:
        """Renew each unrevoked agent's subscription until it is paid past this
        round; an agent whose renewal fails is lapsed until one succeeds."""
        base_fee = self.cfg.economics.base_fee
        if base_fee == 0:
            return
        paid_through = self.contracts.subscription.paid_through
        for agent in self.agents:
            if agent.credential.revoked:
                continue
            while paid_through[agent.sid] <= round_no:
                try:
                    charge = self.contracts.renew_subscription(agent.sid, round_no)
                except CtiSimError as exc:
                    agent.events.append((round_no, type(exc).__name__))
                    break
                agent.current.income += base_fee - charge

    def _record_metrics(self, metrics: MetricsSeries, round_no: int) -> None:
        """Each agent's row for the round; its log starts afresh for the next."""
        score_of, balance_of = self.contracts.reputation.score_of, self.contracts.market.balance_of
        for agent in self.agents:
            log, agent.current = agent.current, AgentRoundLog()
            utility = compute_utility(log, self.cfg.utility)
            agent.total_utility += utility
            metrics.rows.append(MetricsRow(
                round_no, agent.name, score_of(agent.sid), balance_of(agent.sid), log.shares,
                log.verified, log.rejected, log.consumes, log.forfeited, utility,
            ))

    def _seal(self, chain: Chain) -> None:
        """Seal what the registry committed since the last block, in commit
        order, as the next block; an empty round seals an empty block. The
        registrations are round 0's block, so round r's block is at height
        r + 1."""
        registry = self.registry
        registry.mark_sealed(append_block(
            chain,
            registry.unsealed(),
            sealer=self.contracts.authority,
            authenticator=registry.authenticate_committed,
            is_authority=registry.is_authority,
        ))

    # -- summaries ------------------------------------------------------------

    def _build_summary(self, campaigns: list[Campaign]) -> dict:
        market, by_id = self.contracts.market, self.by_id
        contracts = sorted(
            self.contracts.contracts.values(),
            key=lambda c: (c.created_round, c.contract_id),
        )
        total_verified = sum(1 for c in contracts if c.status is _VERIFIED)
        total_rejected = sum(1 for c in contracts if c.status is _REJECTED)
        truth = self.truth
        verified_fabricated = sum(
            1 for c in contracts if c.status is _VERIFIED and truth[c.contract_id] is _FABRICATED
        )
        poisoning_rate = verified_fabricated / total_verified if total_verified else 0.0

        agents_summary = {}
        for agent in self.agents:
            agents_summary[agent.name] = {
                "reputation": self.contracts.reputation.score_of(agent.sid),
                "balance": market.balance_of(agent.sid),
                "revoked": agent.credential.revoked,
                "revoked_round": agent.revoked_round,
                "rejected_actions": len(agent.events),
                "total_utility": agent.total_utility,
            }

        return {
            "scenario": self.cfg.name,
            "rounds": self.cfg.rounds,
            "seed": self.cfg.seed,
            "agents": agents_summary,
            "contracts": [
                {
                    "contract_id": c.contract_id.hex(),
                    "producer": by_id[c.record.producer].name,
                    "status": c.status._value_,
                    "pi_score": c.score_micro / 1_000_000 if c.score_micro is not None else None,
                    "deposit": c.deposit,
                    "deposit_state": c.deposit_state._value_,
                    "verification_fee": c.verification_fee,
                    "sale_price": c.record.sale_price,
                    "created_round": c.created_round,
                    "finalized_round": c.finalized_round,
                    "votes": {
                        by_id[v].name: c.votes[v]._value_
                        for v in c.assigned_verifiers
                        if v in c.votes
                    },
                }
                for c in contracts
            ],
            "campaigns": [
                {
                    "campaign_id": c.campaign_id.hex(),
                    "member_records": sorted(m.hex() for m in c.member_records),
                    "shared_indicators": sorted(c.shared_indicators),
                    "window": list(c.window),
                    "support": c.support,
                }
                for c in campaigns
            ],
            "aggregates": {
                "total_submissions": len(contracts),
                "total_verified": total_verified,
                "total_rejected": total_rejected,
                "verified_fabricated": verified_fabricated,
                "poisoning_rate": round(poisoning_rate, 6),
                "revoked_agents": sum(1 for a in self.agents if a.credential.revoked),
                "verifier_forfeit_income": self.contracts.verifier_forfeit_income(),
                "escrow": market.escrow,
                "held": market.held,
                "burned": market.burned,
                "total_supply": market.total_supply(),
                "minted": market.minted,
                "campaigns": len(campaigns),
            },
        }


def json_scalar(value: object) -> str:
    """`value` as `json.dumps` spells it: json's own ASCII escaping for a
    string, `int.__repr__`, `float.__repr__` or NaN and ±Infinity; TypeError
    for a value of any other type."""
    if isinstance(value, str):
        return _enc(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _members(texts: list[str], brackets: str, indent: str) -> str:
    """A JSON object or array at `indent` from its members' texts, each
    opening with its own newline; an empty one as `json.dumps` writes it."""
    return f"{brackets[0]}{','.join(texts)}\n{indent}{brackets[1]}" if texts else brackets


def _scalars(values, indent: str) -> str:
    """A JSON object (from a dict) or array of scalars at `indent`."""
    if isinstance(values, dict):
        return _members([f"\n{indent}  {_enc(k)}: {json_scalar(v)}" for k, v in values.items()], "{}", indent)
    return _members([f"\n{indent}  {json_scalar(v)}" for v in values], "[]", indent)


def summary_json(summary: dict) -> str:
    """The summary.json text, `json.dumps(summary, indent=2)` plus a newline,
    of a summary `Engine._build_summary` built. Each contract and campaign
    is one template whose integer fields are formatted directly; an agent,
    the votes and the aggregates are objects of scalars (`_scalars`)."""
    contracts = [
        f'\n    {{\n      "contract_id": {_enc(c["contract_id"])},'
        f'\n      "producer": {_enc(c["producer"])},'
        f'\n      "status": {_enc(c["status"])},'
        f'\n      "pi_score": {json_scalar(c["pi_score"])},'
        f'\n      "deposit": {c["deposit"]},'
        f'\n      "deposit_state": {_enc(c["deposit_state"])},'
        f'\n      "verification_fee": {c["verification_fee"]},'
        f'\n      "sale_price": {json_scalar(c["sale_price"])},'
        f'\n      "created_round": {c["created_round"]},'
        f'\n      "finalized_round": {json_scalar(c["finalized_round"])},'
        f'\n      "votes": {_scalars(c["votes"], "      ")}\n    }}'
        for c in summary["contracts"]
    ]
    campaigns = [
        f'\n    {{\n      "campaign_id": {_enc(c["campaign_id"])},'
        f'\n      "member_records": {_scalars(c["member_records"], "      ")},'
        f'\n      "shared_indicators": {_scalars(c["shared_indicators"], "      ")},'
        f'\n      "window": {_scalars(c["window"], "      ")},'
        f'\n      "support": {c["support"]}\n    }}'
        for c in summary["campaigns"]
    ]
    agents = [f"\n    {_enc(name)}: {_scalars(a, '    ')}" for name, a in summary["agents"].items()]
    return (
        f'{{\n  "scenario": {_enc(summary["scenario"])},'
        f'\n  "rounds": {summary["rounds"]},'
        f'\n  "seed": {summary["seed"]},'
        f'\n  "agents": {_members(agents, "{}", "  ")},'
        f'\n  "contracts": {_members(contracts, "[]", "  ")},'
        f'\n  "campaigns": {_members(campaigns, "[]", "  ")},'
        f'\n  "aggregates": {_scalars(summary["aggregates"], "  ")}\n}}\n'
    )


def run_scenario(config: "ScenarioConfig") -> ScenarioResult:
    """Run `config` at its own seed; the same config gives the same bytes."""
    return Engine(config).run()
