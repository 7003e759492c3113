"""Agent-based round engine.

Registrations, each minting its stakeholder's endowment, happen at round
0; every later round runs the same synchronous phases: submissions,
votes, finalizations, purchases, renewals, then one sealed block. All
state transitions materialize as ledger transactions, and a fixed
(config, seed) pair replays to a byte-identical chain. The operations
return their results, not their transactions: each block holds what the
registry signed that round (`Registry.unsealed`), in signing order.
Contract errors raised by an agent's action are recorded as
rejected-action events and never abort the run. After the last round the
run mines campaigns from the records its contracts verified, without
decoding them back from the chain it has just sealed. A record's envelope
is sealed on the first free read of it, in the round that verified it, and
kept only for that round's other readers: nothing else opens one.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional

from .access_control import AttributePolicy, TlpLabel, open_envelope, seal
from .contracts import QUORUM, ContractSystem, ContractStatus, ForfeiturePolicy, ReportContract, Vote
from .cti import CtiCategory, CtiRecord, GroundTruth, Ioc, IocKind, make_record
from .encoding import ZERO_DIGEST, Digest
from .errors import CtiSimError, NotYetExpired
from .identity import Credential, ProofOfIdentity, Registry, Role, evidence_for
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


SUBMITTING_KINDS = (StrategyKind.HonestProducer, StrategyKind.FalseSharer, StrategyKind.DoIFlooder)

# Members bound once, compared by identity; names read through `_value_`
# (why: see the note at the bound members in `contracts`).
_HONEST_PRODUCER, _FALSE_SHARER, _FLOODER = SUBMITTING_KINDS
_GENUINE, _FABRICATED = GroundTruth.Genuine, GroundTruth.Fabricated
_HIGH, _LOW = Vote.HighQuality, Vote.LowQuality
_VERIFIED, _REJECTED = ContractStatus.Verified, ContractStatus.Rejected
_DOMAIN, _TECHNICAL = IocKind.Domain, CtiCategory.Technical


@dataclass
class AgentStrategy:
    kind: StrategyKind
    share_rate: float = 1.0
    fabrication_rate: float = 0.0
    flood_multiplier: int = 1
    p_acc: float = 1.0
    consume_rate: float = 0.0
    utility_responsive: bool = False
    sale_price: Optional[int] = None


@dataclass
class UtilityModel:
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


@dataclass
class AgentRoundLog:
    round_no: int
    shares: int = 0
    genuine_shares: int = 0
    verified: int = 0
    rejected: int = 0
    consumes: int = 0
    forfeited: int = 0
    income: int = 0  # realized: renewal discounts, sale revenue, verifier payouts


def compute_utility(log: AgentRoundLog, model: UtilityModel) -> int:
    """utility_t = benefit*consumes - risk_cost*genuine_shares + realized income."""
    return (
        model.consumption_benefit * log.consumes
        - model.sharing_risk_cost * log.genuine_shares
        + log.income
    )


@dataclass
class AgentState:
    name: str
    sid: Digest
    credential: Credential
    strategy: AgentStrategy
    # this round's log, and the sum of compute_utility over finished rounds
    current: AgentRoundLog = field(default_factory=lambda: AgentRoundLog(round_no=0))
    total_utility: int = 0
    events: list[tuple[int, str]] = field(default_factory=list)
    share_rounds: list[int] = field(default_factory=list)
    est_income_events: list[tuple[int, int]] = field(default_factory=list)
    record_counter: int = 0
    inactive: bool = False
    revoked_round: Optional[int] = None


class MetricsRow(NamedTuple):
    """One agent's metrics for one round; the fields, in order, are the
    columns of metrics.csv and the keys of each metrics.json row."""

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


@dataclass
class MetricsSeries:
    rows: list[MetricsRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [",".join(MetricsRow._fields)]
        lines += [",".join(map(str, r)) for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_obj(self) -> list[dict]:
        return [dict(zip(MetricsRow._fields, r)) for r in self.rows]


@dataclass
class ScenarioResult:
    chain: Chain
    metrics: MetricsSeries
    contracts: dict[Digest, ReportContract]
    campaigns: list[Campaign]
    summary: dict
    agents: list[AgentState]


class Engine:
    """One scenario run; construct a fresh engine per run."""

    def __init__(self, config: "ScenarioConfig", seed: Optional[int] = None):
        self.cfg = config
        self.seed = config.seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.agents: list[AgentState] = []
        self.by_id: dict[Digest, AgentState] = {}

    # -- setup ------------------------------------------------------------

    def _register_all(self) -> None:
        cfg = self.cfg
        self.registry = Registry()
        self.contracts = ContractSystem(self.registry, cfg.verification, cfg.economics)
        authority_spec = next(s for s in cfg.agents if Role.Authority in s.roles)
        ordered = [authority_spec] + [s for s in cfg.agents if s is not authority_spec]
        sid_by_name: dict[str, Digest] = {}
        for spec in ordered:
            proof = ProofOfIdentity(spec.roles, spec.attributes, evidence_for(spec.name))
            register = self.contracts.bootstrap if spec is authority_spec else self.contracts.register
            sid_by_name[spec.name] = register(proof, spec.endowment).stakeholder

        # agent action order follows the config, not registration order
        for spec in cfg.agents:
            sid = sid_by_name[spec.name]
            state = AgentState(
                name=spec.name,
                sid=sid,
                credential=self.registry.credentials[sid],
                strategy=spec.strategy,
            )
            self.agents.append(state)
            self.by_id[sid] = state
        self._names = {a.sid: a.name for a in self.agents}
        # A producer's access spec and every agent's id are fixed from here
        # on, and a label is immutable, so all of an agent's records share one.
        self._access = {spec.name: self._resolve_access(spec) for spec in cfg.agents}

    def _resolve_access(self, spec: "AgentSpec") -> tuple[TlpLabel, Optional[AttributePolicy]]:
        """TLP label and policy for records produced by this agent."""
        access = spec.access if spec.access is not None else self.cfg.access
        designated = None
        if access.designated:
            designated = frozenset(a.sid for a in self.agents if a.name in access.designated)
        return TlpLabel(access.tlp, designated), access.policy

    # -- per-round behavior -------------------------------------------------

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

    def _sale_price_for(self, agent: AgentState) -> Optional[int]:
        mode = self.cfg.economics.sale_mode
        if mode == "fixed":
            return self.cfg.economics.fixed_price
        if mode == "producer-set":
            return agent.strategy.sale_price
        return None

    def _make_record(self, agent: AgentState, fabricated: bool, round_no: int) -> CtiRecord:
        agent.record_counter += 1
        n = agent.record_counter
        if fabricated:
            iocs = (Ioc(_DOMAIN, f"bogus-{agent.name}-{n}.example", round_no),)
            truth = _FABRICATED
        else:
            truth = _GENUINE
            if self.rng.random() < 0.5:
                hint = f"camp-{self.rng.randint(1, 3)}"
                # the shared value is an opaque derivation of the hidden hint,
                # so the label itself never reaches emitted bytes
                shared = sha256(b"campaign-indicator:" + hint.encode())[:6].hex()
                iocs = (
                    Ioc(_DOMAIN, f"shared-{shared}.example", round_no, hint),
                    Ioc(_DOMAIN, f"{agent.name}-{n}.example", round_no, hint),
                )
            else:
                iocs = (Ioc(_DOMAIN, f"{agent.name}-{n}.example", round_no),)
        tlp, policy = self._access[agent.name]
        return make_record(
            producer=agent.sid,
            category=_TECHNICAL,
            indicators=iocs,
            narrative_digest=ZERO_DIGEST,
            tlp=tlp,
            policy=policy,
            sale_price=self._sale_price_for(agent),
            created_round=round_no,
            ground_truth=truth,
        )

    def _can_act(self, agent: AgentState) -> Optional[str]:
        if agent.credential.revoked:
            return "Revoked"
        if agent.inactive:
            return "SubscriptionLapsed"
        return None

    # -- the run ------------------------------------------------------------

    def run(self) -> ScenarioResult:
        cfg = self.cfg
        chain = Chain.new()
        metrics = MetricsSeries()
        if cfg.rounds == 0:
            return ScenarioResult(chain, metrics, {}, [], self._empty_summary(), [])

        self._register_all()
        self._seal(chain, 0)

        for round_no in range(1, cfg.rounds + 1):
            self._run_round(chain, metrics, round_no)

        verified = [
            c.record
            for c in self.contracts.contracts.values()
            if c.status is _VERIFIED and c.record.category is _TECHNICAL
        ]
        campaigns = mine_campaigns(
            verified,
            window_rounds=cfg.mining.window_rounds,
            min_support=cfg.mining.min_support,
            min_overlap=cfg.mining.min_overlap,
        )
        summary = self._build_summary(campaigns)
        return ScenarioResult(
            chain=chain,
            metrics=metrics,
            contracts=self.contracts.contracts,
            campaigns=campaigns,
            summary=summary,
            agents=self.agents,
        )

    def _run_round(self, chain: Chain, metrics: MetricsSeries, round_no: int) -> None:
        cfg = self.cfg
        for agent in self.agents:
            agent.current = AgentRoundLog(round_no=round_no)
        submitted: list[ReportContract] = []

        # submissions
        for agent in self.agents:
            plan = self._submission_plan(agent, round_no)
            for fabricated in plan:
                blocker = self._can_act(agent)
                if blocker:
                    agent.events.append((round_no, blocker))
                    continue
                record = self._make_record(agent, fabricated, round_no)
                try:
                    contract = self.contracts.submit_report(agent.sid, record, self.rng)
                except CtiSimError as exc:
                    agent.events.append((round_no, type(exc).__name__))
                    continue
                submitted.append(contract)
                agent.current.shares += 1
                if not fabricated:
                    agent.current.genuine_shares += 1
                agent.share_rounds.append(round_no)

        # votes: the engine guarantees every assigned verifier votes this round
        for contract in submitted:
            for v_sid in contract.assigned_verifiers:
                v_agent = self.by_id[v_sid]
                vote = verifier_vote_model(
                    contract.record.ground_truth, v_agent.strategy.p_acc, self.rng
                )
                try:
                    self.contracts.cast_vote(v_sid, contract.contract_id, vote)
                except CtiSimError as exc:
                    v_agent.events.append((round_no, type(exc).__name__))

        # finalizations
        newly_verified: list[ReportContract] = []
        for contract in submitted:
            try:
                outcome = self.contracts.finalize_verification(contract.contract_id, round_no)
            except CtiSimError as exc:
                self.by_id[contract.record.producer].events.append(
                    (round_no, type(exc).__name__)
                )
                continue
            producer = self.by_id[contract.record.producer]
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

        # purchases and free reads of this round's newly verified records;
        # a record is sealed on its first free read and its envelope serves
        # the round's later readers (no later round reads it)
        group = self.registry.active_ids()
        envelopes = {}
        for agent in self.agents:
            rate = agent.strategy.consume_rate
            if rate <= 0 or Role.Consumer not in agent.credential.roles:
                continue
            if self.rng.random() >= rate:
                continue
            if self._can_act(agent):
                continue
            for contract in newly_verified:
                if contract.record.producer == agent.sid:
                    continue
                cid = contract.contract_id
                if cid in self.contracts.market.listings:
                    try:
                        price = self.contracts.purchase(agent.sid, cid, group)
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

        # subscription renewals at period boundaries
        if cfg.economics.base_fee > 0:
            for agent in self.agents:
                if agent.credential.revoked:
                    continue
                sub = self.contracts.subscription
                while sub.paid_through.get(agent.sid, 0) <= round_no:
                    try:
                        charge = self.contracts.renew_subscription(agent.sid, round_no)
                    except NotYetExpired:
                        break
                    except CtiSimError as exc:
                        agent.events.append((round_no, type(exc).__name__))
                        agent.inactive = True
                        break
                    agent.current.income += cfg.economics.base_fee - charge
                    agent.inactive = False

        # metrics and the round's block
        for agent in self.agents:
            log = agent.current
            utility = compute_utility(log, cfg.utility)
            agent.total_utility += utility
            metrics.rows.append(
                MetricsRow(
                    round=round_no,
                    agent=agent.name,
                    reputation=self.contracts.reputation.score_of(agent.sid),
                    balance=self.contracts.market.balance_of(agent.sid),
                    shares=log.shares,
                    verified=log.verified,
                    rejected=log.rejected,
                    consumes=log.consumes,
                    forfeited=log.forfeited,
                    utility=utility,
                )
            )

        self._seal(chain, round_no)

    def _seal(self, chain: Chain, round_no: int) -> None:
        """Seal what the registry signed since the last block, in signing
        order; if that is nothing, an empty block only under `heartbeat`."""
        txs = self.registry.unsealed()
        if txs or self.cfg.heartbeat:
            append_block(
                chain,
                txs,
                sealer=self.contracts.authority,
                authenticator=self.registry.authenticate_committed,
                is_authority=self.registry.is_authority,
                timestamp=round_no,
                allow_empty=not txs,
            )

    # -- summaries ------------------------------------------------------------

    def _empty_summary(self) -> dict:
        return {
            "scenario": self.cfg.name,
            "rounds": 0,
            "seed": self.seed,
            "agents": {},
            "contracts": [],
            "campaigns": [],
            "aggregates": {},
        }

    def _build_summary(self, campaigns: list[Campaign]) -> dict:
        market = self.contracts.market
        contracts = sorted(
            self.contracts.contracts.values(),
            key=lambda c: (c.created_round, c.contract_id),
        )
        total_verified = sum(1 for c in contracts if c.status is _VERIFIED)
        total_rejected = sum(1 for c in contracts if c.status is _REJECTED)
        verified_fabricated = sum(
            1 for c in contracts if c.status is _VERIFIED and c.record.ground_truth is _FABRICATED
        )
        poisoning_rate = verified_fabricated / total_verified if total_verified else 0.0
        # moral-hazard observable: currency verifiers pocketed from forfeits
        if self.cfg.economics.forfeiture is ForfeiturePolicy.Split:
            verifier_forfeit_income = sum(
                (c.deposit // QUORUM) * QUORUM
                for c in contracts
                if c.status is _REJECTED
            )
        else:
            verifier_forfeit_income = 0

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
            "seed": self.seed,
            "agents": agents_summary,
            "contracts": [
                {
                    "contract_id": c.contract_id.hex(),
                    "producer": self._names[c.record.producer],
                    "status": c.status._value_,
                    "pi_score": c.score_micro / 1_000_000 if c.score_micro is not None else None,
                    "deposit": c.deposit,
                    "deposit_state": c.deposit_state._value_,
                    "verification_fee": c.verification_fee,
                    "sale_price": c.record.sale_price,
                    "created_round": c.created_round,
                    "finalized_round": c.finalized_round,
                    "votes": {
                        self._names[v]: c.votes[v]._value_
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
                "total_submissions": sum(len(a.share_rounds) for a in self.agents),
                "total_verified": total_verified,
                "total_rejected": total_rejected,
                "verified_fabricated": verified_fabricated,
                "poisoning_rate": round(poisoning_rate, 6),
                "revoked_agents": sum(1 for a in self.agents if a.credential.revoked),
                "verifier_forfeit_income": verifier_forfeit_income,
                "escrow": market.escrow,
                "held": market.held,
                "burned": market.burned,
                "total_supply": market.total_supply(),
                "minted": market.minted,
                "campaigns": len(campaigns),
            },
        }


def run_scenario(config: "ScenarioConfig", seed: Optional[int] = None) -> ScenarioResult:
    return Engine(config, seed).run()
