"""Campaign derivation from low-level indicators committed to the ledger.

Verified technical records become graph nodes. Two records are linked when
they share at least `min_overlap` indicator values and their rounds differ
by less than `window_rounds`; connected components with enough support are
reported as campaigns. The engine mines the records its own contracts
verified; any other node decodes the same records from the immutable
chain (`verified_technical_records`) and re-runs the derivation. Both give
the same campaigns, because mining reads only each record's id, indicator
values and round, and the partition does not depend on the records' order.
verify_derivation audits a claim that way and accepts it only if it is a
whole component, as mining would report it. Parameters mining cannot mine
with cannot be built (`MiningParams`), so neither checks them.

An audit mines a chain and then re-derives every claim from the same chain,
yet decodes it once: `verified_technical_records` keeps the last chain's
records, keyed by the identity of its block objects. Blocks are frozen, so
the same objects always decode to the same records, while a block swapped
into or appended to `chain.blocks` misses. Content is not the key, so two
reads of the same bytes each decode their own chain.

Links are found through an inverted index from each indicator value to the
records carrying it, ordered by round, so mining never compares every pair
of records. With `min_overlap == 1` only consecutive occurrences of a value
are linked, which is near-linear in the number of indicators.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from .cti import CtiCategory, CtiRecord, decode_record
from .encoding import Digest, bytes_seq_field, uint_field
from .errors import EncodingError
from .ledger import Block, Chain, TxKind, sha256
from .payloads import FinalizeBody, SubmitCtiBody


@dataclass(frozen=True)
class MiningParams:
    """The `mining:` section, and a campaign's parameters; any mining cannot mine with raises ValueError."""

    window_rounds: int = 10
    min_support: int = 3
    min_overlap: int = 1

    def __post_init__(self) -> None:
        for name, least in (("window_rounds", 1), ("min_support", 2), ("min_overlap", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")


class Campaign(NamedTuple):
    campaign_id: Digest
    member_records: frozenset[Digest]
    shared_indicators: frozenset[str]
    window: tuple[int, int]
    support: int
    params: MiningParams


# The blocks `verified_technical_records` last decoded, and their records.
# Holding the blocks keeps their ids from being reused while they are the
# key, and comparing identities, a miss reads no bytes. Read and replaced as
# one tuple, so no thread pairs one chain's blocks with another's records.
# Interim: it goes once an audit replays the chain and verify_derivation
# takes the records that replay decoded.
_last_decoded: tuple[tuple[Block, ...], tuple[CtiRecord, ...]] = ((), ())


def verified_technical_records(chain: Chain) -> list[CtiRecord]:
    """Decode submissions from the chain, keeping Verified Technical ones.

    Sorted by (round, record id), in a new list on every call. The chain is
    decoded only if `chain.blocks` no longer holds the very blocks of the
    last call.
    """
    global _last_decoded
    blocks = tuple(chain.blocks)
    seen, records = _last_decoded
    if len(seen) == len(blocks) and all(map(operator.is_, seen, blocks)):
        return list(records)
    records = tuple(_decode(blocks))
    _last_decoded = blocks, records
    return list(records)


def _decode(blocks: tuple[Block, ...]) -> list[CtiRecord]:
    records: dict[Digest, CtiRecord] = {}
    verified: set[Digest] = set()
    submit, finalize = TxKind.SubmitCti, TxKind.FinalizeVerification
    for block in blocks:
        for tx in block.transactions:
            kind = tx.kind
            try:
                if kind is submit:
                    body = SubmitCtiBody.decode(tx.payload)
                    records[body.contract_id] = decode_record(body.record_bytes)
                elif kind is finalize:
                    fin = FinalizeBody.decode(tx.payload)
                    if fin.status == "Verified":
                        verified.add(fin.contract_id)
            except EncodingError:
                continue
    out = [
        rec
        for cid, rec in records.items()
        if cid in verified and rec.category is CtiCategory.Technical
    ]
    out.sort(key=lambda r: (r.created_round, r.record_id))
    return out


def _campaign_id(members: list[Digest], params: MiningParams) -> Digest:
    return sha256(
        b"".join((
            b"campaign:",
            bytes_seq_field(sorted(members)),
            uint_field(params.window_rounds),
            uint_field(params.min_support),
            uint_field(params.min_overlap),
        ))
    )


def _components(records: list[CtiRecord], params: MiningParams) -> list[list[CtiRecord]]:
    """Union-find over records linked by indicator overlap within the window.

    Each indicator value indexes the records that carry it, in round order.
    With `min_overlap == 1`, consecutive occurrences of a value are united
    when their rounds differ by less than the window. That gives the same
    components as testing every pair: if one value occurs at rounds
    a <= b <= c and c - a < w, both adjacent gaps are also < w, and every
    consecutive link is itself a pairwise link. With a larger overlap, each
    value's list is walked only as far as the window reaches, counting the
    values every candidate pair shares; pairs reaching `min_overlap` are
    united.
    """
    parent = list(range(len(records)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    rounds = [r.created_round for r in records]
    index: dict[str, list[int]] = {}
    for i in sorted(range(len(records)), key=rounds.__getitem__):
        for value in {ioc.value for ioc in records[i].indicators}:
            index.setdefault(value, []).append(i)

    window = params.window_rounds
    if params.min_overlap == 1:
        for occurrences in index.values():
            for i, j in zip(occurrences, occurrences[1:]):
                if rounds[j] - rounds[i] < window:
                    union(i, j)
    else:
        shared: dict[tuple[int, int], int] = {}
        for occurrences in index.values():
            for p, i in enumerate(occurrences):
                for q in range(p + 1, len(occurrences)):
                    j = occurrences[q]
                    if rounds[j] - rounds[i] >= window:
                        break
                    pair = (i, j) if i < j else (j, i)
                    shared[pair] = shared.get(pair, 0) + 1
        for (i, j), count in shared.items():
            if count >= params.min_overlap:
                union(i, j)

    groups: dict[int, list[CtiRecord]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(find(i), []).append(rec)
    return list(groups.values())


def _build_campaign(members: list[CtiRecord], params: MiningParams) -> Campaign:
    seen: dict[str, int] = {}
    for rec in members:
        for value in set(ioc.value for ioc in rec.indicators):
            seen[value] = seen.get(value, 0) + 1
    shared = frozenset(v for v, n in seen.items() if n >= 2)
    ids = [r.record_id for r in members]
    rounds = [r.created_round for r in members]
    return Campaign(
        campaign_id=_campaign_id(ids, params),
        member_records=frozenset(ids),
        shared_indicators=shared,
        window=(min(rounds), max(rounds)),
        support=len(members),
        params=params,
    )


def mine_campaigns(
    source: Chain | list[CtiRecord], window_rounds: int, min_support: int, min_overlap: int
) -> list[Campaign]:
    """Campaigns among the Verified Technical records of `source`.

    A `Chain` is decoded through `verified_technical_records`; a list is
    taken to be those records already and is mined as given. The result
    does not depend on the records' order.
    """
    params = MiningParams(window_rounds, min_support, min_overlap)
    records = verified_technical_records(source) if isinstance(source, Chain) else source
    campaigns = [
        _build_campaign(group, params)
        for group in _components(records, params)
        if len(group) >= min_support
    ]
    campaigns.sort(key=lambda c: c.campaign_id)
    return campaigns


def verify_derivation(campaign: Campaign, chain: Chain) -> bool:
    """Audit a mined claim: re-derive it from the chain.

    The claim holds only if its members are one whole component of the
    graph over every Verified Technical record on the chain, under the
    claim's parameters, with at least `min_support` records, and the claim
    is what mining builds from that component. A connected part of a
    component is refused: mining would never report it.
    """
    params = campaign.params
    members = campaign.member_records
    for group in _components(verified_technical_records(chain), params):
        if any(rec.record_id in members for rec in group):
            return len(group) >= params.min_support and _build_campaign(group, params) == campaign
    return False
