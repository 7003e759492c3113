"""Append-only hash-linked block store.

One block is sealed per simulation round by the platform authority; block
timestamps are round numbers, never wall clock, and the header nonce is
always 0 (sealing is by authority, not by proof of work). Tamper evidence
comes from three commitments: transaction ids (hash of author, kind and
payload), per-block Merkle roots over transaction ids, and the
previous-header hash carried by every block.

A transaction is an immutable named tuple, built by one `tuple.__new__`
with no per-field `__setattr__`; setting a field raises AttributeError,
and its equality and hash are those of its field tuple. Blocks and the
chain stay dataclasses: a run seals far fewer of them. `Transaction.create`
defines both a transaction's digests; transactions are signed in one
place, `identity.Registry.sign`. Sealing (`append_block`) asks an
authenticator for each transaction's id and signature; the registry's
authenticator trusts the unsealed objects it signed itself and re-derives
every other transaction. verify_chain trusts
nothing: it replays the whole chain, re-deriving every id, Merkle root
and signature, and rebuilds the credentials by applying each transaction
to a fresh registry through `identity.Registry.apply`, the rulebook the
registry applies to every transaction it signs, so that a bare dump can
be re-verified with no out-of-band state.

The chain.json dump format is fixed: it is byte for byte what
``json.dumps(obj, indent=2) + "\n"`` wrote for a list of block objects
(integer fields, hex-encoded byte fields, the transaction kind by name).
chain_to_json emits those bytes directly. chain_from_json builds each
transaction and block as json.loads parses its object, with no parsed copy
of the dump in between, so a read needs little more memory than the chain
it returns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain as chain_items, repeat
from typing import Callable, Iterable, NamedTuple, Optional

from .encoding import COUNT, UINT_LIMIT, ZERO_DIGEST, Digest, TaggedEnum, bytes_field, str_field, uint_field
from .errors import CtiSimError, EncodingError, InvalidSignature, UnauthorizedSealer

_sha256 = hashlib.sha256
_pack_count = COUNT.pack
_tuple_new = tuple.__new__


def sha256(data: bytes) -> Digest:
    return _sha256(data).digest()


class TxKind(TaggedEnum):
    Register = "Register"
    SubmitCti = "SubmitCti"
    Vote = "Vote"
    FinalizeVerification = "FinalizeVerification"
    Purchase = "Purchase"
    RenewSubscription = "RenewSubscription"
    ReputationUpdate = "ReputationUpdate"
    AccessGrant = "AccessGrant"


# each kind by its name, as chain.json spells it
_KIND_BY_NAME = {kind.value: kind for kind in TxKind}
# bound once: `TxKind.X` goes through the Enum metaclass
_REGISTER = TxKind.Register


class Transaction(NamedTuple):
    tx_id: Digest
    author: Digest
    kind: TxKind
    payload: bytes
    signature: bytes

    @classmethod
    def create(cls, author: Digest, kind: TxKind, payload: bytes, secret: bytes) -> "Transaction":
        """The one definition of a transaction's two digests:

        - id: sha256 of the canonical encoding of (author, kind name, payload);
        - signature, simulated: sha256 of the canonical encoding of (secret,
          payload), a digest keyed by the credential secret.

        Both end with the payload's byte-string field, built once.
        """
        payload_field = _pack_count(len(payload)) + payload
        tx_id = _sha256(_pack_count(len(author)) + author + kind.tag + payload_field).digest()
        signature = _sha256(_pack_count(len(secret)) + secret + payload_field).digest()
        return _tuple_new(cls, (tx_id, author, kind, payload, signature))


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: Digest
    merkle_root: Digest
    timestamp: int
    nonce: int
    sealer: Digest
    transactions: tuple[Transaction, ...]


@dataclass
class Chain:
    blocks: list[Block] = field(default_factory=list)

    @classmethod
    def new(cls) -> "Chain":
        return cls(blocks=[make_genesis()])

    @property
    def head(self) -> Block:
        return self.blocks[-1]


def make_genesis() -> Block:
    """Genesis is fixed: all-zero linkage, no transactions, zero sealer."""
    return Block(
        height=0,
        prev_hash=ZERO_DIGEST,
        merkle_root=merkle_root(()),
        timestamp=0,
        nonce=0,
        sealer=ZERO_DIGEST,
        transactions=(),
    )


def merkle_root(transactions: Iterable[Transaction]) -> Digest:
    """Merkle root over transaction ids; odd levels duplicate the last node."""
    level = [tx.tx_id for tx in transactions]
    if not level:
        return ZERO_DIGEST
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [_sha256(left + right).digest() for left, right in zip(level[::2], level[1::2])]
    return level[0]


def hash_header(block: Block) -> Digest:
    """Digest of the canonical encoding of every header field, in order."""
    return sha256(
        b"".join((
            uint_field(block.height),
            bytes_field(block.prev_hash),
            bytes_field(block.merkle_root),
            uint_field(block.timestamp),
            uint_field(block.nonce),
            bytes_field(block.sealer),
        ))
    )


# Whether a transaction's id and signature are its author's (see
# identity.Registry.authenticate_committed).
Authenticator = Callable[[Transaction], bool]


def append_block(
    chain: Chain,
    txs: list[Transaction],
    sealer: Digest,
    authenticator: Authenticator,
    is_authority: Callable[[Digest], bool],
    timestamp: int,
) -> Block:
    """Seal a new block onto the chain; an empty one is a heartbeat.

    A sealer without authority is refused before any transaction is
    authenticated. The authenticator answers for each transaction's id and
    signature; any transaction it refuses raises InvalidSignature, and a
    refused seal changes nothing. The registry's authenticator takes the
    objects it signed and still queues as they are and re-derives both
    digests for any other transaction; the registry's queue drops a block's
    transactions only once the block is sealed (`Registry.mark_sealed`). It is
    position-independent on purpose: a round's block may contain
    transactions authored just before a same-round revocation. Revocation
    ordering is enforced by `identity.Registry.apply`, which refuses a
    revoked author both when `Registry.sign` makes a transaction and when
    verify_chain replays the chain.
    """
    if not is_authority(sealer):
        raise UnauthorizedSealer(f"sealer {sealer.hex()[:12]} lacks authority")
    for tx in txs:
        if not authenticator(tx):
            raise InvalidSignature(tx.tx_id)

    block = Block(
        height=len(chain.blocks),
        prev_hash=hash_header(chain.head),
        merkle_root=merkle_root(txs),
        timestamp=timestamp,
        nonce=0,
        sealer=sealer,
        transactions=tuple(txs),
    )
    chain.blocks.append(block)
    return block


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    first_bad_height: Optional[int] = None
    reason: Optional[str] = None


def verify_chain(chain: Chain) -> VerificationReport:
    """Replay the chain and report the earliest invariant violation.

    Checks every header, Merkle root, transaction id and signature, that
    no transaction id repeats, and replays each transaction in chain order
    through `Registry.apply` on a fresh `identity.Registry`, the credential
    rules the platform signs by; an illegal transaction is reported by the
    reason apply refuses it with. Register payloads carry each credential's
    secret, so every signature (the first authority's self-registration
    too) is recheckable from the dump alone. Block 0 must equal
    `make_genesis()`, field for field. A block may be empty; every block
    after genesis must be sealed by an authority not revoked in an earlier
    block or in its own.
    """
    from .identity import Registry

    if not chain.blocks:
        return VerificationReport(False, 0, "missing genesis block")
    if chain.blocks[0] != make_genesis():
        return VerificationReport(False, 0, "genesis is not the fixed genesis block")

    registry = Registry()
    apply, credentials, authorities = registry.apply, registry.credentials, registry.authorities
    seen_ids: set[bytes] = set()
    prev_timestamp = 0

    for i, block in enumerate(chain.blocks[1:], start=1):
        def bad(reason: str) -> VerificationReport:
            return VerificationReport(False, i, reason)

        if block.height != i:
            return bad("height mismatch")
        if block.prev_hash != hash_header(chain.blocks[i - 1]):
            return bad("broken prev_hash link")
        if block.timestamp < prev_timestamp:
            return bad("timestamp decreased")
        if block.merkle_root != merkle_root(block.transactions):
            return bad("merkle root mismatch")
        if block.nonce != 0:
            return bad("nonzero nonce")

        for tx in block.transactions:
            author, kind, payload = tx.author, tx.kind, tx.payload
            # Transaction.create's digests, inline: the id is checked before
            # apply returns the secret that keys the signature.
            payload_field = _pack_count(len(payload)) + payload
            tx_id = _sha256(_pack_count(len(author)) + author + kind.tag + payload_field).digest()
            if tx.tx_id != tx_id:
                return bad("transaction id mismatch")
            if tx_id in seen_ids:
                return bad("duplicate transaction id")
            seen_ids.add(tx_id)
            try:
                secret = apply(author, kind, payload)
            except CtiSimError as exc:
                return bad(str(exc))
            if tx.signature != _sha256(_pack_count(len(secret)) + secret + payload_field).digest():
                return bad("bad Register signature" if kind is _REGISTER else "bad signature")

        if block.sealer not in authorities:
            return bad("sealer lacks Authority role")
        if credentials[block.sealer].revoked:
            return bad("sealer revoked")
        prev_timestamp = block.timestamp

    return VerificationReport(True)


# --- chain.json dump -------------------------------------------------------

def _tx_to_json(sep: str, t: Transaction) -> str:
    return (
        f"{sep}      {{\n"
        f'        "tx_id": "{t.tx_id.hex()}",\n'
        f'        "author": "{t.author.hex()}",\n'
        f'        "kind": "{t.kind._value_}",\n'
        f'        "payload": "{t.payload.hex()}",\n'
        f'        "signature": "{t.signature.hex()}"\n'
        "      }"
    )


def chain_to_json(chain: Chain) -> str:
    """The chain.json dump: the bytes json.dumps(indent=2) wrote, plus "\\n".

    Blocks and transactions are emitted field by field in the fixed order
    chain_from_json reads. Every value is an integer, a hex string or a
    TxKind name, so nothing needs JSON escaping. Each block head and each
    transaction is one text opening with its separator, all joined once.
    """
    if not chain.blocks:
        return "[]\n"
    parts, sep = [], "[\n"
    for b in chain.blocks:
        parts.append(
            f"{sep}  {{\n"
            f'    "height": {b.height},\n'
            f'    "prev_hash": "{b.prev_hash.hex()}",\n'
            f'    "merkle_root": "{b.merkle_root.hex()}",\n'
            f'    "timestamp": {b.timestamp},\n'
            f'    "nonce": {b.nonce},\n'
            f'    "sealer": "{b.sealer.hex()}",\n'
            '    "transactions": ['
        )
        parts += map(_tx_to_json, chain_items(("\n",), repeat(",\n")), b.transactions)
        parts.append("\n    ]\n  }" if b.transactions else "]\n  }")
        sep = ",\n"
    parts.append("\n]\n")
    return "".join(parts)


def _int(value) -> int:
    """A dump's integer field: a JSON integer in [0, 2**64), not a float,
    a boolean or a string."""
    if type(value) is not int or not 0 <= value < UINT_LIMIT:
        raise ValueError(f"expected an unsigned 64-bit integer, got {value!r}")
    return value


class _HexIds(dict):
    """Stakeholder ids by their hex text, each decoded on first use."""

    def __missing__(self, hex_id: str) -> Digest:
        digest = self[hex_id] = bytes.fromhex(hex_id)
        return digest


def chain_from_json(text: str) -> Chain:
    """Read a chain.json dump back; raises EncodingError, and nothing else,
    for a malformed one (a value of the wrong JSON type, a missing key, an
    unknown kind, an integer field that is not a JSON integer in [0, 2**64),
    bad hex, an object where it does not belong).

    Each JSON object becomes a Transaction, or a Block if it has a
    ``transactions`` key, as soon as json.loads has parsed it, so no parsed
    copy of the dump is ever held. Each distinct author or sealer is decoded
    once and shared by every object that names it.
    """
    kinds = _KIND_BY_NAME
    unhex = bytes.fromhex
    ids = _HexIds()

    def build(obj: dict):
        if "transactions" not in obj:
            return Transaction(
                unhex(obj["tx_id"]), ids[obj["author"]], kinds[obj["kind"]], unhex(obj["payload"]),
                unhex(obj["signature"]),
            )
        txs = obj["transactions"]
        if type(txs) is not list:
            raise TypeError("transactions must be a list")
        for tx in txs:
            if type(tx) is not Transaction:
                raise TypeError(f"expected a transaction, got {type(tx).__name__}")
        return Block(
            _int(obj["height"]), unhex(obj["prev_hash"]), unhex(obj["merkle_root"]),
            _int(obj["timestamp"]), _int(obj["nonce"]), ids[obj["sealer"]], tuple(txs),
        )

    try:
        blocks = json.loads(text, object_hook=build)
        if type(blocks) is not list:
            raise TypeError("chain dump must be a JSON array of blocks")
        for block in blocks:
            if type(block) is not Block:
                raise TypeError(f"expected a block, got {type(block).__name__}")
    except json.JSONDecodeError as exc:
        raise EncodingError(f"unparseable chain dump: {exc}") from exc
    except RecursionError:
        raise EncodingError("unparseable chain dump: nested too deeply") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise EncodingError(f"malformed chain dump: {exc!r}") from exc
    return Chain(blocks)
