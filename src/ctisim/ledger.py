"""Append-only hash-linked block store.

One block is sealed per simulation round by the platform authority, so a
block's round is its height minus one; sealing is by authority, not by
proof of work, and a header holds only its height, the previous header's
hash, its Merkle root and its sealer. Tamper evidence comes from three
commitments: transaction ids (hash of author, kind and payload), per-block
Merkle roots over transaction ids, and the previous-header hash carried by
every block. Nothing is signed: any reader can recompute every commitment,
so VALID means the links, ids, roots and credential rules hold, not that a
key holder wrote the chain.

A transaction is an immutable named tuple, built by one `tuple.__new__`
with no per-field `__setattr__`; setting a field raises AttributeError,
and its equality and hash are those of its field tuple. Blocks are named
tuples too, and the chain is a slotted class, compared and printed through
`encoding.ComparedByFields`: a dataclass generates and compiles its
methods at every import, which costs more start-up time than a run
spends building its blocks. `Transaction.create` defines a transaction's
id; transactions are made in one place, `identity.Registry.commit`.
Sealing (`append_block`) asks an authenticator whether each transaction is
its registered author's; the registry's authenticator trusts the unsealed
objects it made itself and re-derives every other transaction.
verify_chain trusts nothing: it replays the whole chain, re-deriving every
id and Merkle root, and rebuilds the credentials by applying each
transaction to a fresh registry through
`identity.Registry.apply`, the rulebook the registry applies to every
transaction it commits, so that a bare dump can be re-verified with no
out-of-band state.

The chain.json dump format is fixed: it is byte for byte what
``json.dumps(obj, indent=2) + "\n"`` wrote for a list of block objects
(integer fields, hex-encoded byte fields, the transaction kind by name).
chain_to_json emits those bytes directly, for the whole chain or for a
range of its blocks, so a writer can emit the dump one block at a time and
never hold all of it; chain_from_json refuses an object with any key the
writer does not write. Hex fields are decoded strictly
(binascii.unhexlify), so whitespace inside one is refused; what the JSON
parser itself accepts still reads, as does uppercase hex: JSON
whitespace between tokens, keys in any order, and a duplicated key (its
last value wins). chain_from_json builds each transaction and block as
json.loads parses its object, with no parsed copy of the dump in between,
so a read needs little more memory than the chain it returns. A refusal of
bad hex names the field and the block or transaction that holds it; only a
failed read pays for finding them, by parsing the dump a second time.
"""

from __future__ import annotations

import binascii
import hashlib
import json
from itertools import chain as chain_items, repeat
from typing import Callable, Iterable, NamedTuple, Optional

from .encoding import (
    COUNT,
    UINT_LIMIT,
    ZERO_DIGEST,
    ComparedByFields,
    Digest,
    TaggedEnum,
    bytes_field,
    uint_field,
)
from .errors import CtiSimError, EncodingError, UnauthenticatedTransaction, UnauthorizedSealer

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


# each kind by its name, as chain.json spells it
_KIND_BY_NAME = {kind.value: kind for kind in TxKind}


class Transaction(NamedTuple):
    tx_id: Digest
    author: Digest
    kind: TxKind
    payload: bytes

    @classmethod
    def create(cls, author: Digest, kind: TxKind, payload: bytes) -> "Transaction":
        """The one definition of a transaction's id: sha256 of the canonical
        encoding of (author, kind name, payload)."""
        tx_id = _sha256(_pack_count(len(author)) + author + kind.tag + _pack_count(len(payload)) + payload).digest()
        return _tuple_new(cls, (tx_id, author, kind, payload))


class Block(NamedTuple):
    height: int
    prev_hash: Digest
    merkle_root: Digest
    sealer: Digest
    transactions: tuple[Transaction, ...]


class Chain(ComparedByFields):
    __slots__ = ("blocks",)

    def __init__(self, blocks: list[Block]):
        self.blocks = blocks

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
            bytes_field(block.sealer),
        ))
    )


# Whether a transaction is its registered author's, with its id derived
# (see identity.Registry.authenticate_committed).
Authenticator = Callable[[Transaction], bool]


def append_block(
    chain: Chain,
    txs: list[Transaction],
    sealer: Digest,
    authenticator: Authenticator,
    is_authority: Callable[[Digest], bool],
) -> Block:
    """Seal a new block onto the chain; an empty one is a heartbeat.

    A sealer without authority is refused before any transaction is
    authenticated. The authenticator answers for each transaction's author
    and id; any transaction it refuses raises UnauthenticatedTransaction,
    and a refused seal changes nothing. The registry's authenticator takes the
    objects it made and still queues as they are and re-derives any other
    transaction; the registry's queue drops a block's transactions only
    once the block is sealed (`Registry.mark_sealed`). It is
    position-independent on purpose: a round's block may contain
    transactions authored just before a same-round revocation. Revocation
    ordering is enforced by `identity.Registry.apply`, which refuses a
    revoked author both when `Registry.commit` makes a transaction and when
    verify_chain replays the chain.
    """
    if not is_authority(sealer):
        raise UnauthorizedSealer(f"sealer {sealer.hex()[:12]} lacks authority")
    for tx in txs:
        if not authenticator(tx):
            raise UnauthenticatedTransaction(tx.tx_id)

    block = Block(
        height=len(chain.blocks),
        prev_hash=hash_header(chain.head),
        merkle_root=merkle_root(txs),
        sealer=sealer,
        transactions=tuple(txs),
    )
    chain.blocks.append(block)
    return block


class VerificationReport(NamedTuple):
    valid: bool
    first_bad_height: Optional[int] = None
    reason: Optional[str] = None


def verify_chain(chain: Chain) -> VerificationReport:
    """Replay the chain and report the earliest invariant violation.

    Checks every header, Merkle root and transaction id, that no
    transaction id repeats, and replays each transaction in chain order
    through `Registry.apply` on a fresh `identity.Registry`, the credential
    rules the platform commits by; an illegal transaction is reported by the
    reason apply refuses it with. Block 0 must equal
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

    for i, block in enumerate(chain.blocks[1:], start=1):
        def bad(reason: str) -> VerificationReport:
            return VerificationReport(False, i, reason)

        if block.height != i:
            return bad("height mismatch")
        if block.prev_hash != hash_header(chain.blocks[i - 1]):
            return bad("broken prev_hash link")
        if block.merkle_root != merkle_root(block.transactions):
            return bad("merkle root mismatch")

        for tx_id, author, kind, payload in block.transactions:
            # Transaction.create's id, inline
            digest = _sha256(_pack_count(len(author)) + author + kind.tag + _pack_count(len(payload)) + payload)
            if tx_id != digest.digest():
                return bad("transaction id mismatch")
            if tx_id in seen_ids:
                return bad("duplicate transaction id")
            seen_ids.add(tx_id)
            try:
                apply(author, kind, payload)
            except CtiSimError as exc:
                return bad(str(exc))

        if block.sealer not in authorities:
            return bad("sealer lacks Authority role")
        if credentials[block.sealer].revoked:
            return bad("sealer revoked")

    return VerificationReport(True)


# --- chain.json dump -------------------------------------------------------

def _tx_to_json(sep: str, t: Transaction) -> str:
    return (
        f"{sep}      {{\n"
        f'        "tx_id": "{t.tx_id.hex()}",\n'
        f'        "author": "{t.author.hex()}",\n'
        f'        "kind": "{t.kind._value_}",\n'
        f'        "payload": "{t.payload.hex()}"\n'
        "      }"
    )


def chain_to_json(chain: Chain, start: int = 0, stop: Optional[int] = None) -> str:
    """The text of blocks[start:stop] in the chain.json dump, the bytes
    json.dumps(indent=2) wrote plus "\\n"; the whole-chain call is the dump.

    Each block's text opens with its separator ("[\\n" before block 0,
    ",\\n" before any other) and the last block's closes the array, so the
    texts of consecutive ranges that cover the chain join to the dump, and
    a range of no block is "". An empty chain's text is "[]\\n".

    Blocks and transactions are emitted field by field in the fixed order
    chain_from_json reads. Every value is an integer, a hex string or a
    TxKind name, so nothing needs JSON escaping. Each block head and each
    transaction is one text opening with its separator, all joined once.

    `cli` writes chain.json with one call per block, so the whole dump is
    never held at once. A generator of block texts would be simpler, and is
    the design to move to once the benchmark's tracer, which times and sizes
    the write by wrapping `cli.chain_to_json`, moves that patch.
    """
    blocks = chain.blocks
    if not blocks:
        return "[]\n"
    parts, sep = [], ",\n" if start else "[\n"
    for b in blocks[start:stop]:
        parts.append(
            f"{sep}  {{\n"
            f'    "height": {b.height},\n'
            f'    "prev_hash": "{b.prev_hash.hex()}",\n'
            f'    "merkle_root": "{b.merkle_root.hex()}",\n'
            f'    "sealer": "{b.sealer.hex()}",\n'
            '    "transactions": ['
        )
        parts += map(_tx_to_json, chain_items(("\n",), repeat(",\n")), b.transactions)
        parts.append("\n    ]\n  }" if b.transactions else "]\n  }")
        sep = ",\n"
    if start < len(blocks) and (stop is None or stop >= len(blocks)):
        parts.append("\n]\n")
    return "".join(parts)


def _int(value) -> int:
    """A dump's integer field: a JSON integer in [0, 2**64), not a float,
    a boolean or a string."""
    if type(value) is not int or not 0 <= value < UINT_LIMIT:
        raise ValueError(f"expected an unsigned 64-bit integer, got {value!r}")
    return value


# the keys chain_to_json writes for each object kind, and no others
_TX_KEYS = frozenset(Transaction._fields)
_BLOCK_KEYS = frozenset(Block._fields)


def _refuse_unknown_key(obj: dict, keys: frozenset, what: str) -> None:
    unknown = obj.keys() - keys
    if unknown:
        raise ValueError(f"{what} with unknown key {min(unknown)!r}")


# the hex fields of each object kind, in the order the reader decodes them
_TX_HEX_KEYS = ("tx_id", "author", "payload")
_BLOCK_HEX_KEYS = ("prev_hash", "merkle_root", "sealer")


class _Located(Exception):
    """Stops a second parse at the bad hex field it names."""


def _bad_hex_field(text: str, build: Callable[[dict], object], error: ValueError) -> Optional[str]:
    """Where in the dump the hex field sits whose decoding raised `error`,
    such as "'payload' of transaction 0 in block 1", or None if `error` was
    not bad hex.

    Only a failed read calls this: it parses the dump again through
    `build`, counting the blocks and transactions built, and at the first
    object `build` refuses names the first of its hex fields that fails to
    decode with `error`'s own type and text. Blocks and a block's
    transactions are counted from 0, so block N is the block of height N in
    a well-formed chain.
    """
    blocks = txs = 0

    def counted(obj: dict):
        nonlocal blocks, txs
        try:
            value = build(obj)
        except ValueError:
            is_block = "transactions" in obj
            for key in _BLOCK_HEX_KEYS if is_block else _TX_HEX_KEYS:
                hex_text = obj.get(key)
                if type(hex_text) is not str:
                    continue
                try:
                    binascii.unhexlify(hex_text)
                except ValueError as exc:
                    if type(exc) is type(error) and str(exc) == str(error):
                        where = f"block {blocks}" if is_block else f"transaction {txs} in block {blocks}"
                        raise _Located(f"{key!r} of {where}") from None
            raise
        if type(value) is Block:
            blocks, txs = blocks + 1, 0
        else:
            txs += 1
        return value

    try:
        json.loads(text, object_hook=counted)
    except _Located as located:
        return located.args[0]
    except ValueError:  # `error` again, from no hex field
        pass
    return None


class _HexIds(dict):
    """Stakeholder ids by their hex text, each decoded on first use."""

    def __missing__(self, hex_id: str) -> Digest:
        digest = self[hex_id] = binascii.unhexlify(hex_id)
        return digest


def chain_from_json(text: str) -> Chain:
    """Read a chain.json dump back; raises EncodingError, and nothing else,
    for a malformed one (a value of the wrong JSON type, a missing key, a
    key the writer does not write or an unknown kind, each named by the
    error, so a dump of an earlier format, with a transaction signature or
    an `AccessGrant`, is refused by that name; an integer field that is not
    a JSON integer in [0, 2**64); bad hex, named by its field and the block
    or transaction that holds it; an object where it does not belong). Hex
    is decoded strictly: whitespace inside a hex field is bad hex, though
    uppercase digits read, and so do JSON whitespace, key order and
    duplicate keys, which json.loads settles (the last value wins).

    Each JSON object becomes a Transaction, or a Block if it has a
    ``transactions`` key, as soon as json.loads has parsed it, so no parsed
    copy of the dump is ever held. Each distinct author or sealer is decoded
    once and shared by every object that names it.
    """
    kinds = _KIND_BY_NAME
    unhex = binascii.unhexlify
    ids = _HexIds()

    def build(obj: dict):
        # The common case first: four keys of which all four subscripts
        # succeed are exactly a transaction's, so it is built positionally,
        # as Transaction.create builds it. A KeyError falls through to the
        # checks below, which name the unknown key, missing key or kind.
        if len(obj) == 4:
            try:
                return _tuple_new(
                    Transaction, (unhex(obj["tx_id"]), ids[obj["author"]], kinds[obj["kind"]], unhex(obj["payload"]))
                )
            except KeyError:
                pass
        if "transactions" not in obj:
            _refuse_unknown_key(obj, _TX_KEYS, "transaction")
            # with no unknown key, this raises the KeyError of a missing
            # key or an unknown kind
            return Transaction(unhex(obj["tx_id"]), ids[obj["author"]], kinds[obj["kind"]], unhex(obj["payload"]))
        _refuse_unknown_key(obj, _BLOCK_KEYS, "block")
        txs = obj["transactions"]
        if type(txs) is not list:
            raise TypeError("transactions must be a list")
        for tx in txs:
            if type(tx) is not Transaction:
                raise TypeError(f"expected a transaction, got {type(tx).__name__}")
        return Block(
            _int(obj["height"]), unhex(obj["prev_hash"]), unhex(obj["merkle_root"]), ids[obj["sealer"]], tuple(txs),
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
    except ValueError as exc:
        where = _bad_hex_field(text, build, exc)
        detail = f"bad hex in {where}: {exc}" if where else repr(exc)
        raise EncodingError(f"malformed chain dump: {detail}") from exc
    except (KeyError, TypeError) as exc:
        raise EncodingError(f"malformed chain dump: {exc!r}") from exc
    return Chain(blocks)
