import gc
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from ctisim.config import load_config
from ctisim.encoding import ZERO_DIGEST
from ctisim.errors import EncodingError, UnauthenticatedTransaction, UnauthorizedSealer
from ctisim.identity import Registry, Role, evidence_for
from ctisim.ledger import (
    Block,
    Chain,
    Transaction,
    TxKind,
    append_block,
    chain_from_json,
    chain_to_json,
    hash_header,
    make_genesis,
    merkle_root,
    sha256,
    verify_chain,
)
from ctisim.payloads import FinalizeBody, ReputationUpdateBody, VoteBody
from ctisim.simulation import run_scenario
from tests.conftest import SCENARIO_DIR
from tests.reference_writer import Writer, ref_id
from tests.test_identity import proof, register

# Pinned once from the pure-python implementation below.
GENESIS_HEADER_DIGEST = "3e1e164fc44640616ddcc37f3809ff8d2ed0720b6e26dd45f1bd837ec916ced8"


# --- independent SHA-256 (oracle, no hashlib) --------------------------------

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]


def _rotr(x, n):
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


def reference_sha256(message: bytes) -> bytes:
    h = [
        0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
        0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
    ]
    length = len(message) * 8
    message += b"\x80"
    while len(message) % 64 != 56:
        message += b"\x00"
    message += length.to_bytes(8, "big")
    for start in range(0, len(message), 64):
        w = [int.from_bytes(message[start + 4 * i : start + 4 * i + 4], "big") for i in range(16)]
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, hh = h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (hh + s1 + ch + _K[i] + w[i]) & 0xFFFFFFFF
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (s0 + maj) & 0xFFFFFFFF
            hh, g, f, e, d, c, b, a = g, f, e, (d + t1) & 0xFFFFFFFF, c, b, a, (t1 + t2) & 0xFFFFFFFF
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, [a, b, c, d, e, f, g, hh])]
    return b"".join(x.to_bytes(4, "big") for x in h)


# --- fixtures -----------------------------------------------------------------

def fresh_registry():
    reg = Registry()
    auth = register(reg, proof("authority", {Role.Authority}))
    user = register(reg, proof("user", {Role.Producer, Role.Consumer}), auth.stakeholder)
    return reg, auth, user, reg.unsealed()


def tx_by(cred, kind=TxKind.Vote, payload=None):
    """A transaction by `cred`; by default a Vote, a kind any registered
    stakeholder may author."""
    if payload is None:
        payload = VoteBody(sha256(b"contract:" + cred.stakeholder), "HighQuality").encode()
    return Transaction.create(cred.stakeholder, kind, payload)


def build_chain(n_extra_blocks=2):
    reg, auth, user, reg_txs = fresh_registry()
    chain = Chain.new()
    reg.mark_sealed(
        append_block(chain, reg_txs, auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    )
    for r in range(1, n_extra_blocks + 1):
        # a vote per round, so that no transaction repeats
        vote = VoteBody(sha256(b"contract:%d" % r), "HighQuality").encode()
        append_block(
            chain,
            [tx_by(user, payload=vote), tx_by(auth, payload=vote)],
            auth.stakeholder,
            reg.authenticate_committed,
            reg.is_authority,
        )
    return chain, reg, auth, user


def query(chain, kind=None, author=None, round_range=None):
    """All matching transactions in chain order; filters are conjunctive.
    A block's round is its height minus one."""
    out = []
    for block in chain.blocks:
        if round_range is not None:
            lo, hi = round_range
            if not (lo <= block.height - 1 <= hi):
                continue
        for tx in block.transactions:
            if kind is not None and tx.kind is not kind:
                continue
            if author is not None and tx.author != author:
                continue
            out.append(tx)
    return out


# --- hash_header ----------------------------------------------------------------

def ref_hash_header(block):
    w = Writer()
    w.put_uint(block.height)
    w.put_bytes(block.prev_hash)
    w.put_bytes(block.merkle_root)
    w.put_bytes(block.sealer)
    return reference_sha256(w.getvalue())


def test_genesis_header_matches_reference_implementation():
    g = make_genesis()
    assert ref_hash_header(g).hex() == GENESIS_HEADER_DIGEST
    assert hash_header(g).hex() == GENESIS_HEADER_DIGEST


@settings(max_examples=200, deadline=None)
@given(
    height=st.integers(min_value=0, max_value=2**64 - 1),
    digests=st.tuples(*[st.binary(max_size=40)] * 3),
)
def test_hash_header_matches_reference_on_random_headers(height, digests):
    prev_hash, root, sealer = digests
    block = Block(height, prev_hash, root, sealer, ())
    assert hash_header(block) == ref_hash_header(block)


def test_hash_header_deterministic():
    g = make_genesis()
    assert hash_header(g) == hash_header(make_genesis())


def test_payload_byte_flip_changes_header_digest():
    chain, reg, auth, user = build_chain(1)
    block = chain.blocks[2]
    tampered_payload = bytearray(block.transactions[0].payload)
    tampered_payload[0] ^= 0x01
    tampered_tx = Transaction(
        tx_id=ref_id(block.transactions[0].author, block.transactions[0].kind, bytes(tampered_payload)),
        author=block.transactions[0].author,
        kind=block.transactions[0].kind,
        payload=bytes(tampered_payload),
    )
    new_root = merkle_root([tampered_tx, block.transactions[1]])
    assert new_root != block.merkle_root
    tampered_block = Block(block.height, block.prev_hash, new_root, block.sealer, (tampered_tx,))
    assert hash_header(tampered_block) != hash_header(block)


# --- append_block ----------------------------------------------------------------

def test_append_links_to_previous_header():
    reg, auth, user, reg_txs = fresh_registry()
    chain = Chain.new()
    block = append_block(chain, reg_txs, auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    assert len(chain.blocks) == 2
    assert block.prev_hash == hash_header(chain.blocks[0])
    assert block.height == 1


def test_append_rejects_wrong_tx_id():
    reg, auth, user, _ = fresh_registry()
    bad = tx_by(user)._replace(tx_id=sha256(b"another id"))
    with pytest.raises(UnauthenticatedTransaction):
        append_block(Chain.new(), [bad], auth.stakeholder, reg.authenticate_committed, reg.is_authority)


def test_append_rejects_an_unregistered_author_with_a_derived_id():
    reg, auth, _, _ = fresh_registry()
    stranger = Transaction.create(sha256(b"stranger"), TxKind.Vote, tx_by(auth).payload)
    with pytest.raises(UnauthenticatedTransaction, match="has an unregistered author"):
        append_block(Chain.new(), [stranger], auth.stakeholder, reg.authenticate_committed, reg.is_authority)


@pytest.mark.parametrize(
    "change", [{"payload": b"forged"}, {"tx_id": b"\x00" * 32}], ids=["payload", "tx_id"]
)
def test_append_rejects_altered_copy_of_registry_signed_tx(change):
    reg, auth, user, _ = fresh_registry()
    signed = reg.commit(user.stakeholder, TxKind.Vote, tx_by(user).payload)
    with pytest.raises(UnauthenticatedTransaction):
        append_block(
            Chain.new(), [signed._replace(**change)], auth.stakeholder,
            reg.authenticate_committed, reg.is_authority,
        )


def test_append_rejects_non_authority_sealer():
    reg, auth, user, _ = fresh_registry()
    chain = Chain.new()
    with pytest.raises(UnauthorizedSealer):
        append_block(chain, [tx_by(user)], user.stakeholder, reg.authenticate_committed, reg.is_authority)


def test_refused_sealer_leaves_the_round_to_seal():
    reg, auth, user, _ = fresh_registry()
    signed = reg.unsealed()
    chain = Chain.new()
    with pytest.raises(UnauthorizedSealer):
        append_block(chain, signed, user.stakeholder, reg.authenticate_committed, reg.is_authority)
    assert reg.unsealed() == signed and len(chain.blocks) == 1
    reg.mark_sealed(
        append_block(chain, signed, auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    )
    assert reg.unsealed() == [] and verify_chain(chain).valid


@pytest.mark.parametrize("forged_at", [0, 1, 2])
def test_a_forgery_anywhere_in_the_list_leaves_the_queue_as_it_was(forged_at):
    reg, auth, user, _ = fresh_registry()
    for n in range(3):
        reg.commit(user.stakeholder, TxKind.Vote, VoteBody(sha256(b"contract:%d" % n), "HighQuality").encode())
    queued = reg.unsealed()
    txs = queued[-3:]
    txs[forged_at] = txs[forged_at]._replace(tx_id=b"\x00" * 32)
    chain = Chain.new()
    with pytest.raises(UnauthenticatedTransaction):
        append_block(chain, txs, auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    assert reg.unsealed() == queued and len(chain.blocks) == 1
    reg.mark_sealed(
        append_block(chain, queued, auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    )
    assert reg.unsealed() == [] and verify_chain(chain).valid


def test_deterministic_blocks_at_difficulty_zero():
    a = build_chain(2)[0]
    b = build_chain(2)[0]
    assert chain_to_json(a) == chain_to_json(b)


# --- verify_chain -----------------------------------------------------------------

def test_verify_untampered_chain():
    chain, *_ = build_chain(2)
    report = verify_chain(chain)
    assert report.valid and report.first_bad_height is None


def test_verify_flags_mutated_payload():
    chain, *_ = build_chain(2)
    block = chain.blocks[1]
    victim = block.transactions[0]
    mutated = victim._replace(payload=victim.payload + b"x")
    chain.blocks[1] = block._replace(transactions=(mutated,) + block.transactions[1:])
    report = verify_chain(chain)
    assert not report.valid
    assert report.first_bad_height == 1


def test_verify_flags_spliced_block_with_stale_suffix_link():
    # Forge block 2 with fully recomputed hashes; block 3 still links to the
    # original block 2, so the first violation surfaces at height 3.
    chain, reg, auth, user = build_chain(2)
    original = chain.blocks[2]
    forged_txs = (tx_by(user),)
    forged = Block(
        height=2,
        prev_hash=hash_header(chain.blocks[1]),
        merkle_root=merkle_root(forged_txs),
        sealer=original.sealer,
        transactions=forged_txs,
    )
    append_block(chain, [tx_by(auth)], auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    chain.blocks[2] = forged
    report = verify_chain(chain)
    assert not report.valid
    assert report.first_bad_height == 3


def test_verify_flags_revoked_author_after_revocation_tx():
    chain, reg, auth, user = build_chain(0)
    revoke_body = ReputationUpdateBody(user.stakeholder, 20, True, "threshold").encode()
    revoke_tx = Transaction.create(auth.stakeholder, TxKind.ReputationUpdate, revoke_body)
    append_block(chain, [revoke_tx], auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    assert verify_chain(chain).valid
    # a later transaction by the revoked user must invalidate the chain
    append_block(chain, [tx_by(user)], auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    report = verify_chain(chain)
    assert not report.valid
    assert report.first_bad_height == 3


def link(chain, txs, sealer):
    """Append a block with none of append_block's checks, as a forger could."""
    append_block(chain, txs, sealer, lambda tx: True, lambda sid: True)


def registration(name, roles, signer=None):
    """A Register transaction for a new stakeholder, with its id.

    `signer` is the registering credential; None makes a self-registration.
    """
    from ctisim.identity import stakeholder_id
    from ctisim.payloads import RegisterBody

    evidence = evidence_for(name)
    sid = stakeholder_id(evidence)
    body = RegisterBody(sid, tuple(sorted(roles)), (), evidence, 50).encode()
    return Transaction.create(sid if signer is None else signer.stakeholder, TxKind.Register, body), sid


def test_verify_flags_self_registered_authority_on_non_empty_registry():
    chain, reg, auth, user = build_chain(0)
    stranger_tx, stranger = registration("stranger", ["Authority"])
    link(chain, [stranger_tx], auth.stakeholder)
    payload = tx_by(user).payload
    link(chain, [Transaction.create(stranger, TxKind.ReputationUpdate, payload)], stranger)
    report = verify_chain(chain)
    assert not report.valid
    assert report.first_bad_height == 2
    assert report.reason == "self-registration on a non-empty registry"


def test_verify_flags_bootstrap_without_authority_role():
    chain = Chain.new()
    tx, first = registration("first", ["Producer"])
    link(chain, [tx], first)
    report = verify_chain(chain)
    assert not report.valid
    assert report.first_bad_height == 1
    assert report.reason == "self-registration without the Authority role"


def test_verify_flags_register_by_a_producer():
    chain, reg, auth, user = build_chain(0)
    tx, _ = registration("rogue", ["Authority"], signer=user)
    link(chain, [tx], auth.stakeholder)
    report = verify_chain(chain)
    assert not report.valid
    assert report.first_bad_height == 2
    assert report.reason == "Register by an author without the Authority role"


def test_verify_flags_block_sealed_by_revoked_authority():
    chain, reg, auth, user = build_chain(0)
    second = register(reg, proof("second", {Role.Authority}), auth.stakeholder)
    reg.mark_sealed(
        append_block(chain, reg.unsealed(), auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    )
    revoke = ReputationUpdateBody(second.stakeholder, 20, True, "threshold").encode()
    append_block(
        chain, [reg.commit(auth.stakeholder, TxKind.ReputationUpdate, revoke)], auth.stakeholder,
        reg.authenticate_committed, reg.is_authority,
    )
    link(chain, [tx_by(auth)], second.stakeholder)
    report = verify_chain(chain)
    assert not report.valid
    assert report.first_bad_height == 4
    assert report.reason == "sealer revoked"


AUTHORITY_KIND_BODIES = {
    TxKind.FinalizeVerification: lambda sid: FinalizeBody(sha256(b"contract"), "Verified", 900_000, "Refunded"),
    # a Producer revoking the authority: sealing accepts it, verification must not
    TxKind.ReputationUpdate: lambda sid: ReputationUpdateBody(sid, 0, True, "coup"),
}


@pytest.mark.parametrize("kind", AUTHORITY_KIND_BODIES, ids=lambda k: k.value)
def test_verify_flags_authority_kind_by_a_producer(kind):
    chain, reg, auth, user = build_chain(0)
    tx = tx_by(user, kind, AUTHORITY_KIND_BODIES[kind](auth.stakeholder).encode())
    append_block(chain, [tx], auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    report = verify_chain(chain)
    assert not report.valid
    assert report.first_bad_height == 2
    assert report.reason == f"{kind.value} by an author without the Authority role"


def test_verify_flags_unregistered_author():
    reg, auth, user, reg_txs = fresh_registry()
    chain = Chain.new()
    # skip registrations entirely
    append_block(chain, [tx_by(user)], auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    report = verify_chain(chain)
    assert not report.valid and report.first_bad_height == 1


# --- query ------------------------------------------------------------------------

def test_query_filters_by_kind_author_and_round():
    chain, reg, auth, user = build_chain(3)
    votes = query(chain, kind=TxKind.Vote, author=user.stakeholder)
    assert len(votes) == 3
    assert all(tx.author == user.stakeholder for tx in votes)
    windowed = query(chain, round_range=(1, 2))
    assert len(windowed) == 4


def test_query_empty_chain():
    assert query(Chain.new()) == []


def test_query_matches_linear_scan_oracle():
    chain, reg, auth, user = build_chain(50)  # 100 votes + 2 registers
    rng = random.Random(99)
    for _ in range(20):
        kind = rng.choice([None, TxKind.ReputationUpdate, TxKind.Register, TxKind.Vote])
        author = rng.choice([None, auth.stakeholder, user.stakeholder])
        lo = rng.randint(0, 25)
        hi = rng.randint(lo, 50)
        round_range = rng.choice([None, (lo, hi)])

        expected = []
        for block in chain.blocks:
            for tx in block.transactions:
                if kind is not None and tx.kind is not kind:
                    continue
                if author is not None and tx.author != author:
                    continue
                if round_range is not None and not (round_range[0] <= block.height - 1 <= round_range[1]):
                    continue
                expected.append(tx.tx_id)
        got = [t.tx_id for t in query(chain, kind=kind, author=author, round_range=round_range)]
        assert got == expected


# --- dump round-trip ---------------------------------------------------------------

def test_chain_json_round_trip():
    chain, *_ = build_chain(2)
    text = chain_to_json(chain)
    assert text == json.dumps(ref_obj(chain), indent=2) + "\n"
    loaded = chain_from_json(text)
    assert chain_to_json(loaded) == text
    assert verify_chain(loaded).valid


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_bundled_chains_read_back_equal_the_engines_block_for_block(path):
    chain = run_scenario(load_config(str(path))).chain
    loaded = chain_from_json(chain_to_json(chain))
    assert len(loaded.blocks) == len(chain.blocks)
    for read, written in zip(loaded.blocks, chain.blocks):
        assert read == written
        assert all(type(tx) is Transaction for tx in read.transactions)


def test_setting_any_field_of_a_signed_transaction_raises():
    reg, _, user, _ = fresh_registry()
    tx = reg.commit(user.stakeholder, TxKind.Vote, tx_by(user).payload)
    before = tuple(tx)
    for name in Transaction._fields:
        with pytest.raises(AttributeError):
            setattr(tx, name, b"")
    with pytest.raises(AttributeError):
        tx.extra = b""
    assert tuple(tx) == before


def _parent(root, path):
    for key in path[:-1]:
        root = root[key]
    return root


def _set(path, value):
    """A change to a dump's parsed object: set the value at `path`."""
    def change(root):
        _parent(root, path)[path[-1]] = value
        return root
    return change


def _drop(path):
    """A change to a dump's parsed object: delete the key at `path`."""
    def change(root):
        del _parent(root, path)[path[-1]]
        return root
    return change


def _split(path, space):
    """A change to a dump's parsed object: put whitespace between the first
    two bytes of the hex string at `path` (bytes.fromhex would skip it)."""
    def change(root):
        obj = _parent(root, path)
        obj[path[-1]] = obj[path[-1]][:2] + space + obj[path[-1]][2:]
        return root
    return change


# every hex field of a dump: block 1's and its first transaction's
_HEX_PATHS = [
    *((1, "transactions", 0, key) for key in ("tx_id", "author", "payload")),
    *((1, key) for key in ("prev_hash", "merkle_root", "sealer")),
]


def _where(path):
    """How a read refusing bad hex at `path` names the field and its place."""
    if len(path) == 2:
        return f"{path[1]!r} of block {path[0]}"
    return f"{path[3]!r} of transaction {path[2]} in block {path[0]}"


# each bad-hex dump, and where its refusal says the bad field is
BAD_HEX_DUMPS = {
    "odd-length-hex": (_set((1, "transactions", 0, "payload"), "abc"), (1, "transactions", 0, "payload")),
    "non-hex-bytes": (_set((1, "prev_hash"), "zz" * 32), (1, "prev_hash")),
    # hex is decoded strictly: no whitespace between byte pairs
    **{f"space-in-{path[-1]}": (_split(path, " "), path) for path in _HEX_PATHS},
    "newline-in-payload": (_split((1, "transactions", 0, "payload"), "\n"), (1, "transactions", 0, "payload")),
    "non-ascii-author-later": (_set((2, "transactions", 1, "author"), "\u00e9" * 64), (2, "transactions", 1, "author")),
    "odd-length-sealer-later": (_set((2, "sealer"), "0"), (2, "sealer")),
}

MALFORMED_DUMPS = {
    "unknown-kind": _set((1, "transactions", 0, "kind"), "Mint"),
    # the authority's copy of a sale, which earlier dumps wrote after every
    # Purchase: a dump holding one is refused, not read without it
    "retired-kind-AccessGrant": _set((1, "transactions", 0, "kind"), "AccessGrant"),
    "kind-not-a-string": _set((1, "transactions", 0, "kind"), ["Vote"]),
    "missing-block-key": _drop((1, "sealer")),
    "missing-transactions": _drop((1, "transactions")),
    "missing-tx-key": _drop((1, "transactions", 0, "payload")),
    **{name: change for name, (change, _) in BAD_HEX_DUMPS.items()},
    "bytes-not-a-string": _set((1, "transactions", 0, "author"), 7),
    "string-height": _set((1, "height"), "1"),
    "float-height": _set((1, "height"), 1.5),
    "boolean-height": _set((1, "height"), True),
    # `timestamp` and `nonce` are header fields no longer written: a dump
    # carrying one, of any value, is refused for that key
    "null-timestamp": _set((1, "timestamp"), None),
    "float-nonce": _set((1, "nonce"), 0.0),
    "top-level-object": lambda obj: {"blocks": obj},
    "top-level-string": lambda obj: "chain",
    "block-is-a-list": _set((1,), []),
    "block-is-a-string": _set((1,), "block"),
    "transactions-object": _set((1, "transactions"), {}),
    "transactions-string": _set((1, "transactions"), ""),
    "transactions-null": _set((1, "transactions"), None),
    "transaction-is-a-list": _set((1, "transactions", 0), []),
    **{
        f"{field}-{name}": _set((1, field), value)
        for field in ("height", "timestamp", "nonce")
        for name, value in (("2**64", 2**64), ("negative", -1))
    },
    "transaction-at-top-level": lambda obj: obj + [obj[1]["transactions"][0]],
    "block-in-transactions": lambda obj: _set((1, "transactions", 0), obj[0])(obj),
    "object-as-payload": _set((1, "transactions", 0, "payload"), {"hex": "00"}),
    "transaction-with-transactions-key": _set((1, "transactions", 0, "transactions"), []),
}


@pytest.mark.parametrize("change", MALFORMED_DUMPS.values(), ids=MALFORMED_DUMPS.keys())
def test_chain_from_json_raises_encoding_error_on_malformed_dump(change):
    chain, *_ = build_chain(1)
    text = json.dumps(change(json.loads(chain_to_json(chain))), indent=2) + "\n"
    with pytest.raises(EncodingError):
        chain_from_json(text)


@pytest.mark.parametrize("change, path", BAD_HEX_DUMPS.values(), ids=BAD_HEX_DUMPS.keys())
def test_chain_from_json_names_a_bad_hex_field_and_where_it_is(change, path):
    chain, *_ = build_chain(1)
    text = json.dumps(change(json.loads(chain_to_json(chain))), indent=2) + "\n"
    with pytest.raises(EncodingError, match=f"^malformed chain dump: bad hex in {re.escape(_where(path))}: "):
        chain_from_json(text)


@pytest.mark.parametrize(
    "path", [(0, "extra"), (1, "nonce"), (1, "transactions", 0, "signature")], ids=["genesis", "block", "transaction"]
)
def test_chain_from_json_names_a_key_the_writer_does_not_write(path):
    """Any other key is refused by name, so a dump of an earlier format,
    with a header nonce or a transaction signature, is not read as a chain."""
    chain, *_ = build_chain(1)
    text = json.dumps(_set(path, 0)(json.loads(chain_to_json(chain))), indent=2) + "\n"
    with pytest.raises(EncodingError, match=f"unknown key '{path[-1]}'"):
        chain_from_json(text)


@pytest.mark.parametrize("kind", ["Mint", "vote", "AccessGrant"])
def test_chain_from_json_names_an_unknown_kind(kind):
    chain, *_ = build_chain(1)
    text = json.dumps(_set((1, "transactions", 0, "kind"), kind)(json.loads(chain_to_json(chain))), indent=2) + "\n"
    with pytest.raises(EncodingError, match=f"'{kind}'"):
        chain_from_json(text)


def test_chain_from_json_reads_uppercase_hex_as_the_same_chain():
    """Only whitespace is refused: hex of either case decodes."""
    chain, *_ = build_chain(1)
    obj = json.loads(chain_to_json(chain))
    for path in _HEX_PATHS:
        _parent(obj, path)[path[-1]] = _parent(obj, path)[path[-1]].upper()
    assert chain_from_json(json.dumps(obj, indent=2) + "\n") == chain


def test_chain_from_json_raises_encoding_error_on_invalid_json():
    with pytest.raises(EncodingError):
        chain_from_json("[{")


def test_chain_from_json_raises_encoding_error_on_json_nested_too_deeply():
    with pytest.raises(EncodingError):
        chain_from_json("[" * 100_000)


@settings(max_examples=300, deadline=None)
@given(at=st.integers(min_value=0), edit=st.sampled_from(["", *'[]{},:" 0a\n']))
def test_chain_from_json_reads_only_what_json_loads_reads(at, edit):
    """Replacing one character of a dump either gives EncodingError or a
    chain whose dump objects are exactly what json.loads parses."""
    text = chain_to_json(build_chain(1)[0])
    at %= len(text)
    text = text[:at] + edit + text[at + 1:]
    try:
        chain = chain_from_json(text)
    except EncodingError:
        return
    assert json.loads(text) == ref_obj(chain)


def test_chain_from_json_peaks_near_the_chain_it_returns():
    """Reading a dump allocates little beyond the chain it returns: no
    parsed copy of the dump is built first (such a copy alone is larger than
    the chain)."""
    config = load_config(str(SCENARIO_DIR / "marketplace.yaml"))
    text = chain_to_json(run_scenario(config).chain)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        chain = chain_from_json(text)
        retained, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert chain_to_json(chain) == text
    assert peak <= 1.25 * retained, (peak, retained)


def test_read_chain_is_frozen_and_shares_stakeholder_ids():
    chain, *_ = build_chain(2)
    loaded = chain_from_json(chain_to_json(chain))
    ids = [b.sealer for b in loaded.blocks] + [t.author for b in loaded.blocks for t in b.transactions]
    assert len({id(i) for i in ids}) == len(set(ids))
    block = loaded.blocks[1]
    # a transaction and a block are named tuples
    for obj, name in ((block.transactions[0], "payload"), (block, "height")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


def ref_obj(chain):
    """The block objects json.dumps(indent=2) serialized into chain.json."""
    return [
        {
            "height": b.height,
            "prev_hash": b.prev_hash.hex(),
            "merkle_root": b.merkle_root.hex(),
            "sealer": b.sealer.hex(),
            "transactions": [
                {
                    "tx_id": t.tx_id.hex(),
                    "author": t.author.hex(),
                    "kind": t.kind.value,
                    "payload": t.payload.hex(),
                }
                for t in b.transactions
            ],
        }
        for b in chain.blocks
    ]


digests = st.binary(min_size=32, max_size=32)
uints = st.integers(min_value=0, max_value=2**64 - 1)
transactions = st.builds(
    Transaction,
    tx_id=digests,
    author=st.binary(max_size=40),
    kind=st.sampled_from(TxKind),
    payload=st.binary(max_size=80),
)
blocks = st.builds(
    Block,
    height=uints,
    prev_hash=digests,
    merkle_root=digests,
    sealer=digests,
    # empty tuples are heartbeat blocks
    transactions=st.lists(transactions, max_size=4).map(tuple),
)
chains = st.builds(Chain, blocks=st.lists(blocks, max_size=5))


def heartbeat_chain():
    """A chain whose last two blocks are heartbeats, sealed with no
    transactions."""
    chain, reg, auth, _ = build_chain(1)
    for _ in range(2):
        append_block(chain, [], auth.stakeholder, reg.authenticate_committed, reg.is_authority)
    return chain


def test_chain_json_heartbeat_block_matches_json_dumps():
    chain = heartbeat_chain()
    text = chain_to_json(chain)
    assert text == json.dumps(ref_obj(chain), indent=2) + "\n"
    assert chain_from_json(text) == chain


# No shrink phase: shrinking a failing chain takes minutes, so a failure is
# reported at once with the blob that reproduces it.
@settings(
    max_examples=200, deadline=None, print_blob=True,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
@given(chain=chains)
@example(chain=Chain(blocks=[]))
@example(chain=Chain.new())
def test_chain_json_matches_json_dumps_property(chain):
    text = chain_to_json(chain)
    assert text == json.dumps(ref_obj(chain), indent=2) + "\n"
    assert chain_from_json(text) == chain


@settings(
    max_examples=200, deadline=None, print_blob=True,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
@given(chain=chains, cuts=st.lists(st.integers(min_value=0), max_size=6))
@example(chain=Chain(blocks=[]), cuts=[])
@example(chain=Chain.new(), cuts=[0, 1, 1])
@example(chain=heartbeat_chain(), cuts=[1, 3, 4])
def test_texts_of_consecutive_ranges_join_to_the_dump(chain, cuts):
    """Cut anywhere, repeated cuts and empty ranges included: the ranges'
    texts join to the whole-chain text, which is json.dumps's."""
    n = len(chain.blocks)
    bounds = [0, *sorted(cut % (n + 1) for cut in cuts), n] if n else [0, 0]
    text = "".join(chain_to_json(chain, start, stop) for start, stop in zip(bounds, bounds[1:]))
    assert text == chain_to_json(chain) == json.dumps(ref_obj(chain), indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    author=st.binary(max_size=40),
    kind=st.sampled_from(TxKind),
    payload=st.binary(max_size=300),
)
def test_one_shot_digests_match_writer_encoding(author, kind, payload):
    expected = Transaction(ref_id(author, kind, payload), author, kind, payload)
    assert Transaction.create(author, kind, payload) == expected


def test_verify_rejects_empty_chain():
    report = verify_chain(Chain(blocks=[]))
    assert not report.valid and report.first_bad_height == 0


@pytest.mark.parametrize(
    "field", ["height", "prev_hash", "merkle_root", "sealer", "transactions"]
)
def test_verify_flags_a_genesis_that_differs_in_one_field(field):
    chain, *_ = build_chain(1)
    values = {"height": 1, "transactions": chain.blocks[1].transactions[:1]}
    chain.blocks[0] = chain.blocks[0]._replace(**{field: values.get(field, b"\x01" * 32)})
    report = verify_chain(chain)
    assert (report.valid, report.first_bad_height, report.reason) == (
        False, 0, "genesis is not the fixed genesis block"
    )


def test_merkle_empty_is_zero():
    assert merkle_root(()) == ZERO_DIGEST


def test_merkle_odd_count_duplicates_last():
    chain, reg, auth, user = build_chain(0)
    t1, t2 = chain.blocks[1].transactions
    from ctisim.ledger import sha256

    assert merkle_root([t1]) == t1.tx_id
    assert merkle_root([t1, t2, t1]) == sha256(sha256(t1.tx_id + t2.tx_id) + sha256(t1.tx_id + t1.tx_id))
