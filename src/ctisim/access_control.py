"""Who may read a shared record: TLP channels plus attribute policies.

Attribute policies are monotone AND/OR formulas over attribute tags,
written in config files as s-expressions like
``(and ICS-ISAC (or critical-infra gov))``. Envelope encryption is
simulated with keyed digests: the access decision is what matters here,
not cryptographic strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Optional

from .encoding import Digest, TaggedEnum
from .errors import AccessDenied, PolicyParseError
from .ledger import sha256

if TYPE_CHECKING:
    from .cti import CtiRecord
    from .identity import Credential


class TlpChannel(TaggedEnum):
    Red = "Red"
    Orange = "Orange"
    Green = "Green"
    White = "White"


# Channels bound once, compared by identity (why: see the note at the bound
# members in `contracts`).
_RED, _ORANGE, _GREEN = TlpChannel.Red, TlpChannel.Orange, TlpChannel.Green


@dataclass(frozen=True)
class TlpLabel:
    channel: TlpChannel
    designated: Optional[frozenset[Digest]] = None

    def problems(self) -> list[str]:
        channel = self.channel
        if channel is _RED:
            if self.designated is None or len(self.designated) != 1:
                return ["Red requires exactly one designated recipient"]
        elif channel is _ORANGE:
            if not self.designated:
                return ["Orange requires a non-empty designated group"]
        elif self.designated is not None:
            return [f"{channel.value} must not carry a designated set"]
        return []


# --- attribute policies -----------------------------------------------------

@dataclass(frozen=True)
class AttributePolicy:
    """Monotone boolean formula: op is "attr", "and" or "or"."""

    op: str
    tag: str = ""
    children: tuple["AttributePolicy", ...] = ()


def attr(tag: str) -> AttributePolicy:
    return AttributePolicy(op="attr", tag=tag)


def evaluate_policy(policy: AttributePolicy, attributes: AbstractSet[str]) -> bool:
    op = policy.op
    if op == "attr":
        return policy.tag in attributes
    if op == "and":
        for child in policy.children:
            if not evaluate_policy(child, attributes):
                return False
        return True
    if op == "or":
        for child in policy.children:
            if evaluate_policy(child, attributes):
                return True
        return False
    raise PolicyParseError(f"unknown policy operator {op!r}")


# Deepest operator nesting parse_policy accepts. A fixed bound, well under
# the interpreter's recursion limit, makes acceptance independent of how
# deep the caller's stack already is.
MAX_POLICY_DEPTH = 32


def parse_policy(text: str) -> AttributePolicy:
    """Parse an s-expression policy; a bare atom is a single attribute leaf.

    Raises PolicyParseError for malformed text, including operators nested
    more than MAX_POLICY_DEPTH deep.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise PolicyParseError("empty policy")
    pos = 0

    def parse_expr(depth: int) -> AttributePolicy:
        nonlocal pos
        if pos >= len(tokens):
            raise PolicyParseError("unexpected end of policy")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise PolicyParseError("unexpected ')'")
        if tok != "(":
            return attr(tok)
        if pos >= len(tokens):
            raise PolicyParseError("unterminated '('")
        op = tokens[pos]
        pos += 1
        if op not in ("and", "or"):
            raise PolicyParseError(f"operator must be 'and' or 'or', got {op!r}")
        if depth == MAX_POLICY_DEPTH:
            raise PolicyParseError(f"policy nested deeper than {MAX_POLICY_DEPTH}")
        children: list[AttributePolicy] = []
        while pos < len(tokens) and tokens[pos] != ")":
            children.append(parse_expr(depth + 1))
        if pos >= len(tokens):
            raise PolicyParseError("unterminated '('")
        pos += 1  # consume ')'
        if not children:
            raise PolicyParseError(f"'{op}' needs at least one operand")
        return AttributePolicy(op=op, children=tuple(children))

    result = parse_expr(0)
    if pos != len(tokens):
        raise PolicyParseError("trailing tokens after policy")
    return result


def policy_to_string(policy: AttributePolicy) -> str:
    if policy.op == "attr":
        return policy.tag
    inner = " ".join(policy_to_string(c) for c in policy.children)
    return f"({policy.op} {inner})"


# --- authorization ----------------------------------------------------------

def authorize(
    requester: "Credential",
    tlp: TlpLabel,
    policy: Optional[AttributePolicy],
    group_members: AbstractSet[Digest],
) -> bool:
    """TLP gate AND optional attribute policy; revoked requesters never pass."""
    if requester.revoked:
        return False
    rid = requester.stakeholder
    channel = tlp.channel
    if channel is _RED or channel is _ORANGE:
        tlp_ok = tlp.designated is not None and rid in tlp.designated
    elif channel is _GREEN:
        tlp_ok = rid in group_members
    else:
        tlp_ok = True
    if not tlp_ok:
        return False
    if policy is None:
        return True
    return evaluate_policy(policy, requester.attributes)


# --- simulated envelope encryption ------------------------------------------

def _xor(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR, truncated to the shorter input."""
    n = min(len(a), len(b))
    return (int.from_bytes(a[:n], "big") ^ int.from_bytes(b[:n], "big")).to_bytes(n, "big")


def _witness(tlp: TlpLabel, policy: Optional[AttributePolicy]) -> str:
    designated = sorted(d.hex() for d in tlp.designated) if tlp.designated else []
    pol = policy_to_string(policy) if policy is not None else ""
    return f"{tlp.channel.value}|{','.join(designated)}|{pol}"


@dataclass(frozen=True)
class EncryptedEnvelope:
    record_id: Digest
    ciphertext: bytes
    wrapped_keys: tuple[tuple[str, bytes], ...]
    tlp: TlpLabel
    policy: Optional[AttributePolicy]


def seal(record: "CtiRecord") -> EncryptedEnvelope:
    """Wrap the record's content digest under its TLP label and policy."""
    content_key = sha256(b"content-key:" + record.record_id)
    witness = _witness(record.tlp, record.policy)
    wrapped = _xor(content_key, sha256(b"wrap:" + witness.encode("utf-8")))
    return EncryptedEnvelope(
        record_id=record.record_id,
        ciphertext=_xor(record.narrative_digest, content_key),
        wrapped_keys=((witness, wrapped),),
        tlp=record.tlp,
        policy=record.policy,
    )


def open_envelope(
    envelope: EncryptedEnvelope,
    requester: "Credential",
    group_members: AbstractSet[Digest],
) -> Digest:
    """Return the content digest, or raise AccessDenied."""
    if not authorize(requester, envelope.tlp, envelope.policy, group_members):
        raise AccessDenied(f"requester {requester.stakeholder.hex()[:12]} not authorized")
    witness, wrapped = envelope.wrapped_keys[0]
    content_key = _xor(wrapped, sha256(b"wrap:" + witness.encode("utf-8")))
    return _xor(envelope.ciphertext, content_key)
