"""Who may read a shared record: TLP channels plus attribute policies.

Attribute policies are monotone AND/OR formulas over attribute tags,
written in config files as s-expressions like
``(and ICS-ISAC (or critical-infra gov))``; a label or policy that breaks
its constructor's rule cannot be built. An envelope holds a record's
content digest behind its label and policy, in the clear: opening one is
the `authorize` decision, and nothing is encrypted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, NamedTuple, Optional

from .encoding import Digest, TaggedEnum
from .errors import AccessDenied, PolicyParseError

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
    """A channel and the recipients it takes; any other pair raises ValueError."""

    channel: TlpChannel
    designated: frozenset[Digest] = frozenset()

    def __post_init__(self) -> None:
        channel, n = self.channel, len(self.designated)
        if channel is _RED and n != 1:
            raise ValueError("Red requires exactly one designated recipient")
        if channel is _ORANGE and not n:
            raise ValueError("Orange requires a non-empty designated group")
        if n and channel is not _RED and channel is not _ORANGE:
            raise ValueError(f"{channel.value} must not carry a designated set")


# --- attribute policies -----------------------------------------------------

@dataclass(frozen=True)
class AttributePolicy:
    """Monotone boolean formula: op is "attr", "and" or "or". Only a formula
    some text spells can be built, so `parse_policy(policy_to_string(p))`
    is `p`; any other raises PolicyParseError."""

    op: str
    tag: str = ""
    children: tuple["AttributePolicy", ...] = ()

    def __post_init__(self) -> None:
        op, tag, children = self.op, self.tag, self.children
        if op == "attr":
            if children or tag.split() != [tag] or "(" in tag or ")" in tag:
                raise PolicyParseError(f"attribute {tag!r} is not one token without operands")
        elif op not in ("and", "or"):
            raise PolicyParseError(f"operator must be 'and' or 'or', got {op!r}")
        elif tag or not children:
            raise PolicyParseError(f"'{op}' needs at least one operand and no tag")
        elif max(map(_operator_depth, children)) >= MAX_POLICY_DEPTH:
            raise PolicyParseError(f"policy nested deeper than {MAX_POLICY_DEPTH}")


def _operator_depth(policy: AttributePolicy) -> int:
    if policy.op == "attr":
        return 0
    return 1 + max(map(_operator_depth, policy.children))


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
    for child in policy.children:  # "or"
        if evaluate_policy(child, attributes):
            return True
    return False


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
    result, pos = _parse_expr(tokens, 0, 0)
    if pos != len(tokens):
        raise PolicyParseError("trailing tokens after policy")
    return result


def _parse_expr(tokens: list[str], pos: int, depth: int) -> tuple[AttributePolicy, int]:
    """The policy starting at `tokens[pos]`, `depth` operators deep, and the
    position after it. A module-level function, not a closure over the
    position: a recursive closure holds its own cell, a reference cycle
    left for the cyclic collector on every parse."""
    if pos >= len(tokens):
        raise PolicyParseError("unexpected end of policy")
    tok = tokens[pos]
    pos += 1
    if tok == ")":
        raise PolicyParseError("unexpected ')'")
    if tok != "(":
        return attr(tok), pos
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
        child, pos = _parse_expr(tokens, pos, depth + 1)
        children.append(child)
    if pos >= len(tokens):
        raise PolicyParseError("unterminated '('")
    return AttributePolicy(op=op, children=tuple(children)), pos + 1  # past ')'


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
        tlp_ok = rid in tlp.designated
    elif channel is _GREEN:
        tlp_ok = rid in group_members
    else:
        tlp_ok = True
    if not tlp_ok:
        return False
    if policy is None:
        return True
    return evaluate_policy(policy, requester.attributes)


# --- envelopes --------------------------------------------------------------

class Envelope(NamedTuple):
    record_id: Digest
    content: Digest
    tlp: TlpLabel
    policy: Optional[AttributePolicy]


def seal(record: "CtiRecord") -> Envelope:
    """Put the record's content digest behind its TLP label and policy."""
    return Envelope(record.record_id, record.narrative_digest, record.tlp, record.policy)


def open_envelope(
    envelope: Envelope,
    requester: "Credential",
    group_members: AbstractSet[Digest],
) -> Digest:
    """Return the content digest, or raise AccessDenied."""
    if not authorize(requester, envelope.tlp, envelope.policy, group_members):
        raise AccessDenied(f"requester {requester.stakeholder.hex()[:12]} not authorized")
    return envelope.content
