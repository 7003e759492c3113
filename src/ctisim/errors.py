"""Exception types shared across the simulator.

Contract and protocol violations raise subclasses of CtiSimError; the
simulation engine catches them per action and records rejected-action
events instead of aborting a run.
"""


class CtiSimError(Exception):
    """Base class for every simulator error."""


class EncodingError(CtiSimError):
    """Malformed canonical bytes or an unparseable chain dump."""


class UnauthenticatedTransaction(CtiSimError):
    """A transaction offered for sealing whose author is not registered or
    whose id is not the one derived from its author, kind and payload."""

    def __init__(self, tx_id: bytes):
        super().__init__(f"transaction {tx_id.hex()} has an unregistered author or an id not derived from its fields")
        self.tx_id = tx_id


class UnauthorizedSealer(CtiSimError):
    pass


class NotAnAuthority(CtiSimError):
    pass


class DuplicateRegistration(CtiSimError):
    pass


class DuplicateTransaction(CtiSimError):
    pass


class UnknownStakeholder(CtiSimError):
    pass


class InsufficientBalance(CtiSimError):
    pass


class BelowTrustThreshold(CtiSimError):
    pass


class FormatInvalid(CtiSimError):
    def __init__(self, violations):
        fields = ", ".join(v.field for v in violations)
        super().__init__(f"record failed format validation: {fields}")
        self.violations = list(violations)


class DuplicateRecord(CtiSimError):
    pass


class VerifierPoolTooSmall(CtiSimError):
    pass


class NotAssigned(CtiSimError):
    pass


class AlreadyVoted(CtiSimError):
    pass


class ContractClosed(CtiSimError):
    pass


class QuorumNotMet(CtiSimError):
    pass


class AlreadyFinalized(CtiSimError):
    pass


class NotForSale(CtiSimError):
    pass


class NotVerified(CtiSimError):
    pass


class AlreadyPurchased(CtiSimError):
    pass


class AccessDenied(CtiSimError):
    pass


class NotYetExpired(CtiSimError):
    pass


class PolicyParseError(CtiSimError):
    pass


class ConfigInvalid(CtiSimError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
