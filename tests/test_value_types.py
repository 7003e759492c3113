"""The frozen value types are named tuples.

A value type that checks nothing on construction and caches nothing is a
`typing.NamedTuple`: a tuple subclass with no instance `__dict__`, so
setting a field raises AttributeError. The classes that stay dataclasses
are the config sections, `CtiRecord` (its `encoded` cache), the labels,
policies and mining parameters that check their values, the mutable
`Chain`, and the mutable contract and agent state.
"""

import pytest

from ctisim import payloads
from ctisim.access_control import Envelope
from ctisim.contracts import PiResult, VerificationOutcome
from ctisim.cti import FormatViolation, Ioc
from ctisim.ledger import Block, Transaction, VerificationReport
from ctisim.mining import Campaign
from ctisim.simulation import MetricsRow, ScenarioResult

BODIES = [
    payloads.RegisterBody,
    payloads.SubmitCtiBody,
    payloads.VoteBody,
    payloads.FinalizeBody,
    payloads.PurchaseBody,
    payloads.RenewBody,
    payloads.ReputationUpdateBody,
    payloads.AccessGrantBody,
]

VALUE_TYPES = [
    *BODIES,
    Ioc,
    FormatViolation,
    PiResult,
    VerificationOutcome,
    Envelope,
    Transaction,
    Block,
    VerificationReport,
    Campaign,
    MetricsRow,
    ScenarioResult,
]


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_is_an_immutable_tuple(cls):
    assert issubclass(cls, tuple)
    value = cls._make(range(len(cls._fields)))
    assert not hasattr(value, "__dict__")
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
