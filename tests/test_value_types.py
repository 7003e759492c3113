"""The frozen value types are named tuples, the mutable state is slotted.

A value type that caches nothing is a `typing.NamedTuple`: a tuple
subclass with no instance `__dict__`, so setting a field raises
AttributeError. That holds for the config sections too (`config._section`
reads `_fields` and `_field_defaults`), and for `MiningParams`, whose
check sits in `__new__` on a subclass of its named tuple. The mutable
state classes are plain classes with `__slots__`, and no generated code.

Three classes stay dataclasses:
- `CtiRecord`, because its `encoded` cache sits outside its equality;
- `TlpLabel` and `AttributePolicy`, because `authorize` and
  `evaluate_policy` read their fields on every access decision, and a
  named-tuple field read costs more than an attribute read.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import ctisim
from ctisim import payloads
from ctisim.access_control import AttributePolicy, Envelope, TlpLabel
from ctisim.config import AccessSpec, AgentSpec, ScenarioConfig
from ctisim.contracts import (
    EconomicsConfig,
    MarketContract,
    PiResult,
    ReportContract,
    ReputationLedger,
    SubscriptionContract,
    VerificationOutcome,
    VerificationPolicy,
)
from ctisim.cti import CtiRecord, FormatViolation, Ioc
from ctisim.identity import Credential
from ctisim.ledger import Block, Chain, Transaction, VerificationReport
from ctisim.mining import Campaign, MiningParams
from ctisim.simulation import (
    AgentRoundLog,
    AgentState,
    AgentStrategy,
    MetricsRow,
    MetricsSeries,
    ScenarioResult,
    UtilityModel,
)

BODIES = [
    payloads.RegisterBody,
    payloads.SubmitCtiBody,
    payloads.VoteBody,
    payloads.FinalizeBody,
    payloads.PurchaseBody,
    payloads.RenewBody,
    payloads.ReputationUpdateBody,
]

CONFIG_SECTIONS = [
    AccessSpec,
    AgentSpec,
    ScenarioConfig,
    EconomicsConfig,
    VerificationPolicy,
    AgentStrategy,
    UtilityModel,
    MiningParams,
]

VALUE_TYPES = [
    *BODIES,
    *CONFIG_SECTIONS,
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

STATE_TYPES = [
    Credential,
    Chain,
    ReputationLedger,
    ReportContract,
    SubscriptionContract,
    MarketContract,
    AgentRoundLog,
    AgentState,
    MetricsSeries,
]

DATACLASSES = {CtiRecord, TlpLabel, AttributePolicy}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_is_an_immutable_tuple(cls):
    assert issubclass(cls, tuple)
    # from 1, so MiningParams' check (every field at least 1 or 2) passes
    value = cls._make(range(1, len(cls._fields) + 1))
    assert not hasattr(value, "__dict__")
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


@pytest.mark.parametrize("cls", STATE_TYPES, ids=lambda cls: cls.__name__)
def test_state_type_is_a_slotted_class(cls):
    assert "__slots__" in vars(cls)
    assert not dataclasses.is_dataclass(cls)
    # no class in its hierarchy but object gives its instances a __dict__
    assert all("__dict__" not in vars(base) for base in cls.__mro__[:-1])


def test_the_dataclasses_left_are_the_three_that_need_one():
    found = set()
    for info in pkgutil.iter_modules(ctisim.__path__, "ctisim."):
        module = importlib.import_module(info.name)
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.add(obj)
    assert found == DATACLASSES


def test_compared_state_equals_by_fields_prints_them_and_is_unhashable():
    a, b = MarketContract(), MarketContract()
    assert a == b and not (a != b)
    b.sales.add((b"c", b"b"))
    assert a != b
    a.sales.add((b"c", b"b"))
    a.escrow = 1
    assert a != b
    assert a != Chain([]) and a != object()
    assert repr(a) == f"MarketContract(balances={{}}, escrow=1, held=0, burned=0, minted=0, sales={a.sales!r})"
    with pytest.raises(TypeError):
        hash(a)
    assert Chain([]) == Chain([]) and repr(Chain([])) == "Chain(blocks=[])"
