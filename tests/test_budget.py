"""The budget knobs, and the record protocol they share with every small
immutable record of the package: construction, value equality, the
dataclass-style repr, read-only fields and copy/pickle round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from schreier_lab.averages import NibccWitness
from schreier_lab.budget import Budget
from schreier_lab.ordinal import default_fundamental_seq, parse
from schreier_lab.quantities import (CanonicalBasis, DeltaFamily, HorizonEstimate,
                                     LargeCheckResult, PropFormulaValues,
                                     prop_formula)
from schreier_lab.reports import Check
from schreier_lab.schreier import FinSet
from schreier_lab.spaces import Functional, NormResult, NormSpec
from schreier_lab.vectors import ProbVector, RatVec


def test_defaults_and_repr():
    assert repr(Budget()) == "Budget(work=200000, oracle_support=12)"
    assert repr(Budget(work=5, oracle_support=3)) == (
        "Budget(work=5, oracle_support=3)")


def test_equality_and_hash_follow_the_fields():
    assert Budget(work=5) == Budget(5) == copy.copy(Budget(work=5))
    assert Budget(work=5) != Budget(work=6)
    assert Budget(work=4) != Budget(oracle_support=4)
    assert Budget(5, 4) == Budget(work=5, oracle_support=4)
    assert Budget() != (200_000, 12)
    assert len({Budget(work=5), Budget(work=5), Budget()}) == 2
    assert pickle.loads(pickle.dumps(Budget(work=7))) == Budget(work=7)


def test_fields_are_read_only():
    budget = Budget()
    with pytest.raises(AttributeError):
        budget.work = 1
    with pytest.raises(AttributeError):
        del budget.work
    with pytest.raises(AttributeError):
        budget.extra = 1
    with pytest.raises(TypeError):
        Budget(nodes=3)
    assert budget.work == 200_000


HALF = Fraction(1, 2)
L1 = NormSpec("l1")
BASIS = CanonicalBasis(L1)

# (record as callers build it, its fields in order, an unequal record of the
# same class, whether the fields pickle)
RECORDS = [
    (Budget(work=5), {"work": 5, "oracle_support": 12}, Budget(work=6), True),
    (NibccWitness((0, 1, 3), (1, HALF, HALF)),
     {"breakpoints": (0, 1, 3), "weights": (1, HALF, HALF)},
     NibccWitness((0, 1), (Fraction(1),)), True),
    (L1, {"kind": "l1", "xi": None, "fs": default_fundamental_seq},
     NormSpec("sup"), True),
    (NormResult(L1, HALF, HALF * HALF, 0.5, None),
     {"spec": L1, "value": HALF, "value_squared": HALF * HALF, "approx": 0.5,
      "witness": None},
     NormResult(L1, HALF, HALF * HALF, 0.5, FinSet.of(2)), True),
    (Functional(RatVec({2: Fraction(1)}), None, label="raw"),
     {"coefficients": RatVec({2: Fraction(1)}), "certified_for": None,
      "label": "raw"},
     Functional(RatVec({2: Fraction(1)}), L1, "raw"), True),
    (HorizonEstimate(HALF, "upper_bound", 7, witness="2,3"),
     {"value": HALF, "direction": "upper_bound", "horizon": 7, "witness": "2,3"},
     HorizonEstimate(HALF, "upper_bound", 7), True),
    (BASIS, {"ambient": L1, "element": BASIS.element, "name": "basis"},
     CanonicalBasis(NormSpec("sup")), False),
    (DeltaFamily((FinSet.of(2, 3),), HALF, 4, ("a",)),
     {"hit_sets": (FinSet.of(2, 3),), "delta": HALF, "horizon": 4,
      "labels": ("a",)},
     DeltaFamily((FinSet.of(2, 3),), HALF, 5, ("a",)), True),
    (LargeCheckResult(True, 3, None, "2", "all", 8),
     {"ok": True, "checked": 3, "certificate": None, "order": "2",
      "stream": "all", "horizon": 8},
     LargeCheckResult(False, 3, None, "2", "all", 8), True),
    (prop_formula(10, HALF),
     {"l": 10, "c": HALF, "vanishing": Fraction(9, 1111),
      "main": Fraction(945, 1111)},
     PropFormulaValues(10, HALF, Fraction(9, 1111), Fraction(1)), True),
    (Check("works", True, "fine"), {"name": "works", "ok": True, "detail": "fine"},
     Check("works", False, "fine"), True),
]


@pytest.mark.parametrize("record, fields, other, pickles", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_records_share_one_protocol(record, fields, other, pickles):
    cls = type(record)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    # Built again by position or by name: equal, with equal hashes.
    for again in (cls(*fields.values()), cls(**fields)):
        assert again == record and hash(again) == hash(record)
    assert record != other and type(other) is cls
    # Equal only within one class: not to its field tuple, nor to a subclass.
    assert record != tuple(fields.values())
    assert type("Sub", (cls,), {})(*fields.values()) != record
    assert repr(record) == cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == fields[name]
    assert copy.copy(record) == record
    if pickles:
        assert pickle.loads(pickle.dumps(record)) == record


def test_record_reprs_read_like_dataclasses():
    assert repr(Check("works", True, "fine")) == (
        "Check(name='works', ok=True, detail='fine')")
    assert repr(prop_formula(10, HALF)) == (
        "PropFormulaValues(l=10, c=Fraction(1, 2), "
        "vanishing=Fraction(9, 1111), main=Fraction(945, 1111))")


# The immutable values the records hold refuse assignment, so copies and
# pickles rebuild them through their constructors instead.
VALUES = [
    parse("w+1"),
    FinSet.of(2, 3),
    RatVec({1: 1}),
    RatVec({2: HALF, 5: Fraction(-2, 3)}),
    ProbVector({2: HALF, 3: HALF}),
    NormSpec.parse("schreier:w+1"),
    Functional(RatVec({2: Fraction(1), 3: -HALF}), NormSpec.parse("schreier:2"),
               label="sum"),
    NibccWitness((0, 1, 3), (Fraction(1), HALF, HALF)),
]


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                 lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_values_copy_and_pickle(value, how):
    again = how(value)
    assert again == value and hash(again) == hash(value)
    assert type(again) is type(value)
    assert repr(again) == repr(value)
