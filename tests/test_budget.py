"""The budget knobs: an immutable value with a keyword constructor."""

import copy
import pickle

import pytest

from schreier_lab.budget import Budget


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
