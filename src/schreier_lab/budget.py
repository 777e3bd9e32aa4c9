"""Shared search and materialization budgets.

Family sizes, average supports, and norm search trees all grow
super-exponentially in the order and the horizon, so every expensive
operation is guarded by an explicit budget and fails with a clear error
instead of exhausting memory.  The generic work unit can be overridden
through the ``SCHREIER_LAB_BUDGET`` environment variable.

The module also holds :class:`Record`, the base of the budget and of every
other small immutable record in the package, and :func:`_unwound`, which
runs the families' and the averages' recursions from an explicit stack,
since every command loads this module anyway.
"""

from __future__ import annotations

import os
from typing import Generator

__all__ = ["Budget", "BudgetExceededError", "WorkMeter", "get_budget"]

ENV_VAR = "SCHREIER_LAB_BUDGET"

_DEFAULT_WORK = 200_000


class BudgetExceededError(RuntimeError):
    """An operation would exceed its configured search budget.

    ``needed`` is the exact requirement when it is known, or a lower
    bound when even computing the requirement was cut short (then
    ``needed_is_lower_bound`` is set).
    """

    def __init__(self, what: str, limit: int, needed: int | None = None,
                 needed_is_lower_bound: bool = False):
        self.what = what
        self.limit = limit
        self.needed = needed
        self.needed_is_lower_bound = needed_is_lower_bound
        detail = ""
        if needed is not None:
            bound = ">=" if needed_is_lower_bound else "="
            detail = f" (needs {bound} {needed})"
        super().__init__(f"budget exceeded for {what}: limit {limit}{detail}")


class Record:
    """Base of the package's small immutable records.

    A subclass lists its fields, in order, as its ``__slots__``; its class
    annotations, if any, only document their types.  A record is built from
    its fields by position or by name, refuses assignment and deletion, and
    compares, hashes, prints and pickles by its fields, as a frozen
    dataclass would.  A subclass with defaults or checks defines its own
    ``__init__`` and ends it in ``Record.__init__``.

    A plain class rather than a dataclass: every command needs this module,
    and ``dataclasses`` (with the ``inspect`` it imports) would cost each
    command-line call more than the rest of this module.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in names[len(values):]
                            if name in named)
        if named or len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._fields())
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


class Budget(Record):
    """Budget knobs, immutable and compared by value.

    work: generic unit shared by enumeration counts, branch-and-bound
        nodes, and materialized vector entries; the norm searches take
        supports of any length and stop only on it.
    oracle_support: max set size accepted by the exhaustive oracles.
    """

    __slots__ = ("work", "oracle_support")

    def __init__(self, work: int = _DEFAULT_WORK, oracle_support: int = 12):
        Record.__init__(self, work, oracle_support)

    @classmethod
    def from_env(cls) -> "Budget":
        raw = os.environ.get(ENV_VAR)
        if raw is None:
            return cls()
        try:
            work = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
        if work <= 0:
            raise ValueError(f"{ENV_VAR} must be positive, got {work}")
        return cls(work=work)


def get_budget(budget: Budget | None = None) -> Budget:
    """Resolve an explicit budget or fall back to the environment."""
    return budget if budget is not None else Budget.from_env()


class WorkMeter:
    """Counts abstract work units and raises when the cap is hit."""

    __slots__ = ("what", "limit", "used")

    def __init__(self, what: str, limit: int):
        self.what = what
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(self.what, self.limit,
                                      needed=self.used, needed_is_lower_bound=True)


def _unwound(call: Generator):
    """The result of a generator call that yields its nested calls.

    Each nested call goes on an explicit stack instead of the interpreter's
    and is sent its result, so the depth of a recursion written this way is
    bounded by memory, not by the recursion limit.
    """
    stack, value = [call], None
    while stack:
        try:
            nested = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(nested)
            value = None
    return value
