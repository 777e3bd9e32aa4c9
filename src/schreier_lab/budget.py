"""Shared search and materialization budgets.

Family sizes, average supports, and norm search trees all grow
super-exponentially in the order and the horizon, so every expensive
operation is guarded by an explicit budget and fails with a clear error
instead of exhausting memory.  The generic work unit can be overridden
through the ``SCHREIER_LAB_BUDGET`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Budget:
    """Budget knobs.

    work: generic unit shared by enumeration counts, branch-and-bound
        nodes, and materialized vector entries.
    norm_support: max support size for the generic Schreier-norm search.
    baernstein_support: max support size for the chained-norm search.
    oracle_support: max set size accepted by the exhaustive oracles.
    """

    work: int = _DEFAULT_WORK
    norm_support: int = 24
    baernstein_support: int = 16
    oracle_support: int = 12

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
