"""The enumeration budget: one bound on every enumeration the package
runs (automorphisms, orbit domains, identity tuples, table size)."""

from __future__ import annotations

import os

from .errors import BudgetExceeded

DEFAULT_BUDGET = 500_000
BUDGET_ENV_VAR = "CENTEXT_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_BUDGET


def check_budget(count: int, what: str, budget: int | None = None) -> None:
    """Raise BudgetExceeded when an enumeration of count items is over budget."""
    limit = resolve_budget(budget)
    if count > limit:
        raise BudgetExceeded(f"{count} {what} exceed budget {limit}")
