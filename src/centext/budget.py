"""The enumeration budget: one bound on every enumeration the package
runs (automorphisms, orbit domains, identity tuples, table size)."""

from __future__ import annotations

import os

from .errors import BudgetExceeded

DEFAULT_BUDGET = 500_000
BUDGET_ENV_VAR = "CENTEXT_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """The budget argument, else CENTEXT_BUDGET, else the default.  A
    budget below 1, or a CENTEXT_BUDGET that is no integer, raises
    BudgetExceeded: every enumeration would exceed it."""
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            budget = env
    if type(budget) is not int or budget < 1:
        raise BudgetExceeded(
            f"the budget (budget argument or {BUDGET_ENV_VAR}) must be an integer "
            f"of at least 1, not {budget!r}"
        )
    return budget


def check_budget(count: int, what: str, budget: int | None = None) -> None:
    """Raise BudgetExceeded when an enumeration of count items is over budget."""
    limit = resolve_budget(budget)
    if count > limit:
        raise BudgetExceeded(f"{count} {what} exceed budget {limit}")
