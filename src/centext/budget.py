"""The enumeration budget: one bound on every enumeration the package
runs (automorphisms, orbit domains, identity tuples, table size).  A
function with a ``budget`` argument works inside ``budget_scope``, so
every check it reaches applies that budget."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import BudgetExceeded
from .fields import read_number

DEFAULT_BUDGET = 500_000
BUDGET_ENV_VAR = "CENTEXT_BUDGET"

_scoped: ContextVar[int | None] = ContextVar("centext_budget", default=None)


def resolve_budget(budget: int | None = None) -> int:
    """The budget argument, else the budget of the enclosing
    ``budget_scope``, else CENTEXT_BUDGET, else the default.  A budget
    below 1, or a CENTEXT_BUDGET that is no integer, raises
    BudgetExceeded: every enumeration would exceed it."""
    if budget is None:
        budget = _scoped.get()
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget = read_number(env, integer=True)
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


@contextmanager
def budget_scope(budget: int | None = None):
    """Make resolve_budget(budget), resolved on entry, the budget of every
    check in the block that names none."""
    token = _scoped.set(resolve_budget(budget))
    try:
        yield
    finally:
        _scoped.reset(token)
