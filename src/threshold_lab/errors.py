"""Exception types shared across the experiment modules, and the memory budget."""

# largest working set, in bytes, that one table build or trial may allocate
MAX_ARRAY_BYTES = 1 << 29


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration or sampling request exceeds its documented budget."""


class BracketError(RuntimeError):
    """Bisection endpoints do not straddle the target probability beyond their CIs."""


def check_budget(nbytes: int, what: str) -> None:
    """Refuse an allocation of ``nbytes`` before it is made when it exceeds the budget."""
    if nbytes > MAX_ARRAY_BYTES:
        raise BudgetExceededError(
            f"{what} need {nbytes >> 20} MiB, over the {MAX_ARRAY_BYTES >> 20} MiB memory budget"
        )
