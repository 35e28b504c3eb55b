"""Work caps shared by every module, and the errors raised when a cap is hit.

The size cap bounds the number of distinct values any single operation may
materialize, and the nodes a search may score when it is given no node
budget of its own.  It defaults to ten million and can be overridden either through
the SUMPROD_BUDGET environment variable or programmatically (the CLI's
--budget flag uses the latter).  A kernel that grows a result reads the cap
once per call and refuses as soon as the distinct count passes it; a count
too long to print in decimal is named by its power of two.
"""

import os

DEFAULT_SIZE_CAP = 10**7

_ENV_VAR = "SUMPROD_BUDGET"
_override: int | None = None


class CapExceeded(RuntimeError):
    """A result would hold more distinct values than the configured cap."""


class SetParseError(ValueError):
    """Malformed set, pair, or progression input."""


class FactorizationBudgetExceeded(RuntimeError):
    """An integer resisted factorization within the configured effort bounds."""


def set_size_cap_override(cap: int | None) -> None:
    """Install (or clear, with None) a process-local cap override.

    Takes precedence over SUMPROD_BUDGET.
    """
    global _override
    if cap is not None:
        cap = int(cap)
        if cap <= 0:
            raise ValueError(f"size cap must be positive, got {cap}")
    _override = cap


def size_cap() -> int:
    if _override is not None:
        return _override
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise ValueError(f"{_ENV_VAR} must be positive, got {cap}")
    return cap


def check_size(n: int, what: str) -> None:
    """Raise CapExceeded if n distinct values would breach the cap."""
    cap = size_cap()
    if n > cap:
        raise over_cap(n, what, cap)


def over_cap(n: int | str, what: str, cap: int) -> CapExceeded:
    """The refusal of n values over cap.  An int n is written in decimal when
    Python will print it, and as the power of two at or below it otherwise
    (past sys.get_int_max_str_digits()); a str n, a formula for a count too
    large to form, is written as it is."""
    try:
        count = str(n)
    except ValueError:
        count = f"at least 2^{n.bit_length() - 1}"
    return CapExceeded(f"{what} needs {count} values, cap is {cap}")
