"""Exception types shared across the package.

The CLI maps these to exit codes: UsageError -> 2, ResourceCapError -> 3,
TheoremViolation -> 1.
"""


class UsageError(ValueError):
    """Invalid parameters or misuse of an operation (arity mismatch, bad range)."""


class ResourceCapError(RuntimeError):
    """A computation exceeded its configured cap; the message carries the cap."""


def over_cap(count: int, cap: int) -> str:
    """A refused count as its message words it: the count when it fits in 64 bits, else `more than <cap>`.

    Past Python's 4,300-digit int-to-str limit the count could not be printed at all.
    """
    return str(count) if count < 1 << 64 else f"more than {cap}"


def check_cap(count: int, cap: int, what: str) -> None:
    """Refuse a count past its cap: `what` with the count, worded by over_cap, in its `{}`, then `, cap is <cap>`."""
    if count > cap:
        raise ResourceCapError(f"{what.format(over_cap(count, cap))}, cap is {cap}")


class TheoremViolation(AssertionError):
    """A verified identity failed; the message carries a concrete witness."""


__all__ = ["ResourceCapError", "TheoremViolation", "UsageError"]
