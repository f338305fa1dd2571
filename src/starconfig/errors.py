"""Exception types shared across the package.

The CLI maps these to exit codes: UsageError -> 2, ResourceCapError -> 3,
TheoremViolation -> 1.
"""


class UsageError(ValueError):
    """Invalid parameters or misuse of an operation (arity mismatch, bad range)."""


class ResourceCapError(RuntimeError):
    """A computation exceeded its configured cap; the message carries the cap."""


def check_cap(count: int, cap: int, what: str) -> None:
    """Refuse a count past its cap: `what` with the count in its `{}`, then `, cap is <cap>`.

    This is the only place that raises ResourceCapError.  A count of 2^64 or
    more is worded `more than <cap>`: past Python's int-to-str limit (4,300
    digits by default) it could not be printed at all.
    """
    if count > cap:
        shown = count if count < 1 << 64 else f"more than {cap}"
        raise ResourceCapError(f"{what.format(shown)}, cap is {cap}")


class TheoremViolation(AssertionError):
    """A verified identity failed; the message carries a concrete witness."""


__all__ = ["ResourceCapError", "TheoremViolation", "UsageError"]
