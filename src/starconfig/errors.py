"""Exception types shared across the package.

The CLI maps these to exit codes: UsageError -> 2, ResourceCapError -> 3,
TheoremViolation -> 1.
"""


class UsageError(ValueError):
    """Invalid parameters or misuse of an operation (arity mismatch, bad range)."""


class ResourceCapError(RuntimeError):
    """A computation exceeded its configured cap; the message carries the cap."""


class TheoremViolation(AssertionError):
    """A verified identity failed; the message carries a concrete witness."""


__all__ = ["ResourceCapError", "TheoremViolation", "UsageError"]
