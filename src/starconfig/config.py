"""The skeleton's parameters and the closed forms that need nothing else.

StarConfig, the exponent and codimension-2 checks, the default enumeration
cap, the alpha and omega formulas of the symbolic powers, and comb_past, the
binomial the refusals compare with a cap; callers import each from here.
This module imports only errors and record, so code that needs (s, c) and
these formulas loads no ideal arithmetic.
"""

from .errors import UsageError
from .record import Record

# Cap on the exponent entries of the shapes and generators listed by enumeration ops.
DEFAULT_ENUM_CAP = 5_000_000


def check_ell(ell: int) -> None:
    """Refuse a symbolic or ordinary power exponent below 1 as a usage error."""
    if ell < 1:
        raise UsageError(f"need ell >= 1, got {ell}")


def check_codim2(s: int) -> None:
    """Refuse s < 3 as a usage error: the codimension-2 skeleton needs 2 <= s-1."""
    if s < 3:
        raise UsageError(f"codimension-2 configurations need s >= 3, got {s}")


def comb_past(n: int, k: int, cap: int) -> int:
    """C(n, k), 0 <= k <= n, when it is at most max(cap, 2^64), else a number past both that is at most C(n, k).

    C(n, i) grows with i up to min(k, n-k) and is at least 2^i there, so the
    product stops within max(cap, 2^64).bit_length() factors however large n is.
    """
    value, bound = 1, max(cap, (1 << 64) - 1)
    for i in range(1, min(k, n - k) + 1):
        value = value * (n - i + 1) // i
        if value > bound:
            break
    return value


class StarConfig(Record):
    """Parameters of a skeleton in the monomial model P^{s-1}.

    s is the number of hyperplanes (= number of variables), c the codimension.
    """

    s: int
    c: int

    def _validate(self):
        if self.s < 2:
            raise UsageError(f"need at least 2 hyperplanes, got s={self.s}")
        if not 1 <= self.c <= self.s - 1:
            raise UsageError(f"codimension must satisfy 1 <= c <= s-1, got c={self.c}, s={self.s}")


def alpha_symbolic_formula(cfg: StarConfig, ell: int) -> int:
    """Closed form for the initial degree of the ell-th symbolic power.

    Writing ell = q*c + r with 1 <= r <= c, the value is (q+1)*s - c + r.
    """
    check_ell(ell)
    q, r = divmod(ell - 1, cfg.c)
    r += 1
    return (q + 1) * cfg.s - cfg.c + r


def omega_symbolic_formula(cfg: StarConfig, ell: int) -> int:
    """Closed form for the top generator degree: ell*(s-c+1), the initial degree of the ordinary power."""
    check_ell(ell)
    return ell * (cfg.s - cfg.c + 1)


__all__ = ["DEFAULT_ENUM_CAP", "StarConfig", "alpha_symbolic_formula", "check_codim2", "check_ell", "omega_symbolic_formula"]
