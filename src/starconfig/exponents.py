"""Exact arithmetic for monomials and monomial ideals in a fixed number of variables.

A monomial in s variables is an exponent tuple: a tuple of s nonnegative
integers, element i giving the exponent of x_i.  Its degree is the sum of the
entries (always recomputed, never cached).

  Exponent = tuple[int, ...]        x0^2*x1  in 3 variables  ->  (2, 1, 0)

A MonomialIdeal is an arity plus the minimal generating antichain, which the
constructor puts in graded-lexicographic order (degree ascending, then
x0 > x1 > ... within a degree) so that equality of ideals is equality of
generator tuples.  The zero ideal has no generators; the unit ideal has the
single all-zeros generator.

All values are immutable and all operations are pure.  Arity is checked at
every binary operation; there is no implicit broadcasting.
"""

from collections.abc import Iterable
from operator import le

from .errors import UsageError
from .record import Record

Exponent = tuple[int, ...]


def monomial_str(t: Exponent) -> str:
    """Render an exponent tuple as a monomial in x0..x{s-1}, e.g. x0*x2^3."""
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(t) if e > 0]
    return "*".join(parts) if parts else "1"


def _check_exponent(t: Exponent, arity: int) -> None:
    if len(t) != arity:
        raise UsageError(f"exponent tuple {t} has arity {len(t)}, expected {arity}")
    if min(t, default=0) < 0:
        raise UsageError(f"exponent tuple {t} has a negative entry")


class MonomialIdeal(Record):
    """A monomial ideal: arity plus its canonical minimal generating antichain.

    The constructor puts ``gens`` in graded-lex order and trusts that they
    are a duplicate-free antichain: :func:`minimalize` makes one from any
    monomials, and star.wk_ideal and hilbert._numerator prove theirs are.
    """

    arity: int
    gens: tuple[Exponent, ...]

    def __init__(self, arity: int, gens: Iterable[Exponent], /):
        # descending lex, then a stable sort by degree: graded lex with x0 > x1 > ...
        super().__init__(arity, tuple(sorted(sorted(gens, reverse=True), key=sum)))

    def _validate(self):
        if self.arity < 1:
            raise UsageError(f"arity must be positive, got {self.arity}")
        for g in self.gens:
            _check_exponent(g, self.arity)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and sum(self.gens[0]) == 0


def unit_ideal(arity: int) -> MonomialIdeal:
    return MonomialIdeal(arity, ((0,) * arity,))


def minimalize(arity: int, tuples: Iterable[Exponent]) -> MonomialIdeal:
    """The ideal generated by the given monomials, as its minimal antichain.

    Duplicates and divisibility-dominated tuples are dropped; the result
    generates the same upward-closed set.
    """
    uniq = sorted(set(tuples), key=sum)
    for t in uniq:
        _check_exponent(t, arity)
    # only strictly smaller degrees can divide a candidate, so each tuple is
    # checked against the kept generators below its own degree
    kept: list[Exponent] = []
    limit = 0
    current_degree = -1
    for t in uniq:  # ascending degree
        d = sum(t)
        if d != current_degree:
            current_degree = d
            limit = len(kept)
        if not any(all(map(le, g, t)) for g in kept[:limit]):
            kept.append(t)
    return MonomialIdeal(arity, kept)


def _check_same_arity(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.arity != b.arity:
        raise UsageError(f"arity mismatch: {a.arity} vs {b.arity}")


def multiply(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The product ideal, generated by pairwise products of generators."""
    _check_same_arity(a, b)
    prods = {tuple(x + y for x, y in zip(g, h)) for g in a.gens for h in b.gens}
    return minimalize(a.arity, prods)


def power(ideal: MonomialIdeal, ell: int) -> MonomialIdeal:
    """The ell-th power, minimalized at every step.

    power(I, 0) is the unit ideal by convention.
    """
    if ell < 0:
        raise UsageError(f"power exponent must be nonnegative, got {ell}")
    if ell == 0:
        return unit_ideal(ideal.arity)
    result = ideal
    for _ in range(ell - 1):
        result = multiply(result, ideal)
    return result


def equals(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Ideal equality; canonical storage makes this generator-list comparison."""
    _check_same_arity(a, b)
    return a.gens == b.gens


def alpha(ideal: MonomialIdeal) -> int:
    """Least degree of a minimal generator (initial degree)."""
    if ideal.is_zero:
        raise UsageError("alpha of the zero ideal is undefined")
    return sum(ideal.gens[0])  # gens sorted by degree first


def omega(ideal: MonomialIdeal) -> int:
    """Largest degree of a minimal generator (terminal generator degree)."""
    if ideal.is_zero:
        raise UsageError("omega of the zero ideal is undefined")
    return sum(ideal.gens[-1])


__all__ = [
    "Exponent",
    "MonomialIdeal",
    "alpha",
    "equals",
    "minimalize",
    "monomial_str",
    "multiply",
    "omega",
    "power",
    "unit_ideal",
]
