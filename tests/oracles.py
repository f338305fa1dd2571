"""Generic ideal machinery that the library answers by closed forms, kept as test oracles.

Each function here is the generic path that a closed form or a structural
theorem in `starconfig` replaced: divisibility and membership scans, colon
ideals and saturation, degree truncation, the built right-hand side of the
power decomposition, the symbolic power and the W_k chain as intersections
of prime powers, the Hilbert function from the pivot recursion, the
per-tuple box predicates of the decomposition check and a brute force
over the completions of its sweep's states, the intersection and sum
constructors, the sparse polynomials and their cofactor expansion that the
unique-matching minors replaced, and the 2x2-minor test for proportional
linear forms.  No command reaches them; the
tests compare the library against them.  en_rank, the skeleton's
Eagon-Northcott ranks, is a closed form that only the tests call.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb

from starconfig import config, exponents as ex, star
from starconfig.config import StarConfig, check_ell
from starconfig.errors import UsageError
from starconfig.exponents import (
    Exponent,
    MonomialIdeal,
    _check_exponent,
    _check_same_arity,
    minimalize,
    monomial_str,
    unit_ideal,
)
from starconfig.hilbert import _numerator
from starconfig.record import Record
from starconfig.resolution import SymbolicMatrix
from starconfig.star import SimplicialComplex

# --- monomial-ideal arithmetic (from starconfig.exponents) ---


def grlex_key(t: Exponent) -> tuple:
    """Sort key for the graded-lexicographic order with x0 largest, the order MonomialIdeal stores."""
    return (sum(t), tuple(-e for e in t))


def zero_ideal(arity: int) -> MonomialIdeal:
    return MonomialIdeal(arity, ())


def variable_ideal(arity: int, indices: Iterable[int]) -> MonomialIdeal:
    """The prime ideal generated by the listed variables."""
    gens = []
    for i in indices:
        if not 0 <= i < arity:
            raise UsageError(f"variable index {i} out of range for arity {arity}")
        gens.append(tuple(int(j == i) for j in range(arity)))
    return minimalize(arity, gens)


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The ideal a + b."""
    _check_same_arity(a, b)
    return minimalize(a.arity, a.gens + b.gens)


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The intersection, via componentwise max (lcm) of generator pairs."""
    _check_same_arity(a, b)
    lcms = {tuple(max(x, y) for x, y in zip(g, h)) for g in a.gens for h in b.gens}
    return minimalize(a.arity, lcms)


def intersect_many(ideals: Iterable[MonomialIdeal]) -> MonomialIdeal:
    """Fold intersect pairwise, minimalizing after each fold.

    The empty intersection is undefined here; pass at least one ideal.
    """
    it = iter(ideals)
    try:
        result = next(it)
    except StopIteration:
        raise UsageError("intersect_many needs at least one ideal") from None
    for ideal in it:
        result = intersect(result, ideal)
    return result


def divides(a: Exponent, b: Exponent) -> bool:
    """True iff monomial a divides monomial b (componentwise <=)."""
    if len(a) != len(b):
        raise UsageError(f"arity mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def member(mu: Exponent, ideal: MonomialIdeal) -> bool:
    """True iff the monomial mu lies in the ideal (some generator divides it)."""
    _check_exponent(mu, ideal.arity)
    return any(all(x <= y for x, y in zip(g, mu)) for g in ideal.gens)


def colon(ideal: MonomialIdeal, mu: Exponent) -> MonomialIdeal:
    """The colon ideal (I : mu) for a single monomial mu."""
    _check_exponent(mu, ideal.arity)
    quots = {tuple(max(x - y, 0) for x, y in zip(g, mu)) for g in ideal.gens}
    return minimalize(ideal.arity, quots)


def colon_ideal(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The colon ideal (a : b), intersecting colons over the generators of b.

    (a : (0)) is the unit ideal.
    """
    _check_same_arity(a, b)
    if b.is_zero:
        return unit_ideal(a.arity)
    return intersect_many(colon(a, g) for g in b.gens)


def saturate(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The saturation of a with respect to b: iterate (a : b) to a fixed point."""
    _check_same_arity(a, b)
    if b.is_zero:
        raise UsageError("cannot saturate by the zero ideal")
    current = a
    while True:
        nxt = colon_ideal(current, b)
        if nxt == current:
            return current
        current = nxt


def contains(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """True iff b is contained in a (every generator of b is a member of a)."""
    _check_same_arity(a, b)
    if b.is_zero or a.is_unit:
        return True
    if a.is_zero:
        return False
    return all(member(g, a) for g in b.gens)


def truncate_to_degree(ideal: MonomialIdeal, t: int) -> MonomialIdeal:
    """The intersection of the ideal with the t-th power of the irrelevant ideal.

    Each generator of degree < t is padded up to degree t in every possible
    way; this produces the same ideal as intersecting with the ideal of all
    degree-t monomials, without the quadratic lcm blow-up.
    """
    if t < 0:
        raise UsageError(f"degree bound must be nonnegative, got {t}")
    s = ideal.arity
    out: set[Exponent] = set()
    for g in ideal.gens:
        gap = t - sum(g)
        if gap <= 0:
            out.add(g)
            continue
        for pad in compositions(gap, s):
            out.add(tuple(x + y for x, y in zip(g, pad)))
    return minimalize(s, out)


def compositions(total: int, parts: int, bound: int | None = None):
    """Yield all tuples of `parts` nonnegative integers summing to `total`, each <= bound if given."""
    top = total if bound is None else min(bound, total)
    if parts == 1:
        if total <= top:
            yield (total,)
        return
    for first in range(top + 1):
        for rest in compositions(total - first, parts - 1, bound):
            yield (first,) + rest


def monomials_of_degree(arity: int, d: int):
    """Yield all exponent tuples of total degree d, in no particular order."""
    return compositions(d, arity)


# --- the built power decomposition (from starconfig.decomp) ---


def irrelevant_ideal(s: int) -> ex.MonomialIdeal:
    """The ideal generated by all s variables."""
    return variable_ideal(s, range(s))


def irrelevant_power(s: int, t: int) -> ex.MonomialIdeal:
    """The t-th power of the irrelevant ideal: all monomials of degree t."""
    if t < 0:
        raise UsageError(f"power must be nonnegative, got {t}")
    return ex.MonomialIdeal(s, monomials_of_degree(s, t))


@lru_cache(maxsize=32)
def _symbolic_intersection(s: int, c: int, ell: int) -> ex.MonomialIdeal:
    """The intersection of the ((j+1)*ell)-th symbolic powers of the codimension-(c+j) skeletons, j = 0..N-c."""
    return intersect_many(
        star.symbolic_power(StarConfig(s, c + j), (j + 1) * ell) for j in range(s - c)
    )


def rhs_decomposition(s: int, c: int, ell: int) -> ex.MonomialIdeal:
    """The decomposition of the ell-th power of the skeleton ideal (proved in decomp.decomp_verdicts).

    Intersects the ((j+1)*ell)-th symbolic powers of the codimension-(c+j)
    skeletons for j = 0..N-c (N = s-1), then the (N-c+2)*ell-th power of the
    irrelevant ideal.
    """
    config.check_ell(ell)
    # the irrelevant factor: intersect with M^t via degree truncation
    return truncate_to_degree(_symbolic_intersection(s, c, ell), (s - c + 1) * ell)


def box_memberships(a: tuple[int, ...], c: int, ell: int) -> tuple[bool, bool, bool, bool]:
    """For nondecreasing a: is x^a in I^ell, the symbolic intersection, M^(d*ell), I^ell : M^inf?"""
    d = len(a) - c + 1
    capped = [min(e, ell) for e in a]
    prefix = list(accumulate(a))
    return (
        sum(capped) >= ell * d,
        all(prefix[c + j - 1] >= (j + 1) * ell for j in range(d - 1)),
        prefix[-1] >= ell * d,
        sum(capped) - capped[-1] >= ell * (d - 1),
    )


def completion_memberships(s: int, c: int, ell: int, state: tuple[int, int, int, bool]):
    """box_memberships for each nondecreasing completion of a frontier state of decomp._sweep (fold with verdicts).

    The state (low, total, capped, ok) stands before position 0: the completions are the tuples of
    [low, d*ell]^s in combinations_with_replacement order, total and capped are added to their uncapped
    sums, and ok joins the intersection's prefix tests.  At (0, 0, 0, True) this is box_memberships on the box.
    """
    low, total, capped, ok = state
    d = s - c + 1
    for a in combinations_with_replacement(range(low, d * ell + 1), s):
        mins = [min(e, ell) for e in a]
        held = capped + sum(mins)
        prefix = list(accumulate(a, initial=total))  # prefix[i]: total plus the first i entries
        yield (
            held >= ell * d,
            ok and all(prefix[c + j] >= (j + 1) * ell for j in range(d - 1)),
            prefix[-1] >= ell * d,
            held - mins[-1] >= ell * (d - 1),
        )


def verdicts(memberships) -> tuple[bool, bool]:
    """decomp_verdicts' two verdicts from per-tuple memberships, vacuously true when there are none.

    The power verdict: in I^ell iff in the intersection and in M^(d*ell).  The saturation verdict: in
    I^ell : M^inf iff in the intersection.  Each must hold on every tuple.
    """
    power_ok = sat_ok = True
    for in_power, in_intersection, in_m, in_saturation in memberships:
        power_ok = power_ok and in_power == (in_intersection and in_m)
        sat_ok = sat_ok and in_saturation == in_intersection
    return power_ok, sat_ok


# --- symbolic powers and complexes (from starconfig.star) ---


def symbolic_power_by_intersection(cfg: StarConfig, ell: int) -> ex.MonomialIdeal:
    """Cross-check oracle: intersect the ell-th powers of all component primes."""
    check_ell(ell)
    s, c = cfg.s, cfg.c
    terms = (
        ex.power(variable_ideal(s, subset), ell)
        for subset in itertools.combinations(range(s), c)
    )
    return intersect_many(terms)


def wk_pair_exponents(s: int, ell: int, k: int) -> dict[tuple[int, int], int]:
    """The exponent of each pair prime in W_k: ell+2 inside the first k variables, ell+1 across, ell outside."""
    return {(i, j): ell + (i < k) + (j < k) for i, j in itertools.combinations(range(s), 2)}


def wk_ideal_by_intersection(s: int, ell: int, k: int) -> ex.MonomialIdeal:
    """star.wk_ideal as its definition: fold intersect over the pair-prime powers (x_i, x_j)^a."""
    return intersect_many(
        ex.power(variable_ideal(s, pair), a) for pair, a in wk_pair_exponents(s, ell, k).items()
    )


def make_complex(vertex_count: int, facets) -> SimplicialComplex:
    """Canonicalize facet sets (drop faces contained in other faces, sort)."""
    sets = {frozenset(f) for f in facets}
    maximal = [f for f in sets if not any(f < g for g in sets)]
    canon = tuple(sorted(tuple(sorted(f)) for f in maximal))
    return SimplicialComplex(vertex_count, canon)


# --- Hilbert functions (from starconfig.hilbert) ---


def hilbert_function(ideal: ex.MonomialIdeal, d: int) -> int:
    """Number of monomials of degree d in s variables not lying in the ideal."""
    if d < 0:
        raise UsageError(f"degree must be nonnegative, got {d}")
    s = ideal.arity
    k = _numerator(ideal)
    return sum(c * comb(d - j + s - 1, s - 1) for j, c in enumerate(k) if j <= d)


# --- resolution ranks (from starconfig.shapes) ---


def en_rank(s: int, c: int, i: int) -> int:
    """Rank of the i-th module in the linear (Eagon-Northcott) resolution of the codimension-c skeleton ideal."""
    if not 1 <= i <= c:
        raise UsageError(f"homological index must satisfy 1 <= i <= c, got i={i}, c={c}")
    return comb(s, s - c + i) * comb(s - c + i - 1, i - 1)


# --- sparse polynomials and cofactor expansion (from starconfig.resolution) ---


class SparsePoly(Record):
    """A multivariate polynomial with integer coefficients.

    Terms map exponent tuples to nonzero coefficients, stored sorted in
    graded-lex order so equality is structural.
    """

    arity: int
    terms: tuple[tuple[Exponent, int], ...]

    @staticmethod
    def from_dict(arity: int, d: dict[Exponent, int]) -> SparsePoly:
        items = tuple(sorted(((m, c) for m, c in d.items() if c != 0), key=lambda t: grlex_key(t[0])))
        return SparsePoly(arity, items)

    @staticmethod
    def zero(arity: int) -> SparsePoly:
        return SparsePoly(arity, ())

    @staticmethod
    def monomial(arity: int, exp: Exponent, coeff: int = 1) -> SparsePoly:
        if len(exp) != arity:
            raise UsageError(f"exponent {exp} does not match arity {arity}")
        if coeff == 0:
            return SparsePoly(arity, ())
        return SparsePoly(arity, ((tuple(exp), coeff),))

    @staticmethod
    def variable(arity: int, i: int) -> SparsePoly:
        e = [0] * arity
        e[i] = 1
        return SparsePoly.monomial(arity, tuple(e))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: SparsePoly) -> SparsePoly:
        if self.arity != other.arity:
            raise UsageError(f"arity mismatch: {self.arity} vs {other.arity}")
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return SparsePoly.from_dict(self.arity, d)

    def __neg__(self) -> SparsePoly:
        return SparsePoly(self.arity, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: SparsePoly) -> SparsePoly:
        return self + (-other)

    def __mul__(self, other: SparsePoly) -> SparsePoly:
        if self.arity != other.arity:
            raise UsageError(f"arity mismatch: {self.arity} vs {other.arity}")
        d: dict[Exponent, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                d[m] = d.get(m, 0) + c1 * c2
        return SparsePoly.from_dict(self.arity, d)

    def as_monomial(self) -> tuple[int, Exponent] | None:
        """(coefficient, exponent) when the polynomial is a single term, else None."""
        if len(self.terms) != 1:
            return None
        m, c = self.terms[0]
        return c, m

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.terms:
            mono = monomial_str(m)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def poly_grid(matrix: SymbolicMatrix, arity: int) -> list[list[SparsePoly]]:
    """The matrix's entries lifted to SparsePoly: (coefficient, exponent) to a term, None to zero."""
    return [
        [SparsePoly.zero(arity) if e is None else SparsePoly.monomial(arity, e[1], e[0]) for e in row]
        for row in matrix.entries
    ]


def _det_expand(
    grid: list[list[SparsePoly]],
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    memo: dict,
    arity: int,
) -> SparsePoly:
    if not rows:
        return SparsePoly.monomial(arity, (0,) * arity)
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if len(rows) == 1:
        result = grid[rows[0]][cols[0]]
        memo[key] = result
        return result

    # pick the line (row or column) with the fewest nonzero entries, the first such row on a tie
    lines = [(sum(not grid[r][c].is_zero for c in cols), True, a) for a, r in enumerate(rows)]
    lines += [(sum(not grid[r][c].is_zero for r in rows), False, b) for b, c in enumerate(cols)]
    _, is_row, a = min(lines, key=lambda line: line[0])
    result = SparsePoly.zero(arity)
    for b in range(len(cols) if is_row else len(rows)):  # an all-zero line leaves the result zero
        i, j = (a, b) if is_row else (b, a)
        entry = grid[rows[i]][cols[j]]
        if entry.is_zero:
            continue
        minor = _det_expand(grid, rows[:i] + rows[i + 1 :], cols[:j] + cols[j + 1 :], memo, arity)
        term = entry * minor
        result = result + term if (i + j) % 2 == 0 else result - term
    memo[key] = result
    return result


def maximal_minors_by_expansion(matrix: SymbolicMatrix, arity: int) -> list[SparsePoly]:
    """resolution.maximal_minors by cofactor expansion: _det_expand on each row-deleted square, one shared memo.

    Each entry is lifted to a SparsePoly in `arity` variables, so an entry's
    first component may be any integer coefficient, and a minor any polynomial.
    """
    grid = poly_grid(matrix, arity)
    memo: dict = {}
    cols = tuple(range(matrix.cols))
    all_rows = tuple(range(matrix.rows))
    return [
        _det_expand(grid, all_rows[:k] + all_rows[k + 1 :], cols, memo, arity)
        for k in range(matrix.rows)
    ]


# --- proportional linear forms (from starconfig.export) ---


def pairwise_dependent_by_minors(forms: list[tuple[Fraction, ...]]) -> list[tuple[int, int]]:
    # a pair is dependent iff its 2 x (n+1) matrix has rank < 2: all its 2x2 minors vanish
    return [
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(forms), 2)
        if all(a[p] * b[q] == a[q] * b[p] for p, q in combinations(range(len(a)), 2))
    ]
