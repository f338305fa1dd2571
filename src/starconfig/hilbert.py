"""Hilbert-series numerators and h-vectors of built monomial ideals, by the pivot recursion.

The Hilbert function of R/I counts standard monomials (monomials of a given
degree not in I).  Its data come from the exact numerator K(t) of the
Hilbert series K(t)/(1-t)^s.  For a generic monomial ideal K comes from the
classical pivot recursion

    K(I) = K(I + (x_i)) + t * K(I : x_i)

with coprime generator blocks split multiplicatively, and both children
read off the pivot's generators.  For the skeleton ideals and their
symbolic powers the h-polynomial K(t)/(1-t)^c has a closed form
(starconfig.shapes.symbolic_h_vector) that builds no ideal; the recursion
stays the oracle it is tested against, and runs h_vector, bdg_hf_check and
euler_check (a closed-form resolution shape against the numerator).
All arithmetic is exact integer arithmetic; the numerator is a finite
polynomial whose degree is bounded by the degree of the lcm of the
generators.
"""

from functools import lru_cache
from itertools import accumulate
from operator import le

from . import exponents as ex
from .errors import UsageError
from .shapes import HVector, ResolutionShape, _poly_add, _poly_mul, _poly_trim, shape_numerator


def _support_blocks(gens: tuple[ex.Exponent, ...]) -> list[tuple[ex.Exponent, ...]]:
    """Partition generators into blocks with pairwise disjoint variable supports, in generator order."""
    blocks: list[tuple[int, list[int]]] = []  # (support bitmask, generator indices)
    for n, g in enumerate(gens):
        support, members = sum(1 << i for i, e in enumerate(g) if e), [n]
        for block in [b for b in blocks if b[0] & support]:
            blocks.remove(block)
            support |= block[0]
            members += block[1]
        blocks.append((support, members))
    return [tuple(gens[n] for n in members) for members in sorted(sorted(m) for _, m in blocks)]


@lru_cache(maxsize=4096)
def _numerator(ideal: ex.MonomialIdeal) -> tuple[int, ...]:
    """Coefficients of the Hilbert-series numerator K(t) of R/ideal."""
    gens = ideal.gens
    s = ideal.arity
    if not gens:
        return (1,)
    if ideal.is_unit:
        return ()
    if len(gens) == 1:
        d = sum(gens[0])
        return _poly_trim([1] + [0] * (d - 1) + [-1])
    blocks = _support_blocks(gens)
    if len(blocks) > 1:
        result = (1,)
        for block in blocks:
            result = _poly_mul(result, _numerator(ex.MonomialIdeal(s, block)))
        return result
    # pivot on the variable hitting the most generators
    p = max(range(s), key=lambda i: sum(1 for g in gens if g[i]))
    untouched = [h for h in gens if not h[p]]
    lowered = [g[:p] + (g[p] - 1,) + g[p + 1:] for g in gens if g[p]]
    # minimal as listed: two lowered gens dividing each other would give g | f, an untouched h dividing a lowered g
    # would divide g, and a lowered g divides an untouched h only when g_p was 1, which `kept` drops
    ones = [g for g in lowered if not g[p]]
    kept = [h for h in untouched if not any(all(map(le, g, h)) for g in ones)]
    added = ex.MonomialIdeal(s, untouched + [tuple(int(i == p) for i in range(s))])
    quotient = ex.MonomialIdeal(s, lowered + kept)
    return _poly_add(_numerator(added), _numerator(quotient), 1)


def h_vector(ideal: ex.MonomialIdeal, c: int) -> HVector:
    """The h-vector: the (s-c)-th first difference of the Hilbert function.

    The differenced sequence has generating series K(t)/(1-t)^c, so it
    stabilizes at zero exactly when (1-t)^c divides the numerator, and the
    entries are the quotient coefficients.  A non-stabilizing sequence (the
    ideal does not define codimension c) raises UsageError.  This runs
    the pivot recursion on the built ideal and has no degree cap; for a
    skeleton symbolic power call shapes.symbolic_h_vector, which builds no
    ideal and takes the CLI's degree cap.
    """
    s = ideal.arity
    if not 1 <= c <= s:
        raise UsageError(f"codimension must satisfy 1 <= c <= {s}, got {c}")
    entries = list(_numerator(ideal))
    for _ in range(c):
        if sum(entries) != 0:  # remainder of division by (1-t)
            raise UsageError(f"h-vector entries fail to stabilize at zero; is the ideal of codimension {c}?")
        entries = list(accumulate(entries[:-1]))
    return HVector(_poly_trim(entries))


def bdg_hf_check(
    i_s: ex.MonomialIdeal,
    i_c: ex.MonomialIdeal,
    d: int,
    i_result: ex.MonomialIdeal,
) -> bool:
    """Verify the basic-double-link Hilbert function identity.

    For I' = F*I_C + I_S with deg F = d and F a nonzerodivisor mod I_S, the
    Hilbert function of R/I' is h_S(t) - h_S(t-d) + h_C(t-d).  All three
    Hilbert series share the denominator (1-t)^s, so the identity for every t
    is the numerator identity K_R = (1 - t^d) K_S + t^d K_C.
    """
    if not (i_s.arity == i_c.arity == i_result.arity):
        raise UsageError("all three ideals must share an arity")
    if d < 0:
        raise UsageError(f"the linking form degree must be nonnegative, got {d}")
    k_s = _numerator(i_s)
    return _numerator(i_result) == _poly_add(_poly_add(k_s, k_s, d, -1), _numerator(i_c), d)


def euler_check(shape: ResolutionShape, ideal: ex.MonomialIdeal) -> bool:
    """Whether the shape's alternating-sum numerator matches the ideal's Hilbert-series numerator."""
    return shape_numerator(shape) == _numerator(ideal)


__all__ = [
    "bdg_hf_check",
    "euler_check",
    "h_vector",
]
