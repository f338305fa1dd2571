"""Hilbert-series numerators, h-vectors, degrees, and closed-form h-vector predictions.

The Hilbert function of R/I counts standard monomials (monomials of a given
degree not in I).  Its data come from the exact numerator K(t) of the
Hilbert series K(t)/(1-t)^s.  For a generic monomial ideal K comes from the
classical pivot recursion

    K(I) = K(I + (x_i)) + t * K(I : x_i)

with coprime generator blocks split multiplicatively.  For the skeleton
ideals and their symbolic powers the h-polynomial K(t)/(1-t)^c has a closed
form (symbolic_h_vector) that builds no ideal; the recursion stays the oracle
it is tested against.
All arithmetic is exact integer arithmetic; the numerator is a finite
polynomial whose degree is bounded by the degree of the lcm of the
generators.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import sub

from . import config
from .errors import ResourceCapError, UsageError
from .record import Record


class HVector(Record):
    """An h-vector: the (s-c)-th difference of a Hilbert function, trailing zeros trimmed."""

    entries: tuple[int, ...]
    codim: int

    def total(self) -> int:
        """Sum of entries; the scheme degree when the ideal is unmixed of this codimension."""
        return sum(self.entries)


def _poly_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_add(a: tuple[int, ...], b: tuple[int, ...], shift: int = 0, sign: int = 1) -> tuple[int, ...]:
    """a + sign * t^shift * b, trimmed."""
    out = list(a) + [0] * (len(b) + shift - len(a))
    for i, x in enumerate(b, shift):
        out[i] += sign * x
    return _poly_trim(out)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)  # empty, and so trimmed to (), when a or b is
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


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
    from . import exponents as ex  # only the recursion needs ideal arithmetic

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
    counts = [sum(1 for g in gens if g[i] > 0) for i in range(s)]
    pivot = counts.index(max(counts))
    e = [0] * s
    e[pivot] = 1
    added = ex.minimalize(s, gens + (tuple(e),))
    quotient = ex.colon(ideal, tuple(e))
    return _poly_add(_numerator(added), _numerator(quotient), 1)


def h_vector(ideal: ex.MonomialIdeal, c: int) -> HVector:
    """The h-vector: the (s-c)-th first difference of the Hilbert function.

    The differenced sequence has generating series K(t)/(1-t)^c, so it
    stabilizes at zero exactly when (1-t)^c divides the numerator, and the
    entries are the quotient coefficients.  A non-stabilizing sequence (the
    ideal does not define codimension c) raises ResourceCapError.  This runs
    the pivot recursion on the built ideal and has no degree cap; for a
    skeleton symbolic power call symbolic_h_vector, which builds no ideal and
    takes the CLI's degree cap.
    """
    s = ideal.arity
    if not 1 <= c <= s:
        raise UsageError(f"codimension must satisfy 1 <= c <= {s}, got {c}")
    entries = list(_numerator(ideal))
    for _ in range(c):
        if sum(entries) != 0:  # remainder of division by (1-t)
            raise ResourceCapError(
                f"h-vector entries fail to stabilize at zero; is the ideal of codimension {c}?"
            )
        entries = list(accumulate(entries[:-1]))
    return HVector(_poly_trim(entries), c)


def _symbolic_work(s: int, c: int, ell: int) -> int:
    """Word operations of symbolic_h_vector: coefficient operations times 64-bit words per coefficient.

    The first terms (each v's c-1 spread updates and p = c-1 product, the
    product of N by (1-t)^c and the ell*(s-c+1)+c coefficients of K) are
    checked before any binomial or loop over v, so a huge s or ell is refused
    at once.  The words are those of C(s,c) * C(ell-1+c,c) * 2^c, which
    bounds K's coefficients.
    """
    width = s - c + 1
    ops = (c - 1 + width) * ell * (ell - 1) // 2 + (c + 2) * ell * width + c
    if ops > config.DEFAULT_ENUM_CAP:
        return ops
    for v in range(1, ell):  # the products of the blocks p = c-k for k = 2 .. min(c, (ell-1) // v)
        k = min(c, (ell - 1) // v)
        ops += width * ((k - 1) * ell - v * (k * (k + 1) // 2 - 1))
    bits = (comb(s, c) * comb(ell - 1 + c, c)).bit_length() + c
    return ops * (1 + bits // 64)


def symbolic_h_vector(cfg: config.StarConfig, ell: int, d_cap: int | None = None) -> HVector:
    """The h-vector of R/I^(ell) in closed form, building no ideal.

    Counting argument.  A monomial x^a is standard (lies outside I^(ell))
    iff its c smallest exponents sum to less than ell.  Sort the exponents;
    let v be the c-th smallest and p < c the number below v.  Those p
    entries, at C(s,p) choices of places, lie in [0, v-1] and sum to less
    than ell-(c-p)v: they give C(s,p) T_{p,v}(t), with T_{p,v} the power
    (1+t+...+t^(v-1))^p cut below that degree (so p = 0 at v = 0).  The
    other s-p entries, less v each, form a tuple of N^(s-p) with at least
    c-p zeros.  Put its (c-p)-th zero at place c-p+j, j <= s-c: the j
    nonzero places before it are chosen in C(c-p-1+j, j) ways and give
    t/(1-t) each, the s-c places after it 1/(1-t) each.  So the Hilbert
    series is N(t)/(1-t)^c with

        N(t) = sum_{v<ell} sum_{p<c} C(s,p) t^(v(s-p)) T_{p,v}(t) H_p(t),
        H_p(t) = sum_{j<=s-c} C(c-p-1+j, j) t^j,

    and N is the h-polynomial (at ell = 1 the generic h-vector H_0).  No
    term of N is negative, and the term p = c-1, v = ell-1 (p = v = 0 at
    ell = 1) ends in degree ell(s-c+1)-1, the h-vector's degree: a d_cap
    below it (None: no limit) is refused first, then a _symbolic_work past
    config.DEFAULT_ENUM_CAP, both before anything is allocated.
    """
    config.check_ell(ell)
    s, c = cfg.s, cfg.c
    width = s - c + 1
    if d_cap is not None and ell * width - 1 > d_cap:
        raise ResourceCapError(f"h-vector has degree {ell * width - 1}, cap is {d_cap}")
    work = _symbolic_work(s, c, ell)
    if work > config.DEFAULT_ENUM_CAP:
        raise ResourceCapError(
            f"closed-form Hilbert numerator needs about {work} word operations, "
            f"cap is {config.DEFAULT_ENUM_CAP}"
        )
    rows = {p: [comb(c - p - 1 + j, j) for j in range(width)] for p in range(c) if p == 0 or p > c - ell}
    n = [0] * (ell * width)
    for v in range(ell):
        spread = [1] + [0] * (ell - v - 1)  # (1+t+...+t^(v-1))^p below degree ell-v
        for p in range(c if v else 1):
            if p:  # times (1-t^v)/(1-t)
                spread = list(accumulate(map(sub, spread, [0] * v + spread)))
            top = ell - (c - p) * v
            if top > 0:
                weight = comb(s, p)
                for i, x in enumerate(_poly_mul(spread[:top], rows[p]), v * (s - p)):
                    n[i] += weight * x
    return HVector(_poly_trim(n), c)


def symbolic_numerator(cfg: config.StarConfig, ell: int) -> tuple[int, ...]:
    """The Hilbert-series numerator K(t) = N(t) (1-t)^c of R/I^(ell), N from symbolic_h_vector.

    At ell = 1 the binomial theorem turns it into 1 - sum_{q<c} C(s,q) t^(s-q) (1-t)^q.
    """
    n = symbolic_h_vector(cfg, ell).entries  # first, so that a refusal costs nothing
    one_minus_t = [1]  # (1-t)^c, each coefficient from the last
    for i in range(cfg.c):
        one_minus_t.append(-one_minus_t[-1] * (cfg.c - i) // (i + 1))
    return _poly_mul(n, one_minus_t)


def generic_hvector(s: int, c: int) -> HVector:
    """The generic h-vector of the codimension-c skeleton: binom(t+c-1, c-1) for t = 0..s-c."""
    if not 1 <= c <= s - 1:
        raise UsageError(f"need 1 <= c <= s-1, got c={c}, s={s}")
    return HVector(tuple(comb(t + c - 1, c - 1) for t in range(s - c + 1)), c)


def ss_hvector_formula(s: int, c: int) -> HVector:
    """Closed form for the h-vector of the symbolic square of the skeleton.

    Entries grow generically through degree s-c, then plateau at binom(s, c-1)
    through degree 2s-2c+1, then vanish.
    """
    if not 1 <= c <= s - 1:
        raise UsageError(f"need 1 <= c <= s-1, got c={c}, s={s}")
    entries = [comb(t + c - 1, c - 1) for t in range(s - c + 1)]
    entries += [comb(s, c - 1)] * ((2 * s - 2 * c + 1) - (s - c + 1) + 1)
    return HVector(tuple(entries), c)


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


__all__ = [
    "HVector",
    "bdg_hf_check",
    "generic_hvector",
    "h_vector",
    "ss_hvector_formula",
    "symbolic_h_vector",
    "symbolic_numerator",
]
