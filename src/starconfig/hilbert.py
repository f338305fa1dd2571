"""Hilbert functions, h-vectors, degrees, and closed-form h-vector predictions.

The Hilbert function of R/I counts standard monomials (monomials of a given
degree not in I).  It is computed through the exact numerator K(t) of the
Hilbert series K(t)/(1-t)^s.  For a generic monomial ideal K comes from the
classical pivot recursion

    K(I) = K(I + (x_i)) + t * K(I : x_i)

with coprime generator blocks split multiplicatively.  For the skeleton
ideals and their symbolic powers K has a closed form (symbolic_numerator)
that builds no ideal; the recursion stays the oracle it is tested against.
All arithmetic is exact integer arithmetic; the numerator is a finite
polynomial whose degree is bounded by the degree of the lcm of the
generators.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lgamma, log

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


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
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
    a = _numerator(added)
    b = _numerator(quotient)
    out = [0] * max(len(a), len(b) + 1)
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i + 1] += x
    return _poly_trim(out)


def hilbert_function(ideal: ex.MonomialIdeal, d: int) -> int:
    """Number of monomials of degree d in s variables not lying in the ideal."""
    if d < 0:
        raise UsageError(f"degree must be nonnegative, got {d}")
    s = ideal.arity
    k = _numerator(ideal)
    return sum(c * comb(d - j + s - 1, s - 1) for j, c in enumerate(k) if j <= d)


def _degree_cap(top: int) -> int:
    """The default degree cap of an ideal whose largest generator degree is top."""
    return 4 * (1 + top)


def h_vector(ideal: ex.MonomialIdeal, c: int, d_cap: int | None = None) -> HVector:
    """The h-vector: the (s-c)-th first difference of the Hilbert function.

    The differenced sequence has generating series K(t)/(1-t)^c, so it
    stabilizes at zero exactly when (1-t)^c divides the numerator, and the
    entries are the quotient coefficients.  A non-stabilizing sequence (the
    ideal does not define codimension c) or an h-vector past the degree cap
    raises ResourceCapError.  This runs the pivot recursion on the built
    ideal; for a skeleton symbolic power call symbolic_h_vector, which
    builds no ideal.
    """
    s = ideal.arity
    if not 1 <= c <= s:
        raise UsageError(f"codimension must satisfy 1 <= c <= {s}, got {c}")
    cap = _degree_cap(ideal.max_gen_degree()) if d_cap is None else d_cap
    return _h_vector_from_numerator(_numerator(ideal), c, cap)


def _h_vector_from_numerator(numerator: tuple[int, ...], c: int, cap: int) -> HVector:
    """Divide K(t) by (1-t)^c, refusing an h-vector past the degree cap or a nonzero remainder."""
    entries = list(numerator)
    if len(entries) - 1 - c > cap:
        raise ResourceCapError(f"h-vector has degree {len(entries) - 1 - c}, cap is {cap}")
    for _ in range(c):
        if sum(entries) != 0:  # remainder of division by (1-t)
            raise ResourceCapError(
                f"h-vector entries fail to stabilize at zero; is the ideal of codimension {c}?"
            )
        total = 0
        quotient = []
        for coeff in entries[:-1]:
            total += coeff
            quotient.append(total)
        entries = quotient
    while entries and entries[-1] == 0:
        entries.pop()
    return HVector(tuple(entries), c)


def _log2_comb(n: int, k: int) -> float:
    """log2 of C(n, k), from lgamma so that huge arguments cost nothing."""
    return (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(2)


def _symbolic_work(s: int, c: int, ell: int) -> int:
    """Word operations of symbolic_numerator: coefficient operations times words per coefficient.

    About c * ell * (ell+1) * (s-c+2) coefficient operations, each on
    integers no longer than the K(t) bound C(s,c) * C(ell-1+c,c) * 2^c.
    """
    ops = c * ell * (ell + 1) * (s - c + 2)
    if ops > config.DEFAULT_ENUM_CAP:  # refused anyway; keeps lgamma's arguments in float range
        return ops
    bits = _log2_comb(s, c) + _log2_comb(ell - 1 + c, c) + c
    return ops * (1 + int(bits) // 64)


def _placements(s: int, c: int, k: int) -> tuple[int, ...]:
    """C(p, k-1) * C(s-1-p, c-k) for p = k-1 .. s-c+k-1, each from the last by one ratio step."""
    a, b = 1, comb(s - k, c - k)
    out = [a * b]
    for p in range(k - 1, s - c + k - 1):
        a = a * (p + 1) // (p + 2 - k)
        b = b * (s - 1 - p - c + k) // (s - 1 - p)
        out.append(a * b)
    return tuple(out)


def symbolic_numerator(cfg: config.StarConfig, ell: int) -> tuple[int, ...]:
    """The Hilbert-series numerator K(t) of R/I^(ell) in closed form, building no ideal.

    Counting argument.  A monomial x^a is standard (lies outside I^(ell))
    iff its c smallest exponents sum to less than ell.  Order the positions
    by (a_i, i) and let S be the first c of them, M the largest exponent on
    S, and p the largest index in S with a_p = M; k-1 members of S have
    an index below p and c-k an index above it, so S can be chosen in
    C(p, k-1) * C(s-1-p, c-k) ways.  Given S and a_S, a position j outside S
    keeps S first exactly when a_j > M for j < p and a_j >= M for j > p, so
    the p-k+1 outside positions below p each contribute t^(M+1)/(1-t) and the
    rest t^M/(1-t).  On S, the members below p range over 0..M, those above
    over 0..M-1, and the total stays below ell.  Hence the h-polynomial is

        N(t) = sum_{M<ell} sum_{k<=c} trunc_{<ell}(P_{<=M}^(k-1) t^M P_{<M}^(c-k))
               * t^(M(s-c)) * sum_p C(p,k-1) C(s-1-p,c-k) t^(p-k+1)

    with P_{<=M} = 1+t+...+t^M and P_{<M} = 1+t+...+t^(M-1), and
    K(t) = N(t) * (1-t)^c.  When the work estimate of _symbolic_work passes
    config.DEFAULT_ENUM_CAP it raises ResourceCapError before allocating
    anything.
    """
    config.check_ell(ell)
    s, c = cfg.s, cfg.c
    work = _symbolic_work(s, c, ell)
    if work > config.DEFAULT_ENUM_CAP:
        raise ResourceCapError(
            f"closed-form Hilbert numerator needs about {work} word operations, "
            f"cap is {config.DEFAULT_ENUM_CAP}"
        )
    width = s - c + 1
    # parts[k-1] = sum over M of t^(M*width) * trunc_{<ell-M}(P_{<=M}^(k-1) P_{<M}^(c-k))
    parts = [[0] * ((ell - 1) * width + 1) for _ in range(c)]
    parts[c - 1][0] = 1  # M = 0: every member of S is 0, and P_{<0} = 0 forces k = c
    for m in range(1, ell):
        top = ell - m
        f = [1] + [0] * (top - 1)
        for _ in range(c - 1):  # times P_{<M}, a sliding window sum
            acc = 0
            out = []
            for i in range(top):
                acc += f[i] - (f[i - m] if i >= m else 0)
                out.append(acc)
            f = out
        for k in range(1, c + 1):
            if k > 1:  # trade one factor P_{<M} for P_{<=M}: times (1-t^(M+1)) / (1-t^M)
                f = [f[i] - (f[i - m - 1] if i > m else 0) for i in range(top)]
                for i in range(m, top):
                    f[i] += f[i - m]
            row = parts[k - 1]
            for i, x in enumerate(f, m * width):
                row[i] += x
    n = [0] * (ell * width)
    for k in range(1, c + 1):
        part = _poly_trim(parts[k - 1])
        if not part:  # ell = 1 leaves only k = c
            continue
        for i, x in enumerate(_poly_mul(part, _placements(s, c, k))):
            n[i] += x
    one_minus_t = [1]  # (1-t)^c, each coefficient from the last
    for i in range(c):
        one_minus_t.append(-one_minus_t[-1] * (c - i) // (i + 1))
    return _poly_mul(_poly_trim(n), tuple(one_minus_t))


def symbolic_h_vector(cfg: config.StarConfig, ell: int, d_cap: int | None = None) -> HVector:
    """The h-vector of R/I^(ell) from the closed-form numerator.

    The default degree cap is that of I^(ell) in h_vector, whose top
    generator degree is omega_symbolic_formula.
    """
    k = symbolic_numerator(cfg, ell)
    cap = _degree_cap(config.omega_symbolic_formula(cfg, ell)) if d_cap is None else d_cap
    return _h_vector_from_numerator(k, cfg.c, cap)


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


def degree(ideal: ex.MonomialIdeal, c: int) -> int:
    """The scheme degree: sum of h-vector entries (the ideal must be unmixed of codimension c).

    For a skeleton symbolic power, symbolic_h_vector(cfg, ell).total() gives
    it without building the ideal.
    """
    return h_vector(ideal, c).total()


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
    k_s, k_c = _numerator(i_s), _numerator(i_c)
    linked = [0] * (max(len(k_s), len(k_c)) + d)
    for i, x in enumerate(k_s):
        linked[i] += x
        linked[i + d] -= x
    for i, x in enumerate(k_c):
        linked[i + d] += x
    return _numerator(i_result) == _poly_trim(linked)


__all__ = [
    "HVector",
    "bdg_hf_check",
    "degree",
    "generic_hvector",
    "h_vector",
    "hilbert_function",
    "ss_hvector_formula",
    "symbolic_h_vector",
    "symbolic_numerator",
]
