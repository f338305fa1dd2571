"""Closed-form h-vectors and Betti shapes of the skeleton ideal and its symbolic powers, in integers only.

symbolic_h_vector counts the standard monomials of R/I^(ell) by their
sorted exponents and builds no ideal; generic_hvector and ss_hvector_formula
are the paper's h-vectors at ell = 1 and 2.  ss_resolution (the mapping
cone of the symbolic square) lists a resolution shape, and shape_numerator
turns a shape into its Hilbert-series numerator.
This module imports only config, errors, record and the standard library,
so the `hvector`, `betti` and `skeleton` commands compile neither the pivot
recursion of `hilbert` nor the determinant code of `resolution`; `hilbert`
takes its polynomial helpers and shape_numerator from here.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import sub

from . import config
from .errors import UsageError, check_cap
from .record import Record


class HVector(Record):
    """An h-vector: the (s-c)-th difference of a Hilbert function, trailing zeros trimmed."""

    entries: tuple[int, ...]

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
    if d_cap is not None:
        check_cap(ell * width - 1, d_cap, "h-vector has degree {}")
    work = _symbolic_work(s, c, ell)
    check_cap(work, config.DEFAULT_ENUM_CAP, "closed-form Hilbert numerator is estimated at {} word operations")
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
    return HVector(_poly_trim(n))


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
    config.StarConfig(s, c)
    return HVector(tuple(comb(t + c - 1, c - 1) for t in range(s - c + 1)))


def ss_hvector_formula(s: int, c: int) -> HVector:
    """Closed form for the h-vector of the symbolic square of the skeleton.

    Entries grow generically through degree s-c, then plateau at binom(s, c-1)
    through degree 2s-2c+1, then vanish.
    """
    config.StarConfig(s, c)
    entries = [comb(t + c - 1, c - 1) for t in range(s - c + 1)]
    entries += [comb(s, c - 1)] * ((2 * s - 2 * c + 1) - (s - c + 1) + 1)
    return HVector(tuple(entries))


class ResolutionShape(Record):
    """Per homological index i >= 1, the (twist, rank) pairs of the free module F_i."""

    modules: tuple[tuple[tuple[int, int], ...], ...]


def check_ss(s: int, c: int) -> None:
    """Refuse a (s, c) outside ss_resolution's range 2 <= c <= s-1 as a usage error."""
    if not 2 <= c <= s - 1:
        raise UsageError(f"need 2 <= c <= s-1, got c={c}, s={s}")


def ss_resolution(s: int, c: int) -> ResolutionShape:
    """Twists and ranks of the minimal free resolution of the symbolic square.

    F_i carries rank M_i in twist -(2s-2c+1+i) and rank N_i in twist
    -(s-c+1+i), with N_c = 0.
    """
    check_ss(s, c)
    modules = []
    for i in range(1, c + 1):
        m_i = comb(s, s - c + i) * comb(s - c + i, i - 1)
        n_i = comb(s, s - c + 1 + i) * comb(s - c + i, i - 1) if i <= c - 1 else 0
        pairs = []
        if n_i:
            pairs.append((-(s - c + 1 + i), n_i))
        pairs.append((-(2 * s - 2 * c + 1 + i), m_i))
        modules.append(tuple(pairs))
    return ResolutionShape(tuple(modules))


def shape_numerator(shape: ResolutionShape) -> tuple[int, ...]:
    """Hilbert-series numerator implied by a resolution shape of an ideal I: K(R/I)."""
    out, sign = (1,), -1
    for pairs in shape.modules:
        for twist, rank in pairs:
            out = _poly_add(out, (rank,), -twist, sign)
        sign = -sign
    return out


__all__ = [
    "HVector",
    "ResolutionShape",
    "check_ss",
    "generic_hvector",
    "shape_numerator",
    "ss_hvector_formula",
    "ss_resolution",
    "symbolic_h_vector",
    "symbolic_numerator",
]
