"""Skeleton ideals of coordinate-hyperplane arrangements and their symbolic powers.

The configuration of s coordinate hyperplanes in P^{s-1} has, for each
codimension c, a skeleton: the union of all codimension-c coordinate
subspaces.  Its ideal is generated by the squarefree monomials of degree
s-c+1, and the ell-th symbolic power is generated by the monomials whose c
smallest exponents sum to at least ell.

Everything here is 0-based: variables and complex vertices are indexed
0..s-1.  Operations are pure and outputs canonical.  StarConfig, the
alpha/omega closed forms and the usage checks live in config.
"""

import itertools
from collections import Counter
from functools import lru_cache
from math import comb

from . import exponents as ex
from .config import DEFAULT_ENUM_CAP, StarConfig, check_codim2, check_ell, comb_past
from .errors import UsageError, check_cap
from .record import Record

# is_matroid and Stanley-Reisner extraction list every face as a vertex bitmask.
MATROID_VERTEX_CAP = 16


class SimplicialComplex(Record):
    """A simplicial complex given by its facets (an antichain of vertex subsets)."""

    vertex_count: int
    facets: tuple[tuple[int, ...], ...]

    def _validate(self):
        for f in self.facets:
            if any(not 0 <= v < self.vertex_count for v in f):
                raise UsageError(f"facet {f} has a vertex outside 0..{self.vertex_count - 1}")
            if tuple(sorted(set(f))) != f:
                raise UsageError(f"facet {f} is not a sorted duplicate-free tuple")


def skeleton_ideal(cfg: StarConfig) -> ex.MonomialIdeal:
    """The ideal of the codimension-c skeleton, I^(1): all squarefree monomials of degree s-c+1."""
    return symbolic_power(cfg, 1)


def symbolic_member(mu: ex.Exponent, cfg: StarConfig, ell: int) -> bool:
    """True iff mu lies in the ell-th symbolic power of the skeleton ideal.

    Membership is a threshold: the sum of the c smallest exponents must be at
    least ell (equivalently, mu vanishes to order >= ell on every component).
    """
    check_ell(ell)
    ex._check_exponent(mu, cfg.s)
    return sum(sorted(mu)[: cfg.c]) >= ell


def symbolic_shapes(cfg: StarConfig, ell: int, enum_cap: int = DEFAULT_ENUM_CAP) -> tuple[tuple[int, ...], ...]:
    """The minimal generators of the ell-th symbolic power up to permuting variables.

    A nondecreasing t is a member iff its first c entries sum to >= ell, and
    minimal iff lowering the first copy of any nonzero value leaves it out.
    So its first c entries sum to exactly ell and the other s-c all equal the
    c-th: the shapes are the partitions of ell into at most c parts, padded.
    """
    check_ell(ell)
    s, c = cfg.s, cfg.c
    entries = s * comb_past(ell + c - 1, c - 1, enum_cap)  # C(..) bounds the c-tuples summing to ell
    check_cap(entries, enum_cap, "symbolic power shape candidates hold {} entries")
    return tuple((0,) * (c - len(p)) + p + (p[-1],) * (s - c) for p in _partitions(ell, c, 1))


def _partitions(total: int, parts: int, least: int):
    """Nondecreasing tuples of at most `parts` entries, each >= least, summing to total >= least."""
    yield (total,)
    if parts > 1:
        for first in range(least, total // 2 + 1):
            for rest in _partitions(total - first, parts - 1, first):
                yield (first,) + rest


def symbolic_power(cfg: StarConfig, ell: int, enum_cap: int = DEFAULT_ENUM_CAP) -> ex.MonomialIdeal:
    """Minimal generating antichain of the ell-th symbolic power: the arrangements of its shapes.

    Refuses when the generators would hold more than enum_cap exponent entries
    (s per generator), since every caller keeps or prints all of them.
    """
    shapes = symbolic_shapes(cfg, ell, enum_cap)
    entries = cfg.s * sum(_arrangement_count(t) for t in shapes)
    check_cap(entries, enum_cap, "symbolic power generators need {} entries")
    return ex.MonomialIdeal(cfg.s, [g for t in shapes for g in _distinct_permutations(t)])


def _arrangement_count(t: tuple[int, ...]) -> int:
    """The number of distinct arrangements of t: the multinomial of its multiplicities."""
    count, placed = 1, 0
    for k in Counter(t).values():
        placed += k
        count *= comb(placed, k)
    return count


def _distinct_permutations(t: tuple[int, ...]):
    """The distinct arrangements of a nondecreasing tuple, in lexicographic order.

    A next-permutation walk: each arrangement costs O(len(t)), and repeated
    values are never expanded, so a shape with many equal entries yields its
    multinomial count of tuples rather than len(t)! of them.
    """
    a = list(t)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def check_lemma_contain(cfg: StarConfig) -> bool:
    """Whether the codimension-(c-1) skeleton ideal sits inside the symbolic square.

    Both ideals are symmetric and the former has one generator shape, so one membership decides.
    """
    if cfg.c < 2:
        raise UsageError("the containment check needs c >= 2")
    return symbolic_member((0,) * (cfg.c - 2) + (1,) * (cfg.s - cfg.c + 2), cfg, 2)


def _check_vertex_count(v: int) -> None:
    """Refuse a complex on more than MATROID_VERTEX_CAP vertices, whose face-set checks list 2^v masks."""
    check_cap(v, MATROID_VERTEX_CAP, "face-set checks take a complex on {} vertices")


def skeleton_complex(cfg: StarConfig) -> SimplicialComplex:
    """The complete complex whose facets are all (s-c)-subsets of the s vertices.

    Only the face-set checks take a complex, so an s past their vertex cap is
    refused before any facet is listed.
    """
    _check_vertex_count(cfg.s)
    facets = tuple(itertools.combinations(range(cfg.s), cfg.s - cfg.c))
    return SimplicialComplex(cfg.s, facets)


@lru_cache(maxsize=8)
def _face_masks(complex_: SimplicialComplex) -> frozenset[int]:
    """Every face of the complex as a vertex bitmask: the submasks of its facets.

    Cached per complex, so is_matroid and stanley_reisner_ideal share one build.
    """
    _check_vertex_count(complex_.vertex_count)
    faces: set[int] = set()
    for f in complex_.facets:
        top = sub = sum(1 << x for x in f)
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & top
    return frozenset(faces)


def is_matroid(complex_: SimplicialComplex) -> bool:
    """True iff every vertex-subset restriction of the complex is pure.

    For a face σ let E(σ) be the vertices w outside σ with σ ∪ {w} a face.
    σ is maximal in the restriction to W iff σ ⊆ W and W misses E(σ), and
    the rank r(W), the largest face size in W, grows with W.  So the largest
    W in which σ is maximal is V ∖ E(σ), and every restriction is pure iff
    r(V ∖ E(σ)) = |σ| for every face σ.  r is tabulated over all bitmasks W:
    |W| for a face, else the largest r(W ∖ {x}).  Guarded by MATROID_VERTEX_CAP.
    """
    faces = _face_masks(complex_)
    v = complex_.vertex_count
    rank = [0] * (1 << v)
    for w_set in range(1, 1 << v):
        if w_set in faces:
            rank[w_set] = w_set.bit_count()
        else:
            rank[w_set] = max(rank[w_set ^ 1 << x] for x in range(v) if w_set >> x & 1)
    everything = (1 << v) - 1
    for sigma in faces:
        extensions = sum(1 << w for w in range(v) if not sigma >> w & 1 and sigma | 1 << w in faces)
        if rank[everything & ~extensions] != sigma.bit_count():
            return False
    return True


def stanley_reisner_ideal(complex_: SimplicialComplex) -> ex.MonomialIdeal:
    """The Stanley-Reisner ideal: squarefree monomials of the minimal non-faces.

    A minimal non-face is σ ∪ {w} for a face σ and a vertex w, and such a
    non-face is minimal when each of its one-smaller subsets is a face.
    """
    faces = _face_masks(complex_)
    v = complex_.vertex_count
    minimal = set()
    for sigma in faces:
        for w in range(v):
            tau = sigma | 1 << w
            if tau not in faces and all(tau ^ 1 << x in faces for x in range(v) if sigma >> x & 1):
                minimal.add(tau)
    return ex.minimalize(v, [tuple(tau >> i & 1 for i in range(v)) for tau in minimal])


def check_wk(s: int, ell: int) -> None:
    """Refuse s < 3 or ell < 1 as usage errors, and an s whose W_k chain checks pass the enum cap.

    The cap bounds the wk command's Hilbert numerator recursion on each built W_k (bdg_hf_check,
    h_vector), which has no cap of its own; wk_ideal needs none, as symbolic_power's cap bounds it.
    """
    check_codim2(s)
    check_ell(ell)
    # past 64 factors the power is at least 4^64 > 2^64, so it reads `more than` and no huge power is computed
    check_cap((ell + 3) ** min(s, 64), DEFAULT_ENUM_CAP, "W_k chain checks scale with (ell+3)^s = {}")


def wk_ideal(s: int, ell: int, k: int) -> ex.MonomialIdeal:
    """W_k: the intersection of the pair-prime powers (x_i, x_j)^(ell + [i<k] + [j<k]).

    W_0 is I^(ell), the ell-th symbolic power of the codimension-2 skeleton, and W_s is I^(ell+2).
    Write a = b + e, e the indicator of the first k variables: x^a lies in W_k
    iff b_i + b_j >= ell on every pair, with b >= -e.  Two entries -1 would
    sum to -2 < ell, so at most one b_i is -1.  If none is, x^b lies in
    I^(ell).  If b_i is, then i < k and x^a is a multiple of F_i: exponent 0
    at i, ell+2 at the other variables below k and ell+1 from k on.  Each F_i
    meets every pair's bound, so W_k = x_0...x_{k-1} I^(ell) + (F_0, ..., F_{k-1}).
    These generators are minimal: a shift keeps I^(ell)'s antichain, F_j is ell+2 where F_i is 0, and a shifted g
    (I^(ell)'s minimal entries are at most ell) has g_i >= 1 > F_i(i) but g_v <= ell + [v<k] < F_i(v) at v != i.
    """
    check_codim2(s)
    check_ell(ell)
    if not 0 <= k <= s:
        raise UsageError(f"need 0 <= k <= s, got k={k}")
    shifted = [tuple(x + (v < k) for v, x in enumerate(g)) for g in symbolic_power(StarConfig(s, 2), ell).gens]
    corners = [tuple(0 if v == i else ell + 1 + (v < k) for v in range(s)) for i in range(k)]
    return ex.MonomialIdeal(s, shifted + corners)


def wk_degree(s: int, ell: int, k: int) -> int:
    """Degree of W_k as a codimension-2 scheme: binom(a+1, 2) over its pair exponents a (ell+2, ell+1 or ell)."""
    return comb(k, 2) * comb(ell + 3, 2) + k * (s - k) * comb(ell + 2, 2) + comb(s - k, 2) * comb(ell + 1, 2)


def wk_link_monomial(s: int, ell: int, k: int) -> ex.Exponent:
    """The hypersurface generator added at step k: exponent ell+2 on variables < k, 0 at k, ell+1 beyond."""
    return tuple((ell + 2 if v < k else 0 if v == k else ell + 1) for v in range(s))


def wk_step_check(s: int, ell: int, k: int, current=None, nxt=None) -> bool:
    """Verify one basic-double-link step of the W chain.

    Checks the ideal equality W_{k+1} = x_k * W_k + (F_k), F_k the hypersurface monomial, building the
    right side from its listed generators.  They are minimal: x_k times a shifted I^(ell) generator of W_k
    is W_{k+1}'s, x_k * F_i for i < k is W_{k+1}'s F_i (its exponent at k goes from ell+1 to ell+2), the
    link monomial is W_{k+1}'s F_k, and W_{k+1}'s are minimal by wk_ideal's proof.  Pass W_k and W_{k+1}
    as current and nxt when they are already built; otherwise they are.  The degree step of wk_degree holds by
    algebra alone, so it is not checked here: the wk command checks it against each built W_k's h-vector.
    """
    if not 0 <= k < s:
        raise UsageError(f"need 0 <= k < s, got k={k}")
    current = wk_ideal(s, ell, k) if current is None else current
    nxt = wk_ideal(s, ell, k + 1) if nxt is None else nxt
    shifted = [tuple(x + (v == k) for v, x in enumerate(g)) for g in current.gens]
    return nxt == ex.MonomialIdeal(s, shifted + [wk_link_monomial(s, ell, k)])


__all__ = [
    "MATROID_VERTEX_CAP",
    "SimplicialComplex",
    "check_lemma_contain",
    "check_wk",
    "is_matroid",
    "skeleton_complex",
    "skeleton_ideal",
    "stanley_reisner_ideal",
    "symbolic_member",
    "symbolic_power",
    "symbolic_shapes",
    "wk_degree",
    "wk_ideal",
    "wk_link_monomial",
    "wk_step_check",
]
