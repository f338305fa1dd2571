"""Power decompositions, saturation, containment, and resurgence."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import ceil, comb, floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from starconfig import decomp, exponents as ex
from starconfig.config import StarConfig
from starconfig.errors import ResourceCapError, UsageError
from starconfig.star import skeleton_ideal, symbolic_power, symbolic_shapes


def exact_noncontainment(n_dim, m, r):
    """The exact containment characterization for c = N-1, from first principles.

    The r-th ordinary power is the intersection of the r-th symbolic power,
    the 2r-th symbolic power of the point skeleton, and the 3r-th power of
    the irrelevant ideal; the m-th symbolic power escapes one of the three
    exactly under these integer conditions.
    """
    return (
        m < r
        or m + ceil(m / (n_dim - 1)) <= 2 * r - 1
        or m + 2 + 2 * floor((m - 1) / (n_dim - 1)) <= 3 * r - 1
    )


def test_irrelevant_power():
    m2 = oracles.irrelevant_power(3, 2)
    assert len(m2.gens) == comb(4, 2) == 6
    assert all(sum(g) == 2 for g in m2.gens)
    assert oracles.irrelevant_power(3, 0) == ex.unit_ideal(3)


def test_rhs_decomposition_ell_1_is_skeleton():
    for s in range(3, 6):
        for c in range(1, s):
            assert ex.equals(oracles.rhs_decomposition(s, c, 1), skeleton_ideal(StarConfig(s, c)))


def test_verify_power_decomposition():
    assert decomp.verify_power_decomposition(4, 2, 2)
    assert decomp.verify_power_decomposition(5, 3, 2)
    assert decomp.verify_power_decomposition(4, 2, 3)
    with pytest.raises(ResourceCapError):
        decomp.verify_power_decomposition(6, 2, 2)
    assert decomp.verify_power_decomposition(4, 2, 4)


@lru_cache(maxsize=None)
def skeleton_power(s, c, r):
    """I^r as the degree-r(s-c+1) monomials with every exponent <= r (Herzog & Hibi; see symbolic_in_power)."""
    StarConfig(s, c)  # validate ranges
    return ex.minimalize(s, oracles.compositions(r * (s - c + 1), s, r))


@lru_cache(maxsize=None)
def saturated_power(s, c, ell):
    return oracles.saturate(skeleton_power(s, c, ell), oracles.irrelevant_ideal(s))


def generic_verdicts(s, c, ell):
    """Both identities decided on built ideals: lcm intersections, degree truncation and saturate."""
    return (
        ex.equals(skeleton_power(s, c, ell), oracles.rhs_decomposition(s, c, ell)),
        ex.equals(saturated_power(s, c, ell), oracles._symbolic_intersection(s, c, ell)),
    )


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_verdicts_match_generic_path(s):
    for c in range(1, s):
        for ell in range(1, 6 if s <= 4 else 4):
            assert decomp.decomp_verdicts(s, c, ell) == generic_verdicts(s, c, ell) == (True, True), (s, c, ell)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_box_memberships_match_built_ideals(data):
    s = data.draw(st.integers(2, 5))
    c = data.draw(st.integers(1, s - 1))
    ell = data.draw(st.integers(1, 3))
    d = s - c + 1
    a = tuple(sorted(data.draw(st.lists(st.integers(0, d * ell), min_size=s, max_size=s))))
    built = (
        skeleton_power(s, c, ell),
        oracles._symbolic_intersection(s, c, ell),
        oracles.irrelevant_power(s, d * ell),
        saturated_power(s, c, ell),
    )
    assert oracles.box_memberships(a, c, ell) == tuple(oracles.member(a, ideal) for ideal in built)


def test_verdicts_match_the_box_scan():
    # every s <= 6, c and ell <= 3, ell 4 and 5 for s <= 4, and (7, 3, 3): from decomp_verdicts' start state (no
    # entry chosen, every test open) the completion oracle lists box_memberships, and the sweep gives their verdicts
    cases = [(s, c, ell) for s in range(2, 7) for c in range(1, s) for ell in range(1, 6 if s <= 4 else 4)]
    for s, c, ell in cases + [(7, 3, 3)]:
        box = combinations_with_replacement(range((s - c + 1) * ell + 1), s)
        memberships = list(oracles.completion_memberships(s, c, ell, (0, 0, 0, True)))
        assert memberships == [oracles.box_memberships(a, c, ell) for a in box], (s, c, ell)
        assert decomp.decomp_verdicts(s, c, ell, s_cap=None) == oracles.verdicts(memberships) == (True, True), (s, c, ell)


@st.composite
def frontiers(draw):
    """(s, c, ell, frontier): one to three states, nonnegative, most of them reached by no sorted prefix."""
    s = draw(st.integers(2, 6))
    c = draw(st.integers(1, s - 1))
    ell = draw(st.integers(1, 3))
    top = (s - c + 1) * ell
    low_min = next(low for low in range(top + 2) if comb(top - low + s, s) <= 3000)  # keeps the oracle small
    state = st.tuples(st.integers(low_min, top + 1), st.integers(0, top + 2), st.integers(0, top + 2), st.booleans())
    return s, c, ell, draw(st.sets(state, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(frontiers())
def test_sweep_matches_the_completion_oracle(case):
    s, c, ell, frontier = case
    per_state = [oracles.verdicts(oracles.completion_memberships(s, c, ell, state)) for state in frontier]
    assert decomp._sweep(s, c, ell, frontier) == (all(p for p, _ in per_state), all(q for _, q in per_state))


def test_sweep_on_fixed_frontiers():
    # a false flag at the start makes every identity fail; a start past the box leaves nothing to check
    assert decomp._sweep(4, 2, 2, {(0, 0, 0, False)}) == (False, False)
    assert decomp._sweep(4, 2, 2, {(7, 0, 0, False)}) == (True, True)
    assert decomp._sweep(4, 2, 2, {(0, 0, 0, True), (0, 0, 0, False)}) == (False, False)
    # every one-state frontier of (4, 2, 1) against the oracle: both verdicts take both values
    states = list(product(range(5), range(5), range(5), (False, True)))
    verdicts = [decomp._sweep(4, 2, 1, {state}) for state in states]
    assert verdicts == [oracles.verdicts(oracles.completion_memberships(4, 2, 1, state)) for state in states]
    assert {p for p, _ in verdicts} == {q for _, q in verdicts} == {False, True}


def test_decomp_refuses_a_scan_past_the_enum_cap():
    # the s cap raised, but C(d*ell + s, s) tuples would be scanned
    with pytest.raises(ResourceCapError):
        decomp.verify_saturation(12, 2, 4, s_cap=12)
    with pytest.raises(UsageError):
        decomp.verify_power_decomposition(4, 2, 0)


def test_decomp_refuses_s_before_ell():
    with pytest.raises(ResourceCapError, match="runs on 6 variables, cap is 5$"):
        decomp.decomp_verdicts(6, 2, 4)
    assert decomp.decomp_verdicts(6, 2, 2, s_cap=None) == (True, True)  # None is no cap, as for l_cap
    # no cap on ell by default: the tuple count bounds the sweep; (5, 2, 13) scans 4,187,106 tuples, the most at s = 5
    assert decomp.decomp_verdicts(5, 2, 4) == decomp.decomp_verdicts(5, 2, 13) == (True, True)
    with pytest.raises(ResourceCapError, match="ell is 4, cap is 3$"):
        decomp.decomp_verdicts(5, 2, 4, l_cap=3)


def test_verify_saturation():
    assert decomp.verify_saturation(4, 2, 2)
    assert decomp.verify_saturation(4, 3, 2)  # c = N: saturation is the symbolic power
    # radical case: the skeleton ideal is already saturated
    for s, c in [(3, 2), (4, 2), (4, 3)]:
        sk = skeleton_ideal(StarConfig(s, c))
        assert ex.equals(oracles.saturate(sk, oracles.irrelevant_ideal(s)), sk)


def test_symbolic_in_power_basics():
    assert decomp.symbolic_in_power(4, 2, 1, 1)
    for m in range(1, 6):
        for r in range(m + 1, 8):
            assert not decomp.symbolic_in_power(4, 2, m, r)  # m < r never contains
    assert decomp.symbolic_in_power(4, 2, 3, 2)
    with pytest.raises(UsageError):
        decomp.symbolic_in_power(4, 2, 0, 1)
    with pytest.raises(ResourceCapError):
        decomp.symbolic_in_power(5, 3, 2, 6)  # default cap for s=5 is 5


def shape_in_power(s, c, m, r):
    """I^(m) in I^r by its generator shapes: each t needs sum(min(t_i, r)) >= r(s-c+1) (Herzog & Hibi)."""
    need = r * (s - c + 1)
    return all(sum(min(e, r) for e in t) >= need for t in symbolic_shapes(StarConfig(s, c), m))


def test_symbolic_in_power_matches_shape_oracle():
    checked = 0
    for s in range(2, 10):
        for c in range(1, s):
            for m in range(1, 25):
                try:
                    symbolic_shapes(StarConfig(s, c), m)
                except ResourceCapError:
                    continue  # past the oracle's enumeration cap
                for r in range(1, 13):
                    assert decomp.symbolic_in_power(s, c, m, r, r_cap=12) == shape_in_power(s, c, m, r), (s, c, m, r)
                    checked += 1
    assert checked > 10_000


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_symbolic_in_power_matches_contains_oracle(data):
    s = data.draw(st.integers(2, 6))
    c = data.draw(st.integers(1, s - 1))
    m, r = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    cfg = StarConfig(s, c)
    oracle = oracles.contains(ex.power(skeleton_ideal(cfg), r), symbolic_power(cfg, m))
    assert decomp.symbolic_in_power(s, c, m, r, r_cap=4) == oracle


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_skeleton_power_matches_repeated_multiply(data):
    s = data.draw(st.integers(2, 6))
    c = data.draw(st.integers(1, s - 1))
    r = data.draw(st.integers(1, 4))
    assert ex.equals(skeleton_power(s, c, r), ex.power(skeleton_ideal(StarConfig(s, c)), r))


def test_symbolic_in_symbolic_iff_m_ge_r():
    for s, c in [(4, 2), (5, 3)]:
        cfg = StarConfig(s, c)
        for m in range(1, 7):
            for r in range(1, 7):
                contained = oracles.contains(symbolic_power(cfg, r), symbolic_power(cfg, m))
                assert contained == (m >= r)


def test_criterion_examples():
    assert not decomp.criterion(3, 1, 1)  # the right side equals 1 exactly
    assert decomp.criterion(3, 12, 10)
    assert not decomp.criterion(4, 9, 5)  # 9/5 = 1.8 is not below 41/25
    assert decomp.symbolic_in_power(5, 3, 9, 5)
    with pytest.raises(UsageError):
        decomp.criterion(2, 1, 1)


def test_criterion_matches_its_rational_form():
    for n_dim in range(3, 9):
        for m in range(1, 30):
            for r in range(1, 15):
                rhs = (3 - Fraction(2 * n_dim - 4, (n_dim - 1) * r)) * Fraction(n_dim - 1, n_dim + 1)
                assert decomp.criterion(n_dim, m, r) == (Fraction(m, r) < rhs), (n_dim, m, r)


def test_criterion_is_sound_for_noncontainment():
    # criterion true always implies actual non-containment
    for n_dim, s, c in [(3, 4, 2), (4, 5, 3)]:
        for m in range(1, 13):
            for r in range(1, 6):
                if decomp.criterion(n_dim, m, r):
                    assert not decomp.symbolic_in_power(s, c, m, r, r_cap=8)


def test_containment_matches_exact_characterization():
    for n_dim, s, c in [(3, 4, 2), (4, 5, 3)]:
        for m in range(1, 13):
            for r in range(1, 6):
                actual = decomp.symbolic_in_power(s, c, m, r, r_cap=8)
                assert actual == (not exact_noncontainment(n_dim, m, r)), (n_dim, m, r)


def test_criterion_boundary_mismatches_are_real_noncontainments():
    # the rational criterion misses exactly the cells where 3r = alpha + 1;
    # each such cell is genuinely non-contained, witnessed by initial degrees
    for n_dim, s, c, cells in [(3, 4, 2, [(4, 3), (10, 7)]), (4, 5, 3, [(3, 2)])]:
        for m, r in cells:
            assert not decomp.criterion(n_dim, m, r)
            assert not decomp.symbolic_in_power(s, c, m, r, r_cap=8)
            cfg = StarConfig(s, c)
            alpha = ex.alpha(symbolic_power(cfg, m))
            assert alpha == 3 * r - 1  # one below the power's initial degree
            assert ex.alpha(ex.power(skeleton_ideal(cfg), r)) == 3 * r


def test_rho_exact():
    for s in range(2, 11):
        n_dim = s - 1
        assert decomp.rho_exact(s, 1) == 1  # principal ideal: symbolic powers are ordinary powers
        assert decomp.rho_exact(s, n_dim) == Fraction(2 * n_dim, n_dim + 1)
        if n_dim >= 3:
            assert decomp.rho_exact(s, n_dim - 1) == Fraction(3 * (n_dim - 1), n_dim + 1)
    for s in range(3, 11):
        for c in range(1, s):
            assert decomp.rho_exact(s, c) == Fraction(c * (s - c + 1), s)
    with pytest.raises(UsageError):
        decomp.rho_exact(4, 4)


def test_resurgence_is_approached_not_attained():
    # at m = ck, alpha(I^(m)) = sk, so r = floor(sk/d) + 1 is a non-contained cell
    for s in range(2, 9):
        for c in range(1, s):
            d, rho = s - c + 1, decomp.rho_exact(s, c)
            for k in (1, 5, 40):
                m, r = c * k, s * k // d + 1
                assert not decomp.symbolic_in_power(s, c, m, r, r_cap=r), (s, c, k)
                assert rho * s * k / (s * k + d) <= Fraction(m, r) < rho, (s, c, k)
            rep = decomp.resurgence_scan(s, c, 12, 6, r_cap=6)
            assert Fraction(*rep.rho) == rho and gcd(*rep.rho) == 1
            # the largest ratio of a cell not contained, in lowest terms, below rho by cross-multiplication
            num, den = rep.empirical_sup
            assert Fraction(num, den) == max(Fraction(m, r) for m, r, contained in rep.entries if not contained)
            assert gcd(num, den) == 1 and num * rep.rho[1] < rep.rho[0] * den


def test_resurgence_scan_small():
    rep = decomp.resurgence_scan(4, 3, 6, 4)
    assert rep.rho == (3, 2)
    num, den = rep.empirical_sup
    assert num * 2 < 3 * den
    assert rep.criterion_mismatches == ()  # c = N: the criterion does not apply
    # monotone in m at fixed r: once contained, larger m stays contained
    by_r = {}
    for m, r, contained in rep.entries:
        by_r.setdefault(r, []).append((m, contained))
    for r, cells in by_r.items():
        seen = False
        for m, contained in sorted(cells):
            if seen:
                assert contained
            seen = seen or contained


def test_resurgence_scan_criterion_mismatch_bookkeeping():
    rep = decomp.resurgence_scan(4, 2, 12, 8)
    assert rep.criterion_mismatches == ((4, 3), (10, 7))
    assert rep.empirical_sup == (10, 7)
    assert rep.rho == (3, 2)


def test_scan_validation():
    with pytest.raises(UsageError):
        decomp.resurgence_scan(4, 2, 0, 3)
