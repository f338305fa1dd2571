"""Power decompositions, saturation, containment, and resurgence."""

from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starconfig import decomp, exponents as ex
from starconfig.errors import ResourceCapError, UsageError
from starconfig.star import StarConfig, skeleton_ideal, symbolic_power


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
    m2 = decomp.irrelevant_power(3, 2)
    assert len(m2.gens) == comb(4, 2) == 6
    assert all(sum(g) == 2 for g in m2.gens)
    assert decomp.irrelevant_power(3, 0) == ex.unit_ideal(3)


def test_rhs_decomposition_ell_1_is_skeleton():
    for s in range(3, 6):
        for c in range(1, s):
            assert ex.equals(decomp.rhs_decomposition(s, c, 1), skeleton_ideal(StarConfig(s, c)))


def test_verify_power_decomposition():
    assert decomp.verify_power_decomposition(4, 2, 2)
    assert decomp.verify_power_decomposition(5, 3, 2)
    assert decomp.verify_power_decomposition(4, 2, 3)
    with pytest.raises(ResourceCapError):
        decomp.verify_power_decomposition(6, 2, 2)
    assert decomp.verify_power_decomposition(4, 2, 4, l_cap=4)


@lru_cache(maxsize=None)
def skeleton_power(s, c, r):
    """I^r as the degree-r(s-c+1) monomials with every exponent <= r (Herzog & Hibi; see symbolic_in_power)."""
    StarConfig(s, c)  # validate ranges
    return ex.minimalize(s, ex.compositions(r * (s - c + 1), s, r))


@lru_cache(maxsize=None)
def saturated_power(s, c, ell):
    return ex.saturate(skeleton_power(s, c, ell), decomp.irrelevant_ideal(s))


def generic_verdicts(s, c, ell):
    """Both identities decided on built ideals: lcm intersections, degree truncation and saturate."""
    return (
        ex.equals(skeleton_power(s, c, ell), decomp.rhs_decomposition(s, c, ell)),
        ex.equals(saturated_power(s, c, ell), decomp._symbolic_intersection(s, c, ell)),
    )


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_verdicts_match_generic_path(s):
    for c in range(1, s):
        for ell in (1, 2, 3):
            verdicts = (decomp.verify_power_decomposition(s, c, ell), decomp.verify_saturation(s, c, ell))
            assert verdicts == generic_verdicts(s, c, ell) == (True, True), (s, c, ell)


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
        decomp._symbolic_intersection(s, c, ell),
        decomp.irrelevant_power(s, d * ell),
        saturated_power(s, c, ell),
    )
    assert decomp._box_memberships(a, c, ell) == tuple(ex.member(a, ideal) for ideal in built)


def test_decomp_refuses_a_scan_past_the_enum_cap():
    # the s and ell caps raised, but C(d*ell + s, s) tuples would be scanned
    with pytest.raises(ResourceCapError):
        decomp.verify_saturation(12, 2, 4, s_cap=12, l_cap=4)
    with pytest.raises(UsageError):
        decomp.verify_power_decomposition(4, 2, 0)


def test_verify_saturation():
    assert decomp.verify_saturation(4, 2, 2)
    assert decomp.verify_saturation(4, 3, 2)  # c = N: saturation is the symbolic power
    # radical case: the skeleton ideal is already saturated
    for s, c in [(3, 2), (4, 2), (4, 3)]:
        sk = skeleton_ideal(StarConfig(s, c))
        assert ex.equals(ex.saturate(sk, decomp.irrelevant_ideal(s)), sk)


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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_symbolic_in_power_matches_contains_oracle(data):
    s = data.draw(st.integers(2, 6))
    c = data.draw(st.integers(1, s - 1))
    m, r = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    cfg = StarConfig(s, c)
    oracle = ex.contains(ex.power(skeleton_ideal(cfg), r), symbolic_power(cfg, m))
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
                contained = ex.contains(symbolic_power(cfg, r), symbolic_power(cfg, m))
                assert contained == (m >= r)


def test_criterion_examples():
    assert not decomp.criterion(3, 1, 1)  # the right side equals 1 exactly
    assert decomp.criterion(3, 12, 10)
    assert not decomp.criterion(4, 9, 5)  # 9/5 = 1.8 is not below 41/25
    assert decomp.symbolic_in_power(5, 3, 9, 5)
    with pytest.raises(UsageError):
        decomp.criterion(2, 1, 1)


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
    assert decomp.rho_exact(4, 2) == Fraction(3, 2)
    assert decomp.rho_exact(4, 3) == Fraction(3, 2)
    assert decomp.rho_exact(5, 4) == Fraction(8, 5)
    assert decomp.rho_exact(5, 3) == Fraction(9, 5)
    assert decomp.rho_exact(6, 1) == Fraction(1)
    assert decomp.rho_exact(6, 3) is None
    assert decomp.rho_lower_bound(6, 3) == Fraction(2)
    # the exact value always respects the general lower bound
    for s in range(3, 8):
        for c in range(1, s):
            rho = decomp.rho_exact(s, c)
            if rho is not None:
                assert rho >= decomp.rho_lower_bound(s, c)


def test_resurgence_scan_small():
    rep = decomp.resurgence_scan(4, 3, 6, 4)
    assert rep.rho == Fraction(3, 2)
    assert rep.empirical_sup is not None and rep.empirical_sup <= rep.rho
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
    assert rep.empirical_sup == Fraction(10, 7)
    assert rep.lower_bound == Fraction(3, 2) == rep.rho


def test_scan_validation():
    with pytest.raises(UsageError):
        decomp.resurgence_scan(4, 2, 0, 3)
