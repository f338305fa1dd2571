"""Monomial-ideal arithmetic against small brute-force oracles."""

import itertools
import random

import pytest

from starconfig import exponents as ex
from starconfig.errors import UsageError
from starconfig.star import StarConfig, skeleton_ideal, symbolic_power


def ideal(arity, *gens):
    return ex.minimalize(arity, gens)


def test_divides():
    assert ex.divides((1, 0), (1, 1))
    assert not ex.divides((2, 0), (1, 1))
    assert ex.divides((2, 1), (2, 1))  # reflexive
    with pytest.raises(UsageError):
        ex.divides((1, 0), (1, 0, 0))


def test_minimalize():
    assert ideal(2, (2, 0), (1, 0)).gens == ((1, 0),)
    assert ex.minimalize(2, []).is_zero
    kept = ideal(2, (1, 1), (2, 0), (0, 2))
    assert len(kept.gens) == 3  # pairwise incomparable
    # idempotent, and output is an antichain
    again = ex.minimalize(2, kept.gens)
    assert again == kept
    for a, b in itertools.permutations(kept.gens, 2):
        assert not ex.divides(a, b)


def test_minimalize_random_antichain():
    rng = random.Random(2012)
    for _ in range(50):
        arity = rng.randint(1, 4)
        tuples = [
            tuple(rng.randint(0, 4) for _ in range(arity)) for _ in range(rng.randint(0, 12))
        ]
        result = ex.minimalize(arity, tuples)
        assert ex.minimalize(arity, result.gens) == result
        for a, b in itertools.permutations(result.gens, 2):
            assert not ex.divides(a, b)
        # same upward-closed set on a small box
        for mu in itertools.product(range(5), repeat=arity):
            direct = any(ex.divides(t, mu) for t in tuples)
            assert ex.member(mu, result) == direct


def test_member():
    assert ex.member((1, 1, 1), ideal(3, (1, 1, 0)))
    assert not ex.member((0, 0, 0), ideal(3, (1, 1, 0)))
    # (2,1,0,0) misses every squarefree cubic in 4 variables
    assert not ex.member((2, 1, 0, 0), skeleton_ideal(StarConfig(4, 2)))
    with pytest.raises(UsageError):
        ex.member((1, 1), ideal(3, (1, 1, 0)))


def test_multiply_and_power():
    m = ideal(2, (1, 0), (0, 1))
    sq = ex.power(m, 2)
    assert sq.gens == ((2, 0), (1, 1), (0, 2))
    assert ex.power(m, 1) == m
    assert ex.power(m, 0) == ex.unit_ideal(2)
    with pytest.raises(UsageError):
        ex.power(m, -1)
    # the square of the codimension-2 skeleton on 4 variables: 10 sextics
    sk = skeleton_ideal(StarConfig(4, 2))
    sk2 = ex.power(sk, 2)
    assert len(sk2.gens) == 10
    assert all(sum(g) == 6 for g in sk2.gens)
    # oracle: all pairwise products survive minimalization at equal degree
    products = {tuple(a + b for a, b in zip(g, h)) for g in sk.gens for h in sk.gens}
    assert set(sk2.gens) == products


def test_power_additivity_exhaustive():
    samples = [
        ideal(2, (1, 0), (0, 1)),
        ideal(3, (1, 1, 0), (0, 1, 1)),
        ideal(3, (2, 0, 0), (0, 1, 1), (1, 0, 2)),
        skeleton_ideal(StarConfig(4, 2)),
    ]
    for m in samples:
        for a in range(1, 4):
            for b in range(1, 4):
                if a + b > 5:
                    continue
                lhs = ex.power(m, a + b)
                rhs = ex.multiply(ex.power(m, a), ex.power(m, b))
                assert ex.equals(lhs, rhs)
        for ell in range(1, 6):
            assert ex.alpha(ex.power(m, ell)) == ell * ex.alpha(m)


def test_intersect():
    assert ex.intersect(ideal(2, (1, 0)), ideal(2, (0, 1))).gens == ((1, 1),)
    m = ideal(3, (1, 1, 0), (0, 1, 1))
    assert ex.intersect(m, ex.unit_ideal(3)) == m
    assert ex.intersect(m, ex.zero_ideal(3)).is_zero


def test_intersect_membership_oracle():
    # (x0,x1)^2 and (x0,x2)^2 in 3 variables: membership in the intersection
    # is conjunction of memberships, exhaustively through degree 4
    a = ex.power(ex.variable_ideal(3, [0, 1]), 2)
    b = ex.power(ex.variable_ideal(3, [0, 2]), 2)
    both = ex.intersect(a, b)
    for d in range(5):
        for mu in ex.monomials_of_degree(3, d):
            assert ex.member(mu, both) == (ex.member(mu, a) and ex.member(mu, b))


def test_multiply_membership_implication():
    pairs = [
        (ideal(3, (1, 1, 0), (0, 0, 2)), ideal(3, (1, 0, 1))),
        (skeleton_ideal(StarConfig(4, 2)), skeleton_ideal(StarConfig(4, 3))),
    ]
    for a, b in pairs:
        prod = ex.multiply(a, b)
        for d in range(7):
            for mu in ex.monomials_of_degree(a.arity, d):
                if ex.member(mu, prod):
                    assert ex.member(mu, a) and ex.member(mu, b)


def test_colon_and_saturate():
    assert ex.colon(ideal(2, (2, 1)), (1, 0)).gens == ((1, 1),)
    m = ex.variable_ideal(2, [0, 1])
    assert ex.saturate(ideal(2, (2, 0), (1, 1)), m).gens == ((1, 0),)
    with pytest.raises(UsageError):
        ex.saturate(ideal(2, (1, 1)), ex.zero_ideal(2))
    # saturating the skeleton square removes exactly the irrelevant component
    sk2 = ex.power(skeleton_ideal(StarConfig(4, 2)), 2)
    sat = ex.saturate(sk2, ex.variable_ideal(4, range(4)))
    expected = ex.intersect(
        symbolic_power(StarConfig(4, 2), 2), symbolic_power(StarConfig(4, 3), 4)
    )
    assert ex.equals(sat, expected)


def test_colon_ideal_of_zero_divisor_ideal():
    m = ideal(2, (3, 0))
    assert ex.colon_ideal(m, ex.zero_ideal(2)) == ex.unit_ideal(2)
    assert ex.colon_ideal(m, ideal(2, (1, 0))).gens == ((2, 0),)


def test_contains_alpha_omega():
    sk = skeleton_ideal(StarConfig(4, 2))
    assert ex.contains(sk, ex.power(sk, 2))
    assert ex.alpha(sk) == 3
    assert ex.omega(symbolic_power(StarConfig(4, 2), 2)) == 6
    with pytest.raises(UsageError):
        ex.alpha(ex.zero_ideal(3))
    with pytest.raises(UsageError):
        ex.omega(ex.zero_ideal(3))
    assert ex.alpha(ex.unit_ideal(3)) == 0


def test_equals_is_equivalence():
    a = ideal(2, (1, 2), (2, 1))
    b = ex.minimalize(2, [(2, 1), (1, 2), (2, 2)])
    assert ex.equals(a, a)
    assert ex.equals(a, b) and ex.equals(b, a)
    c = ideal(2, (1, 2))
    assert not ex.equals(a, c)
    with pytest.raises(UsageError):
        ex.equals(a, ideal(3, (1, 1, 1)))


def test_canonical_order_is_construction_independent():
    gens = [(0, 2, 2), (2, 0, 2), (1, 1, 1), (2, 2, 0)]
    rng = random.Random(7)
    reference = ex.minimalize(3, gens)
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert ex.minimalize(3, shuffled).gens == reference.gens


def test_truncate_to_degree_matches_intersection():
    from starconfig.decomp import irrelevant_power

    samples = [
        skeleton_ideal(StarConfig(4, 2)),
        symbolic_power(StarConfig(4, 2), 2),
        ideal(3, (2, 0, 0), (0, 1, 1)),
    ]
    for m in samples:
        for t in range(0, 8):
            direct = ex.truncate_to_degree(m, t)
            via_intersect = ex.intersect(m, irrelevant_power(m.arity, t))
            assert ex.equals(direct, via_intersect)


def test_arity_checks():
    with pytest.raises(UsageError):
        ex.minimalize(2, [(1, 0), (1, 0, 0)])
    with pytest.raises(UsageError):
        ex.multiply(ideal(2, (1, 0)), ideal(3, (1, 0, 0)))
    with pytest.raises(UsageError):
        ex.minimalize(2, [(1, -1)])
