"""Hilbert functions against literal standard-monomial counting."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from starconfig import exponents as ex
from starconfig import hilbert, shapes
from starconfig.config import StarConfig
from starconfig.errors import ResourceCapError, UsageError
from starconfig.star import skeleton_ideal, symbolic_power, wk_ideal


def brute_hf(ideal, d):
    """Count degree-d monomials outside the ideal by full enumeration."""
    return sum(1 for mu in oracles.monomials_of_degree(ideal.arity, d) if not oracles.member(mu, ideal))


SAMPLES = [
    oracles.zero_ideal(3),
    ex.unit_ideal(3),
    ex.minimalize(2, [(3, 0), (1, 2)]),
    ex.minimalize(3, [(2, 0, 0), (0, 1, 1), (1, 1, 0)]),
    skeleton_ideal(StarConfig(4, 2)),
    symbolic_power(StarConfig(4, 2), 2),
    wk_ideal(4, 1, 2),
    ex.power(skeleton_ideal(StarConfig(3, 2)), 3),
]


def test_hilbert_function_matches_enumeration():
    for ideal in SAMPLES:
        for d in range(9):
            assert oracles.hilbert_function(ideal, d) == brute_hf(ideal, d), (ideal, d)


def test_hilbert_function_matches_enumeration_random_battery():
    import random

    rng = random.Random(511)
    for _ in range(20):
        arity = rng.randint(2, 5)
        gens = [
            tuple(rng.randint(0, 4) for _ in range(arity))
            for _ in range(rng.randint(1, 12))
        ]
        ideal = ex.minimalize(arity, gens)
        for d in range(11):
            assert oracles.hilbert_function(ideal, d) == brute_hf(ideal, d), (ideal, d)


@st.composite
def small_ideals(draw):
    """Minimal ideals of arity <= 5 from at most 10 monomials with exponents <= 4.

    Each monomial is random or a pure power (a variable at exponent 1).  Half
    the draws glue two coprime blocks: even-indexed monomials keep only the
    variables from a split point on, odd-indexed ones only those below it.
    """
    arity = draw(st.integers(1, 5))
    monomial = st.tuples(*[st.integers(0, 4)] * arity)
    pure = st.builds(lambda i, e: tuple(e * (j == i) for j in range(arity)),
                     st.integers(0, arity - 1), st.integers(1, 4))
    gens = draw(st.lists(st.one_of(monomial, pure), max_size=10))
    if draw(st.booleans()):
        split = draw(st.integers(0, arity))
        gens = [tuple(e * ((j < split) == n % 2) for j, e in enumerate(g)) for n, g in enumerate(gens)]
    return ex.minimalize(arity, gens)


@settings(max_examples=200, deadline=None)
@given(small_ideals())
def test_hilbert_function_matches_enumeration_property(ideal):
    # the pivot recursion reads I + (x_p) and I : x_p off the generators; literal counting checks both children
    for d in range(11):
        assert oracles.hilbert_function(ideal, d) == brute_hf(ideal, d), (ideal, d)


def test_hilbert_function_examples():
    assert oracles.hilbert_function(oracles.zero_ideal(3), 2) == 6
    assert oracles.hilbert_function(ex.unit_ideal(3), 5) == 0
    assert oracles.hilbert_function(skeleton_ideal(StarConfig(4, 2)), 3) == comb(6, 3) - 4 == 16
    with pytest.raises(UsageError):
        oracles.hilbert_function(oracles.zero_ideal(3), -1)


def test_h_vector_skeletons():
    assert hilbert.h_vector(skeleton_ideal(StarConfig(7, 3)), 3).entries == (1, 3, 6, 10, 15)
    assert hilbert.h_vector(skeleton_ideal(StarConfig(7, 2)), 2).entries == (1, 2, 3, 4, 5, 6)


def test_h_vector_brute_differencing():
    # the library h-vector equals literal repeated differencing of brute counts
    for ideal, c in [
        (skeleton_ideal(StarConfig(4, 2)), 2),
        (symbolic_power(StarConfig(4, 3), 2), 3),
        (wk_ideal(4, 1, 1), 2),
    ]:
        hv = hilbert.h_vector(ideal, c)
        top = len(hv.entries) + 3
        values = [brute_hf(ideal, d) for d in range(top)]
        for _ in range(ideal.arity - c):
            values = [values[0]] + [values[i] - values[i - 1] for i in range(1, top)]
        trimmed = list(values)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert hv.entries == tuple(trimmed)


def test_h_vector_wrong_codimension_fails_to_stabilize():
    # overstating the codimension differences too few times; the entries never vanish.  A wrong
    # codimension is a misuse of h_vector, not a cap, so it is a usage error
    with pytest.raises(UsageError, match="fail to stabilize"):
        hilbert.h_vector(skeleton_ideal(StarConfig(4, 2)), 3)
    with pytest.raises(UsageError, match="fail to stabilize"):
        hilbert.h_vector(oracles.zero_ideal(3), 2)
    # understating it still stabilizes (with a signed tail); garbage in, garbage out
    assert hilbert.h_vector(skeleton_ideal(StarConfig(4, 2)), 1).entries == (1, 1, 1, -3)


def test_h_vector_of_a_complete_intersection_has_no_default_cap():
    # (x0^5, ..., x9^5): K(t) = (1-t^5)^10, an h-vector of degree 40 summing to 5^10
    ideal = ex.minimalize(10, [tuple(5 * (j == i) for j in range(10)) for i in range(10)])
    assert hilbert.h_vector(ideal, 10).total() == 5**10


def test_generic_hvector():
    assert shapes.generic_hvector(4, 2).entries == (1, 2, 3)
    assert shapes.generic_hvector(7, 3).entries == (1, 3, 6, 10, 15)
    for s in range(2, 11):
        for c in range(1, s):
            hv = shapes.generic_hvector(s, c)
            assert len(hv.entries) == s - c + 1
            assert hv.total() == comb(s, c)


def test_ss_hvector_formula():
    assert shapes.ss_hvector_formula(7, 3).entries == (1, 3, 6, 10, 15, 21, 21, 21, 21, 21)
    for s in range(2, 9):
        for c in range(1, s):
            assert shapes.ss_hvector_formula(s, c).total() == (c + 1) * comb(s, c)
    # degenerate s = c + 1 case, frozen from the formula and brute differencing
    for c in (1, 2, 3):
        expected = (1, c, comb(c + 1, 2), comb(c + 1, 2))
        expected = tuple(e for e in expected if e)  # c = 1 keeps the plateau of ones
        assert shapes.ss_hvector_formula(c + 1, c).entries == expected
        brute = hilbert.h_vector(symbolic_power(StarConfig(c + 1, c), 2), c)
        assert brute.entries == expected


def test_ss_hvector_matches_brute_for_small_grid():
    for s in range(3, 6):
        for c in range(1, s):
            hv = hilbert.h_vector(symbolic_power(StarConfig(s, c), 2), c)
            assert hv.entries == shapes.ss_hvector_formula(s, c).entries


def test_ss_hvector_shares_generic_prefix():
    # entries through degree s-c agree with the generic h-vector
    for s in range(3, 8):
        for c in range(2, s):
            ss = shapes.ss_hvector_formula(s, c).entries
            generic = shapes.generic_hvector(s, c).entries
            assert ss[: s - c + 1] == generic


def test_ss_hvector_agrees_with_lower_skeleton_through_bound():
    # the symbolic square and the codimension-(c-1) skeleton have the same
    # Hilbert function through degree 2s-2c+1; at the h-vector level the
    # symbolic-square entries are running sums of the lower skeleton's
    # generic h-vector on that range
    for s in range(3, 8):
        for c in range(2, s):
            ss = shapes.ss_hvector_formula(s, c).entries
            lower = shapes.generic_hvector(s, c - 1).entries
            total = 0
            for t in range(2 * s - 2 * c + 2):
                total += lower[t] if t < len(lower) else 0
                assert ss[t] == total, (s, c, t)


def test_degree():
    assert hilbert.h_vector(skeleton_ideal(StarConfig(4, 2)), 2).total() == 6
    for s in range(2, 8):
        for c in range(1, s):
            assert hilbert.h_vector(skeleton_ideal(StarConfig(s, c)), c).total() == comb(s, c)
    assert hilbert.h_vector(symbolic_power(StarConfig(4, 2), 2), 2).total() == 18


def test_wk_degree_matches_h_vector_degree():
    for s, ell in [(4, 1), (4, 2), (5, 1)]:
        for k in range(s + 1):
            from starconfig.star import wk_degree

            assert hilbert.h_vector(wk_ideal(s, ell, k), 2).total() == wk_degree(s, ell, k)


def extend(ideal, arity):
    return ex.minimalize(arity, [g + (0,) * (arity - len(g)) for g in ideal.gens])


def test_bdg_hf_check_skeleton_recursion():
    # append a hyperplane: the new skeleton is a basic double link of the old
    for s in range(4, 7):
        for c in range(2, s - 1):
            i_c = extend(skeleton_ideal(StarConfig(s - 1, c)), s)
            i_s = extend(skeleton_ideal(StarConfig(s - 1, c - 1)), s)
            xs = oracles.variable_ideal(s, [s - 1])
            result = oracles.ideal_sum(ex.multiply(xs, i_c), i_s)
            assert ex.equals(result, skeleton_ideal(StarConfig(s, c)))
            assert hilbert.bdg_hf_check(i_s, i_c, 1, result)


def test_bdg_hf_check_wk_step():
    from starconfig.star import wk_link_monomial

    s, ell, k = 4, 1, 0
    link = ex.MonomialIdeal(s, (wk_link_monomial(s, ell, k),))
    assert hilbert.bdg_hf_check(link, wk_ideal(s, ell, k), 1, wk_ideal(s, ell, k + 1))


def test_wk_numerator_closed_form():
    # W_k = x_0...x_{k-1} I^(ell) + (F_0, ..., F_{k-1}), each F_i of degree d, gives
    # K(W_k) = 1 - t^k (1 - K_ell) - k (1 - t) t^d; wk's check keeps the pivot recursion, so the form lives here
    cases = 0
    for s in range(3, 7):
        for ell in range(1, 5):
            one_minus_k_ell = shapes._poly_add((1,), shapes.symbolic_numerator(StarConfig(s, 2), ell), 0, -1)
            for k in range(s + 1):
                d = (k - 1) * (ell + 2) + (s - k) * (ell + 1)
                expected = shapes._poly_add((1,), one_minus_k_ell, k, -1)
                expected = shapes._poly_add(expected, (k, -k), d, -1)
                assert hilbert._numerator(wk_ideal(s, ell, k)) == expected, (s, ell, k)
                cases += 1
    assert cases == 88


def test_bdg_hf_check_trivial():
    # I_C = I_S with F of degree 0 leaves the Hilbert function unchanged
    m = skeleton_ideal(StarConfig(4, 2))
    assert hilbert.bdg_hf_check(m, m, 0, m)


def test_bdg_hf_check_rejects_wrong_result():
    i_c = extend(skeleton_ideal(StarConfig(3, 2)), 4)
    i_s = extend(skeleton_ideal(StarConfig(3, 1)), 4)
    assert not hilbert.bdg_hf_check(i_s, i_c, 1, i_c)  # the true result is skeleton(4,2)


def bdg_by_degrees(i_s, i_c, d, i_result):
    """The basic-double-link identity degree by degree, up to past every numerator's degree."""

    def lcm_degree(ideal):
        return sum(max(col) for col in zip(*ideal.gens)) if ideal.gens else 0

    def hf(ideal, t):
        return oracles.hilbert_function(ideal, t) if t >= 0 else 0

    top = max(lcm_degree(i_s), lcm_degree(i_c), lcm_degree(i_result)) + d + 1
    return all(
        hf(i_result, t) == hf(i_s, t) - hf(i_s, t - d) + hf(i_c, t - d) for t in range(top + 1)
    )


def test_bdg_hf_check_matches_degree_by_degree_identity():
    from starconfig.star import wk_link_monomial

    cases = []
    for s, ell in [(4, 1), (4, 2), (5, 1)]:
        for k in range(s):
            link = ex.MonomialIdeal(s, (wk_link_monomial(s, ell, k),))
            before, after = wk_ideal(s, ell, k), wk_ideal(s, ell, k + 1)
            cases += [(link, before, 1, after), (link, before, 2, after), (link, after, 1, before)]
    for s in range(4, 6):
        for c in range(2, s - 1):
            i_c = extend(skeleton_ideal(StarConfig(s - 1, c)), s)
            i_s = extend(skeleton_ideal(StarConfig(s - 1, c - 1)), s)
            cases += [(i_s, i_c, 1, skeleton_ideal(StarConfig(s, c))), (i_s, i_c, 1, i_c)]
    verdicts = [hilbert.bdg_hf_check(*case) for case in cases]
    assert verdicts == [bdg_by_degrees(*case) for case in cases]
    assert True in verdicts and False in verdicts


def test_numerator():
    assert hilbert._numerator(ex.unit_ideal(3)) == ()
    assert hilbert._numerator(oracles.zero_ideal(3)) == (1,)
    k = hilbert._numerator(skeleton_ideal(StarConfig(4, 2)))
    assert k == (1, 0, 0, -4, 3)
    # K(t) = (1-t)^2 (1 + 2t + 3t^2), and the h-vector sums to the degree
    assert sum(hilbert.h_vector(skeleton_ideal(StarConfig(4, 2)), 2).entries) == 6


def test_symbolic_numerator_matches_pivot_recursion_on_a_grid():
    # v = 0 alone at ell = 1, c = s-1, and ell > c all occur
    for s in range(2, 9):
        for c in range(1, s):
            cfg = StarConfig(s, c)
            for ell in range(1, 7):
                assert shapes.symbolic_numerator(cfg, ell) == hilbert._numerator(symbolic_power(cfg, ell)), (s, c, ell)


def test_symbolic_h_vector_matches_h_vector():
    for s, c, ell in [(4, 2, 1), (7, 3, 2), (5, 2, 3), (6, 3, 5), (6, 5, 4)]:
        cfg = StarConfig(s, c)
        ideal = symbolic_power(cfg, ell)
        assert shapes.symbolic_h_vector(cfg, ell) == hilbert.h_vector(ideal, c)
    with pytest.raises(ResourceCapError):
        shapes.symbolic_h_vector(StarConfig(5, 2), 3, d_cap=4)


def test_symbolic_numerator_refusals():
    with pytest.raises(UsageError):
        shapes.symbolic_numerator(StarConfig(4, 2), 0)
    with pytest.raises(ResourceCapError):
        shapes.symbolic_numerator(StarConfig(400, 200), 400)
    with pytest.raises(ResourceCapError):  # few coefficients, each about 3000 bits
        shapes.symbolic_numerator(StarConfig(3000, 1500), 1)


def test_symbolic_numerator_long_coefficients():
    # under the cap with coefficients of hundreds of bits: checked through the
    # h-vector sum, the degree C(s,c) * C(ell+c-1,c) of R/I^(ell)
    for s, c, ell in [(300, 150, 1), (200, 100, 2), (120, 60, 3)]:
        hv = shapes.symbolic_h_vector(StarConfig(s, c), ell)
        assert sum(hv.entries) == comb(s, c) * comb(ell + c - 1, c)
