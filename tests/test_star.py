"""Skeletons, symbolic powers, the complex, and the basic-double-link chain."""

import itertools
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from starconfig import exponents as ex
from starconfig import config, star
from starconfig.errors import ResourceCapError, UsageError
from starconfig.config import StarConfig


def brute_symbolic_power(cfg, ell):
    """Literal box scan over {0..ell}^s followed by minimalization."""
    members = [
        t
        for t in itertools.product(range(ell + 1), repeat=cfg.s)
        if sum(sorted(t)[: cfg.c]) >= ell
    ]
    return ex.minimalize(cfg.s, members)


def squarefree_veronese(s, d):
    """All squarefree monomials of degree d in s variables, listed by their supports."""
    supports = itertools.combinations(range(s), d)
    return ex.minimalize(s, [tuple(int(i in sup) for i in range(s)) for sup in supports])


def brute_wk_ideal(s, ell, k):
    """Box scan of {0..ell+2}^s: the members of the pair-prime intersection that no one-step decrement keeps.

    Prefixes grow one variable at a time, and a prefix whose pairs already miss their exponents is dropped.
    """
    a = oracles.wk_pair_exponents(s, ell, k)
    members = {()}
    for j in range(s):
        members = {t + (x,) for t in members for x in range(ell + 3) if all(t[i] + x >= a[i, j] for i in range(j))}

    def is_minimal(t):
        return not any(t[:v] + (t[v] - 1,) + t[v + 1 :] in members for v in range(s) if t[v])

    return ex.minimalize(s, filter(is_minimal, members))


def scan_is_matroid(complex_):
    """Every restriction to a vertex subset is pure: a scan over all 2^v subsets."""
    facet_sets = [frozenset(f) for f in complex_.facets]
    for k in range(complex_.vertex_count + 1):
        for w in itertools.combinations(range(complex_.vertex_count), k):
            restricted = {f & frozenset(w) for f in facet_sets}
            maximal = [f for f in restricted if not any(f < g for g in restricted)]
            if len({len(f) for f in maximal}) > 1:
                return False
    return True


def scan_stanley_reisner_ideal(complex_):
    """The non-faces all of whose one-smaller subsets are faces, by a scan over all vertex subsets."""
    v = complex_.vertex_count
    facet_sets = [frozenset(f) for f in complex_.facets]

    def is_face(subset):
        return any(subset <= f for f in facet_sets)

    gens = [
        tuple(int(i in w) for i in range(v))
        for k in range(1, v + 1)
        for w in itertools.combinations(range(v), k)
        if not is_face(frozenset(w)) and all(is_face(frozenset(w) - {x}) for x in w)
    ]
    return ex.minimalize(v, gens)


@st.composite
def complexes(draw):
    """Random complexes on at most 7 vertices, with no, one or several facets.

    Half of them keep a random part of all k-subsets (a uniform matroid, or
    one with some bases dropped), so matroids and non-matroids both occur.
    """
    v = draw(st.integers(1, 7))
    subsets = st.lists(st.integers(0, v - 1), unique=True).map(lambda f: tuple(sorted(f)))
    if draw(st.booleans()):
        k = draw(st.integers(0, v))
        all_k = list(itertools.combinations(range(v), k))
        facets = draw(st.lists(st.sampled_from(all_k), max_size=len(all_k)))
        if draw(st.booleans()):
            facets = all_k
    else:
        facets = draw(st.lists(subsets, max_size=6))
    return oracles.make_complex(v, facets)


@settings(max_examples=200, deadline=None)
@given(complexes())
def test_is_matroid_matches_subset_scan(complex_):
    assert star.is_matroid(complex_) == scan_is_matroid(complex_)


@settings(max_examples=200, deadline=None)
@given(complexes())
def test_stanley_reisner_ideal_matches_subset_scan(complex_):
    assert star.stanley_reisner_ideal(complex_) == scan_stanley_reisner_ideal(complex_)


def test_face_set_edge_cases():
    for v in range(1, 5):
        void = oracles.make_complex(v, [])  # no faces at all
        assert star.is_matroid(void)
        assert star.stanley_reisner_ideal(void) == scan_stanley_reisner_ideal(void)
        empty_face = oracles.make_complex(v, [()])  # only the empty face: every vertex is a non-face
        assert star.is_matroid(empty_face)
        assert star.stanley_reisner_ideal(empty_face) == oracles.variable_ideal(v, range(v))
        simplex = oracles.make_complex(v, [tuple(range(v))])
        assert star.is_matroid(simplex)
        assert star.stanley_reisner_ideal(simplex).is_zero


def test_star_config_validation():
    StarConfig(4, 2)
    with pytest.raises(UsageError):
        StarConfig(1, 1)
    with pytest.raises(UsageError):
        StarConfig(4, 4)
    with pytest.raises(UsageError):
        StarConfig(4, 0)


def test_skeleton_ideal():
    sk = star.skeleton_ideal(StarConfig(4, 2))
    assert len(sk.gens) == 4
    assert all(sum(g) == 3 for g in sk.gens)
    # each generator vanishes on every pair component
    for g in sk.gens:
        for i, j in itertools.combinations(range(4), 2):
            assert g[i] + g[j] >= 1
    assert star.skeleton_ideal(StarConfig(2, 1)).gens == ((1, 1),)
    sk73 = star.skeleton_ideal(StarConfig(7, 3))
    assert len(sk73.gens) == comb(7, 2) == 21
    assert all(sum(g) == 5 for g in sk73.gens)


def test_skeleton_generator_count_formula():
    for s in range(2, 8):
        for c in range(1, s):
            sk = star.skeleton_ideal(StarConfig(s, c))
            assert len(sk.gens) == comb(s, c - 1)
            assert ex.equals(sk, squarefree_veronese(s, s - c + 1))


def test_symbolic_member():
    cfg = StarConfig(4, 2)
    assert star.symbolic_member((1, 1, 1, 1), cfg, 2)
    assert not star.symbolic_member((5, 5, 0, 1), cfg, 2)
    with pytest.raises(UsageError):
        star.symbolic_member((1, 1, 1, 1), cfg, 0)
    with pytest.raises(UsageError):
        star.symbolic_member((1, 1, 1), cfg, 2)
    # nothing of degree below the initial degree is a member
    for ell in (1, 2, 3):
        a = config.alpha_symbolic_formula(cfg, ell)
        for d in range(a):
            assert not any(
                star.symbolic_member(mu, cfg, ell) for mu in oracles.monomials_of_degree(4, d)
            )


def test_symbolic_power_small():
    cfg = StarConfig(4, 2)
    assert ex.equals(star.symbolic_power(cfg, 1), squarefree_veronese(4, 3))
    sp2 = star.symbolic_power(cfg, 2)
    assert (1, 1, 1, 1) in sp2.gens
    assert (0, 2, 2, 2) in sp2.gens
    assert len(sp2.gens) == 5


def test_symbolic_power_matches_box_oracle():
    for s in range(2, 6):
        for c in range(1, s):
            for ell in range(1, 4):
                cfg = StarConfig(s, c)
                assert ex.equals(star.symbolic_power(cfg, ell), brute_symbolic_power(cfg, ell))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_symbolic_power_matches_intersection_property(data):
    s = data.draw(st.integers(2, 5))
    cfg = StarConfig(s, data.draw(st.integers(1, s - 1)))
    ell = data.draw(st.integers(1, 4))
    assert ex.equals(star.symbolic_power(cfg, ell), oracles.symbolic_power_by_intersection(cfg, ell))


def test_symbolic_power_expands_distinct_arrangements_only():
    # two minimal shapes, (0^4, 1^8) and (0^5, 2^7), each with 12! permutations
    assert len(star.symbolic_power(StarConfig(12, 6), 2).gens) == comb(12, 4) + comb(12, 5) == 1287


def test_symbolic_power_matches_intersection_oracle():
    for s in range(2, 6):
        for c in range(1, min(4, s)):
            for ell in range(1, 5):
                cfg = StarConfig(s, c)
                assert ex.equals(
                    star.symbolic_power(cfg, ell),
                    oracles.symbolic_power_by_intersection(cfg, ell),
                )


def test_symbolic_power_enum_cap():
    with pytest.raises(ResourceCapError):
        star.symbolic_power(StarConfig(6, 2), 5, enum_cap=10)
    # two shapes of 12 entries pass the cap, but they expand to 1287 generators
    with pytest.raises(ResourceCapError):
        star.symbolic_power(StarConfig(12, 6), 2, enum_cap=1000)
    # the cap counts the entries listed, 1287 * 12 = 15444, not the generators
    with pytest.raises(ResourceCapError):
        star.symbolic_power(StarConfig(12, 6), 2, enum_cap=15443)
    assert len(star.symbolic_power(StarConfig(12, 6), 2, enum_cap=15444).gens) == 1287


def test_symbolic_contains_ordinary_power():
    for s in range(3, 6):
        for c in range(1, s):
            cfg = StarConfig(s, c)
            sk = star.skeleton_ideal(cfg)
            for ell in range(1, 4):
                assert oracles.contains(star.symbolic_power(cfg, ell), ex.power(sk, ell))
                assert ex.alpha(ex.power(sk, ell)) == ell * (s - c + 1)


def test_alpha_omega_formulas():
    cfg = StarConfig(4, 2)
    assert config.alpha_symbolic_formula(cfg, 2) == 4
    assert config.alpha_symbolic_formula(StarConfig(7, 3), 2) == 6
    for s in range(2, 7):
        for c in range(1, s):
            assert config.alpha_symbolic_formula(StarConfig(s, c), 1) == s - c + 1
            assert config.omega_symbolic_formula(StarConfig(s, c), 1) == s - c + 1
    assert config.omega_symbolic_formula(StarConfig(4, 2), 2) == 6
    assert config.omega_symbolic_formula(StarConfig(5, 3), 3) == 9
    assert ex.omega(star.symbolic_power(StarConfig(5, 3), 3)) == 9


def test_lemma_containment():
    for s in range(3, 9):
        for c in range(2, s):
            cfg = StarConfig(s, c)
            oracle = oracles.contains(star.symbolic_power(cfg, 2), star.skeleton_ideal(StarConfig(s, c - 1)))
            assert star.check_lemma_contain(cfg) and oracle, (s, c)
    with pytest.raises(UsageError):
        star.check_lemma_contain(StarConfig(4, 1))


def test_skeleton_complex_and_stanley_reisner():
    cfg = StarConfig(4, 2)
    complex_ = star.skeleton_complex(cfg)
    assert complex_.facets == tuple(itertools.combinations(range(4), 2))
    assert star.is_matroid(complex_)
    assert ex.equals(star.stanley_reisner_ideal(complex_), star.skeleton_ideal(cfg))


def test_non_matroid_complex():
    bad = oracles.make_complex(3, [(0, 1), (2,)])
    assert not star.is_matroid(bad)


def test_matroid_vertex_cap():
    with pytest.raises(ResourceCapError):
        star.is_matroid(oracles.make_complex(17, [tuple(range(17))]))


def test_wk_endpoints_and_intersection_oracle():
    for s, ell in [(4, 1), (5, 2)]:
        assert ex.equals(star.wk_ideal(s, ell, 0), star.symbolic_power(StarConfig(s, 2), ell))
        assert ex.equals(star.wk_ideal(s, ell, s), star.symbolic_power(StarConfig(s, 2), ell + 2))
    # the shifted symbolic power agrees with the pair-prime intersection and with brute-force membership in it
    for s, ell, k in [(4, 1, 2), (4, 2, 1), (5, 1, 3), (6, 1, 4)]:
        assert ex.equals(star.wk_ideal(s, ell, k), oracles.wk_ideal_by_intersection(s, ell, k))
        assert ex.equals(star.wk_ideal(s, ell, k), brute_wk_ideal(s, ell, k))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wk_ideal_matches_box_scan_property(data):
    s = data.draw(st.integers(3, 6))
    ell = data.draw(st.integers(1, 3))
    for k in range(s + 1):
        assert ex.equals(star.wk_ideal(s, ell, k), oracles.wk_ideal_by_intersection(s, ell, k))
        assert ex.equals(star.wk_ideal(s, ell, k), brute_wk_ideal(s, ell, k))


def test_wk_chain_is_increasing():
    s, ell = 4, 1
    for k in range(s):
        # schemes grow along the chain, so the ideals shrink
        assert oracles.contains(star.wk_ideal(s, ell, k), star.wk_ideal(s, ell, k + 1))


def test_wk_degree_closed_form():
    for s in (4, 5):
        for ell in (1, 2):
            for k in range(s + 1):
                expected = (
                    comb(k, 2) * comb(ell + 3, 2)
                    + k * (s - k) * comb(ell + 2, 2)
                    + comb(s - k, 2) * comb(ell + 1, 2)
                )
                assert star.wk_degree(s, ell, k) == expected


def test_wk_step_check():
    assert star.wk_step_check(4, 1, 0)
    assert star.wk_step_check(5, 2, 3)
    assert not star.wk_step_check(5, 2, 1, nxt=star.wk_ideal(5, 2, 3))  # W_{k+2} is not the next link
    # 1,502 generators: comparing sorted lists, not minimalizing them, keeps this well under a second
    current, nxt = star.wk_ideal(3, 1000, 1), star.wk_ideal(3, 1000, 2)
    start = time.perf_counter()
    assert star.wk_step_check(3, 1000, 1, current, nxt)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(UsageError):
        star.wk_step_check(4, 1, 4)


def test_wk_ideal_and_step_build_past_the_command_cap():
    # check_wk's (ell+3)^s cap prices the wk command's numerator recursion, not building W_k: 4^12 is past it
    for k in (0, 5, 11):
        assert star.wk_ideal(12, 1, k).gens
        assert star.wk_step_check(12, 1, k)


def test_wk_parameter_validation():
    with pytest.raises(UsageError):
        star.wk_ideal(2, 1, 0)
    with pytest.raises(UsageError):
        star.wk_ideal(4, 0, 0)
    with pytest.raises(UsageError):
        star.wk_ideal(4, 1, 5)
