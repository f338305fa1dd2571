"""Betti shapes, determinantal matrices, and exact minors."""

import itertools
import random
from math import comb

import pytest

import oracles
from starconfig import exponents as ex
from starconfig import hilbert, resolution, shapes
from starconfig.errors import ResourceCapError, TheoremViolation, UsageError
from starconfig.resolution import SparsePoly, SymbolicMatrix
from starconfig.star import StarConfig, skeleton_ideal, symbolic_power


def poly(arity, *terms):
    d = {}
    for exp, coeff in terms:
        d[tuple(exp)] = d.get(tuple(exp), 0) + coeff
    return SparsePoly.from_dict(arity, d)


def leibniz_det(matrix):
    """Permutation-sum determinant; the independent oracle for small sizes."""
    n = matrix.rows
    arity = matrix.entries[0][0].arity
    total = SparsePoly.zero(arity)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = SparsePoly.monomial(arity, (0,) * arity, sign)
        for i in range(n):
            term = term * matrix.entry(i, perm[i])
        total = total + term
    return total


def test_sparse_poly_arithmetic():
    x0 = SparsePoly.variable(2, 0)
    x1 = SparsePoly.variable(2, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p == poly(2, ((2, 0), 1), ((0, 2), -1))
    assert (p - p).is_zero
    assert (x0 * x1).as_monomial() == (1, (1, 1))
    assert p.as_monomial() is None


def test_sparse_poly_str():
    x0 = SparsePoly.variable(2, 0)
    x1 = SparsePoly.variable(2, 1)
    assert str(SparsePoly.zero(2)) == "0"
    assert str(x0 * x1) == "x0*x1"
    assert str(-(x0 * x1)) == "-x0*x1"
    assert str(SparsePoly.monomial(2, (0, 0), 3)) == "3"
    assert str(x0 * x0 - x0 * x1) == "x0^2 - x0*x1"  # graded-lex term order


def test_en_rank():
    assert shapes.en_rank(7, 2, 1) == 7
    assert shapes.en_rank(7, 2, 2) == 6
    for c in range(1, 6):
        for i in range(1, c + 1):
            assert shapes.en_rank(c, c, i) == comb(c, i)
    # first module rank equals the skeleton generator count
    for s in range(2, 8):
        for c in range(1, s):
            assert shapes.en_rank(s, c, 1) == comb(s, c - 1)
            assert shapes.en_rank(s, c, 1) == len(skeleton_ideal(StarConfig(s, c)).gens)
    with pytest.raises(UsageError):
        shapes.en_rank(7, 2, 3)
    with pytest.raises(UsageError):
        shapes.en_rank(7, 2, 0)


def test_ss_resolution_worked_example():
    shape = shapes.ss_resolution(7, 3)
    assert shape.modules == (
        ((-6, 7), (-10, 21)),
        ((-7, 6), (-11, 42)),
        ((-12, 21),),
    )


def test_ss_resolution_last_module_has_single_twist():
    for s in range(3, 8):
        for c in range(2, s):
            shape = shapes.ss_resolution(s, c)
            assert shape.length() == c
            assert len(shape.modules[-1]) == 1  # N_c = 0


def test_ss_resolution_first_module_matches_generator_histogram():
    for s in range(3, 7):
        for c in range(2, s):
            gens = symbolic_power(StarConfig(s, c), 2).gens
            histogram = {}
            for g in gens:
                histogram[-sum(g)] = histogram.get(-sum(g), 0) + 1
            f1 = dict(shapes.ss_resolution(s, c).modules[0])
            assert histogram == f1


def test_euler_check():
    for s, c in [(4, 2), (7, 3), (5, 4)]:
        shape = shapes.ss_resolution(s, c)
        ideal = symbolic_power(StarConfig(s, c), 2)
        assert resolution.euler_check(shape, ideal)
    # perturbing any rank by one breaks it
    shape = shapes.ss_resolution(4, 2)
    ideal = symbolic_power(StarConfig(4, 2), 2)
    for i, pairs in enumerate(shape.modules):
        for j, (twist, rank) in enumerate(pairs):
            perturbed = [list(map(list, p)) for p in shape.modules]
            perturbed[i][j] = [twist, rank + 1]
            bad = shapes.ResolutionShape(
                tuple(tuple(tuple(q) for q in p) for p in perturbed)
            )
            assert not resolution.euler_check(bad, ideal)


def test_hb_matrix_shapes():
    m42 = resolution.hb_matrix(4, 2)
    assert (m42.rows, m42.cols) == (5, 4)
    assert all(m42.entry(0, j).as_monomial()[0] == -1 for j in range(4))
    assert all(sum(m42.entry(0, j).as_monomial()[1]) == 3 for j in range(4))
    m43 = resolution.hb_matrix(4, 3)
    assert (m43.rows, m43.cols) == (8, 7)
    # D block is bidiagonal: -x_j on the diagonal, x_{j+1} below
    for j in range(3):
        assert m43.entry(j, j).as_monomial()[0] == -1
        assert m43.entry(j + 1, j).as_monomial()[0] == 1
    # every entry is zero or a signed monomial
    for mat in (m42, m43, resolution.hb_matrix(5, 4)):
        for row in mat.entries:
            for entry in row:
                assert entry.is_zero or abs(entry.as_monomial()[0]) == 1
    with pytest.raises(UsageError):
        resolution.hb_matrix(4, 1)


def test_determinant_basics():
    # maximal_minors(m)[k] is the determinant of m without row k
    x = [SparsePoly.variable(3, i) for i in range(3)]
    zero = SparsePoly.zero(3)
    diag = SymbolicMatrix(3, 2, ((x[0], zero), (zero, x[1]), (zero, zero)))
    assert resolution.maximal_minors(diag) == [zero, zero, x[0] * x[1]]
    upper = SymbolicMatrix(3, 2, ((x[0], -x[0]), (zero, x[1]), (x[2], x[2])))
    two = SparsePoly.monomial(3, (0, 0, 0), 2)
    assert resolution.maximal_minors(upper) == [-(x[1] * x[2]), two * x[0] * x[2], x[0] * x[1]]
    with pytest.raises(UsageError):
        resolution.maximal_minors(SymbolicMatrix(1, 2, ((x[0], x[1]),)))


def test_determinant_matches_leibniz_on_random_sparse():
    # every row-deleted minor, all expanded through one shared memo, against the permutation sum
    rng = random.Random(20120325)
    for trial in range(30):
        n = rng.randint(1, 4)
        arity = rng.randint(1, 3)
        rows = []
        for _ in range(n + 1):
            row = []
            for _ in range(n):
                if rng.random() < 0.4:
                    row.append(SparsePoly.zero(arity))
                else:
                    exp = tuple(rng.randint(0, 2) for _ in range(arity))
                    row.append(SparsePoly.monomial(arity, exp, rng.choice([-2, -1, 1, 2])))
            rows.append(tuple(row))
        minors = resolution.maximal_minors(SymbolicMatrix(n + 1, n, tuple(rows)))
        for k, minor in enumerate(minors):
            square = SymbolicMatrix(n, n, tuple(rows[:k] + rows[k + 1 :]))
            assert minor == leibniz_det(square), f"trial {trial}, row {k}"


def test_maximal_minors_match_the_expansion_oracle():
    # every hb_matrix of at most 12 columns: the bitmask pivot choice gives the pre-bitmask minors, byte for byte
    checked = 0
    for s in range(2, 13):
        for m in itertools.count(2):  # the column count grows with m
            try:
                matrix = resolution.hb_matrix(s, m)
            except ResourceCapError:  # past 16 columns
                break
            if matrix.cols > 12:
                break
            minors, expected = resolution.maximal_minors(matrix), oracles.maximal_minors_by_expansion(matrix)
            assert minors == expected and [str(p) for p in minors] == [str(p) for p in expected], (s, m)
            checked += 1
    assert checked == 35


def test_determinant_cap():
    zero = SparsePoly.zero(1)
    big = SymbolicMatrix(18, 17, tuple(tuple(zero for _ in range(17)) for _ in range(18)))
    with pytest.raises(ResourceCapError):
        resolution.maximal_minors(big)


def test_maximal_minors_counts_and_families():
    for s, m in [(3, 2), (4, 2), (4, 3), (3, 4)]:
        matrix = resolution.hb_matrix(s, m)
        minors = resolution.maximal_minors(matrix)
        assert len(minors) == matrix.rows
        observed = set()
        for minor in minors:
            mono = minor.as_monomial()
            assert mono is not None and abs(mono[0]) == 1
            observed.add(mono[1])
        assert observed == resolution.expected_minor_monomials(s, m)


def test_expected_minor_family_sizes():
    # one distinct monomial per deleted row
    for s, m in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]:
        r = m // 2
        expected = s * r + 1 if m % 2 == 0 else s * (r + 1)
        assert len(resolution.expected_minor_monomials(s, m)) == expected


def test_verify_hb_small():
    assert resolution.verify_hb(3, 2)
    assert resolution.verify_hb(3, 3)
    assert resolution.verify_hb(4, 2)


def test_verify_hb_with_given_minors():
    for s, m in [(3, 4), (4, 3)]:
        minors = resolution.maximal_minors(resolution.hb_matrix(s, m))
        assert resolution.verify_hb(s, m, minors)
        # minors of another matrix generate another ideal
        assert not resolution.verify_hb(s, m, resolution.maximal_minors(resolution.hb_matrix(s, m + 1)))
    two_terms = SparsePoly.variable(3, 0) + SparsePoly.variable(3, 1)
    with pytest.raises(TheoremViolation):
        resolution.verify_hb(3, 2, [two_terms])


def test_maximal_minors_shape_check():
    x = SparsePoly.variable(2, 0)
    square = SymbolicMatrix(2, 2, ((x, x), (x, x)))
    with pytest.raises(UsageError):
        resolution.maximal_minors(square)


def test_shape_numerator_matches_numerator():
    for s, c in [(4, 2), (5, 2), (5, 3)]:
        shape = shapes.ss_resolution(s, c)
        ideal = symbolic_power(StarConfig(s, c), 2)
        assert shapes.shape_numerator(shape) == hilbert._numerator(ideal)
