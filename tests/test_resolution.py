"""Betti shapes, determinantal matrices, and exact minors."""

import itertools
import random
from math import comb

import pytest

import oracles
import test_package
from oracles import SparsePoly
from starconfig import exponents as ex
from starconfig import hilbert, resolution, shapes
from starconfig.config import StarConfig
from starconfig.errors import ResourceCapError, TheoremViolation, UsageError
from starconfig.resolution import SymbolicMatrix
from starconfig.star import skeleton_ideal, symbolic_power


def poly(arity, *terms):
    d = {}
    for exp, coeff in terms:
        d[tuple(exp)] = d.get(tuple(exp), 0) + coeff
    return SparsePoly.from_dict(arity, d)


def leibniz_det(grid, arity):
    """Permutation-sum determinant of a square grid of SparsePoly; the independent oracle for small sizes."""
    n = len(grid)
    total = SparsePoly.zero(arity)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = SparsePoly.monomial(arity, (0,) * arity, sign)
        for i in range(n):
            term = term * grid[i][perm[i]]
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


def test_sparse_poly_record_semantics():
    test_package.test_record_semantics(
        SparsePoly, (1, (((1,), 1),)), (1, ()), None, "SparsePoly(arity=1, terms=(((1,), 1),))"
    )


def test_en_rank():
    assert oracles.en_rank(7, 2, 1) == 7
    assert oracles.en_rank(7, 2, 2) == 6
    for c in range(1, 6):
        for i in range(1, c + 1):
            assert oracles.en_rank(c, c, i) == comb(c, i)
    # first module rank equals the skeleton generator count
    for s in range(2, 8):
        for c in range(1, s):
            assert oracles.en_rank(s, c, 1) == comb(s, c - 1)
            assert oracles.en_rank(s, c, 1) == len(skeleton_ideal(StarConfig(s, c)).gens)
    with pytest.raises(UsageError):
        oracles.en_rank(7, 2, 3)
    with pytest.raises(UsageError):
        oracles.en_rank(7, 2, 0)


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
            assert len(shape.modules) == c
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
        assert hilbert.euler_check(shape, ideal)
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
            assert not hilbert.euler_check(bad, ideal)


def test_hb_matrix_shapes():
    m42 = resolution.hb_matrix(4, 2)
    assert (m42.rows, m42.cols) == (5, 4)
    assert all(m42.entries[0][j][0] == -1 for j in range(4))
    assert all(sum(m42.entries[0][j][1]) == 3 for j in range(4))
    m43 = resolution.hb_matrix(4, 3)
    assert (m43.rows, m43.cols) == (8, 7)
    # D block is bidiagonal: -x_j on the diagonal, x_{j+1} below
    for j in range(3):
        assert m43.entries[j][j][0] == -1
        assert m43.entries[j + 1][j][0] == 1
    # every entry is zero or a signed monomial
    for mat in (m42, m43, resolution.hb_matrix(5, 4)):
        for row in mat.entries:
            for entry in row:
                assert entry is None or abs(entry[0]) == 1
    with pytest.raises(UsageError):
        resolution.hb_matrix(4, 1)


def test_determinant_basics():
    # maximal_minors_by_expansion(m, arity)[k] is the determinant of m without row k
    x = [SparsePoly.variable(3, i) for i in range(3)]
    zero = SparsePoly.zero(3)
    e = [(1, tuple(int(j == i) for j in range(3))) for i in range(3)]
    diag = SymbolicMatrix(3, 2, ((e[0], None), (None, e[1]), (None, None)))
    assert oracles.maximal_minors_by_expansion(diag, 3) == [zero, zero, x[0] * x[1]]
    upper = SymbolicMatrix(3, 2, ((e[0], (-1, e[0][1])), (None, e[1]), (e[2], e[2])))
    two = SparsePoly.monomial(3, (0, 0, 0), 2)
    assert oracles.maximal_minors_by_expansion(upper, 3) == [-(x[1] * x[2]), two * x[0] * x[2], x[0] * x[1]]
    with pytest.raises(UsageError):
        resolution.maximal_minors(SymbolicMatrix(1, 2, ((e[0], e[1]),)))


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
                    row.append(None)
                else:
                    exp = tuple(rng.randint(0, 2) for _ in range(arity))
                    row.append((rng.choice([-2, -1, 1, 2]), exp))
            rows.append(tuple(row))
        matrix = SymbolicMatrix(n + 1, n, tuple(rows))
        minors = oracles.maximal_minors_by_expansion(matrix, arity)
        grid = oracles.poly_grid(matrix, arity)
        for k, minor in enumerate(minors):
            assert minor == leibniz_det(grid[:k] + grid[k + 1 :], arity), f"trial {trial}, row {k}"


def test_maximal_minors_match_the_expansion_oracle():
    # every hb_matrix under the cap: the signed monomial read off the matching is the expanded minor, byte for byte
    checked = 0
    for s in range(2, resolution.DET_DIMENSION_CAP + 1):  # m = 2 has s columns
        for m in itertools.count(2):  # the column count grows with m
            try:
                matrix = resolution.hb_matrix(s, m)
            except ResourceCapError:
                break
            minors, expected = resolution.maximal_minors(matrix), oracles.maximal_minors_by_expansion(matrix, s)
            assert [SparsePoly.monomial(s, exp, sign) for sign, exp in minors] == expected, (s, m)
            # as the hb command renders them
            rendered = [("-" if sign < 0 else "") + ex.monomial_str(exp) for sign, exp in minors]
            assert rendered == [str(p) for p in expected], (s, m)
            checked += 1
    assert checked == 53


def test_determinant_cap():
    # the cap is hb_matrix's: it refuses a minor dimension past 16 before building anything
    with pytest.raises(ResourceCapError, match="minor dimension 20, cap is 16"):
        resolution.hb_matrix(5, 8)


def test_maximal_minors_counts_and_families():
    for s, m in [(3, 2), (4, 2), (4, 3), (3, 4)]:
        matrix = resolution.hb_matrix(s, m)
        minors = resolution.maximal_minors(matrix)
        assert len(minors) == matrix.rows
        observed = set()
        for sign, exp in minors:
            assert abs(sign) == 1
            observed.add(exp)
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


def test_verify_hb_refuses_s_below_3_before_building(monkeypatch):
    # hb_matrix takes s = 2 (it presents (x_0, x_1)^m); verify_hb compares with the codimension-2 skeleton
    monkeypatch.setattr(resolution, "maximal_minors", None)  # never reached
    for s in (1, 2):
        with pytest.raises(UsageError, match=f"codimension-2 configurations need s >= 3, got {s}"):
            resolution.verify_hb(s, 3)


def test_verify_hb_with_given_minors():
    for s, m in [(3, 4), (4, 3)]:
        minors = resolution.maximal_minors(resolution.hb_matrix(s, m))
        assert resolution.verify_hb(s, m, minors)
        # minors of another matrix generate another ideal
        assert not resolution.verify_hb(s, m, resolution.maximal_minors(resolution.hb_matrix(s, m + 1)))
    # minors that are not read off a unique perfect matching: the peel stops and names what it left
    x0, x1 = (1, (1, 0, 0)), (-1, (0, 1, 0))
    cases = [
        # deleting row 0 leaves a full 2x2 block, two matchings (x0^2 - x1^2): every line keeps two entries
        (((None, None), (x0, x1), (x1, x0)), r"rows \[1, 2\] and columns \[0, 1\]$"),
        # deleting row 0 leaves row 1 empty, no matching: row 2 takes column 0, and column 1 is left
        (((x0, x1), (None, None), (x0, None)), r"rows \[1\] and columns \[1\]$"),
    ]
    for grid, witness in cases:
        with pytest.raises(TheoremViolation, match="maximal minor 0 of the 3x2 matrix has no unique perfect matching: "
                           "the peel left " + witness):
            resolution.verify_hb(3, 2, resolution.maximal_minors(SymbolicMatrix(3, 2, grid)))


def test_maximal_minors_shape_check():
    x = (1, (1, 0))
    square = SymbolicMatrix(2, 2, ((x, x), (x, x)))
    with pytest.raises(UsageError):
        resolution.maximal_minors(square)


def test_shape_numerator_matches_numerator():
    for s, c in [(4, 2), (5, 2), (5, 3)]:
        shape = shapes.ss_resolution(s, c)
        ideal = symbolic_power(StarConfig(s, c), 2)
        assert shapes.shape_numerator(shape) == hilbert._numerator(ideal)
