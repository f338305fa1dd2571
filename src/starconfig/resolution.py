"""Hilbert-Burch matrices of codimension-2 symbolic powers, their exact minors, and the Euler check.

For codimension 2, every symbolic power is the ideal of maximal minors of an
explicit block matrix whose entries are signed monomials in the s variables;
those minors are computed here by exact cofactor expansion and compared
against the predicted monomial family and the symbolic power itself.  The
closed-form resolution shapes (Eagon-Northcott for the skeleton, a mapping
cone for the symbolic square) live in starconfig.shapes; euler_check holds
one against the pivot-recursion numerator of a built ideal.
"""

from __future__ import annotations

from .errors import ResourceCapError, TheoremViolation, UsageError, over_cap
from .record import Record

# Hard cap on exact determinant size; larger requests get a resource error.
DET_DIMENSION_CAP = 16


class SparsePoly(Record):
    """A multivariate polynomial with integer coefficients.

    Terms map exponent tuples to nonzero coefficients, stored sorted in
    graded-lex order so equality is structural.
    """

    arity: int
    terms: tuple[tuple[ex.Exponent, int], ...]

    @staticmethod
    def from_dict(arity: int, d: dict[ex.Exponent, int]) -> SparsePoly:
        from .exponents import grlex_key

        items = tuple(sorted(((m, c) for m, c in d.items() if c != 0), key=lambda t: grlex_key(t[0])))
        return SparsePoly(arity, items)

    @staticmethod
    def zero(arity: int) -> SparsePoly:
        return SparsePoly(arity, ())

    @staticmethod
    def monomial(arity: int, exp: ex.Exponent, coeff: int = 1) -> SparsePoly:
        if len(exp) != arity:
            raise UsageError(f"exponent {exp} does not match arity {arity}")
        if coeff == 0:
            return SparsePoly(arity, ())
        return SparsePoly(arity, ((tuple(exp), coeff),))

    @staticmethod
    def variable(arity: int, i: int) -> SparsePoly:
        e = [0] * arity
        e[i] = 1
        return SparsePoly.monomial(arity, tuple(e))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: SparsePoly) -> SparsePoly:
        if self.arity != other.arity:
            raise UsageError(f"arity mismatch: {self.arity} vs {other.arity}")
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return SparsePoly.from_dict(self.arity, d)

    def __neg__(self) -> SparsePoly:
        return SparsePoly(self.arity, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: SparsePoly) -> SparsePoly:
        return self + (-other)

    def __mul__(self, other: SparsePoly) -> SparsePoly:
        if self.arity != other.arity:
            raise UsageError(f"arity mismatch: {self.arity} vs {other.arity}")
        d: dict[ex.Exponent, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                d[m] = d.get(m, 0) + c1 * c2
        return SparsePoly.from_dict(self.arity, d)

    def as_monomial(self) -> tuple[int, ex.Exponent] | None:
        """(coefficient, exponent) when the polynomial is a single term, else None."""
        if len(self.terms) != 1:
            return None
        m, c = self.terms[0]
        return c, m

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        from .exponents import monomial_str

        parts = []
        for m, c in self.terms:
            mono = monomial_str(m)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


class SymbolicMatrix(Record):
    """A dense rectangular matrix of SparsePoly entries over a common arity."""

    rows: int
    cols: int
    entries: tuple[tuple[SparsePoly, ...], ...]

    def _validate(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise UsageError("entry grid does not match the declared dimensions")

    def entry(self, i: int, j: int) -> SparsePoly:
        return self.entries[i][j]


def euler_check(shape: ResolutionShape, ideal: ex.MonomialIdeal) -> bool:
    """Whether the shape's alternating-sum numerator matches the ideal's Hilbert-series numerator."""
    from . import hilbert
    from .shapes import shape_numerator  # here, so that hb compiles no shapes

    return shape_numerator(shape) == hilbert._numerator(ideal)


def _p_monomial(s: int, i: int) -> ex.Exponent:
    """Exponent of P_i: the product of all variables except x_i (0-based)."""
    return tuple(0 if j == i else 1 for j in range(s))


def hb_matrix(s: int, m: int) -> SymbolicMatrix:
    """The determinantal matrix presenting the m-th symbolic power in codimension 2.

    Even m = 2r gives an (sr+1) x sr matrix; odd m = 2r+1 gives an
    s(r+1) x (s(r+1)-1) matrix.  Blocks: a top row of -P_i (even) or a
    bidiagonal block D (odd), then a staircase of diag(x_i) and -diag(P_i).
    The matrix is built for its maximal minors, so a minor dimension (cols)
    past DET_DIMENSION_CAP is refused before anything is allocated.
    """
    if s < 2:
        raise UsageError(f"need at least 2 variables, got s={s}")
    if m < 2:
        raise UsageError(f"the matrix is defined for m >= 2, got m={m}")
    r = m // 2
    top, left = (1, 0) if m % 2 == 0 else (s, s - 1)  # the header's rows and columns
    rows, cols = top + s * r, left + s * r
    if cols > DET_DIMENSION_CAP:
        dimension = over_cap(cols, DET_DIMENSION_CAP)
        raise ResourceCapError(f"minor dimension {dimension} exceeds the cap {DET_DIMENSION_CAP}")
    zero = SparsePoly.zero(s)
    var = [SparsePoly.variable(s, i) for i in range(s)]
    p_neg = [SparsePoly.monomial(s, _p_monomial(s, i), -1) for i in range(s)]
    grid = [[zero] * cols for _ in range(rows)]
    if m % 2 == 0:
        for i in range(s):  # top row: B
            grid[0][i] = p_neg[i]
    else:
        for j in range(s - 1):  # D block: -x_j above, x_{j+1} below
            grid[j][j] = -var[j]
            grid[j + 1][j] = var[j + 1]
        for i in range(s):  # E next to D
            grid[i][s - 1 + i] = p_neg[i]
    for block in range(r):
        r0, c0 = top + block * s, left + block * s
        for i in range(s):
            grid[r0 + i][c0 + i] = var[i]  # C
            if block < r - 1:
                grid[r0 + i][c0 + s + i] = p_neg[i]  # E
    return SymbolicMatrix(rows, cols, tuple(tuple(row) for row in grid))


def maximal_minors(matrix: SymbolicMatrix) -> list[SparsePoly]:
    """Determinants of the square submatrices obtained by deleting one row, in row order.

    Cofactor expansion with one memo across the minors, along the line (row
    or column) with the fewest nonzero entries, the first such row on a tie.
    The nonzero entries of each row and column are kept as bitmasks, so a
    line's count is the popcount of its mask against the remaining lines.
    """
    if matrix.rows != matrix.cols + 1:
        raise UsageError(
            f"maximal minors need rows = cols + 1, got {matrix.rows}x{matrix.cols}"
        )
    if matrix.cols > DET_DIMENSION_CAP:
        raise ResourceCapError(
            f"minor dimension {matrix.cols} exceeds the cap {DET_DIMENSION_CAP}"
        )
    entries = matrix.entries
    arity = entries[0][0].arity
    # bit j of row_nz[i], and bit i of col_nz[j], is set when entry (i, j) is nonzero
    row_nz = [sum(1 << j for j, e in enumerate(row) if not e.is_zero) for row in entries]
    col_nz = [sum(1 << i for i, row in enumerate(entries) if not row[j].is_zero) for j in range(matrix.cols)]
    memo: dict = {}

    def det(rows: tuple[int, ...], cols: tuple[int, ...], row_mask: int, col_mask: int) -> SparsePoly:
        if not rows:
            return SparsePoly.monomial(arity, (0,) * arity)
        key = (row_mask, col_mask)
        if key in memo:
            return memo[key]
        if len(rows) == 1:
            memo[key] = result = entries[rows[0]][cols[0]]
            return result
        counts = [(row_nz[r] & col_mask).bit_count() for r in rows] + [(col_nz[c] & row_mask).bit_count() for c in cols]
        a = counts.index(min(counts))
        is_row = a < len(rows)
        if not is_row:
            a -= len(rows)
        result = SparsePoly.zero(arity)
        for b in range(len(cols) if is_row else len(rows)):  # an all-zero line leaves the result zero
            i, j = (a, b) if is_row else (b, a)
            r, c = rows[i], cols[j]
            if not row_nz[r] >> c & 1:
                continue
            minor = det(rows[:i] + rows[i + 1 :], cols[:j] + cols[j + 1 :], row_mask ^ (1 << r), col_mask ^ (1 << c))
            term = entries[r][c] * minor
            result = result + term if (i + j) % 2 == 0 else result - term
        memo[key] = result
        return result

    all_rows, cols = tuple(range(matrix.rows)), tuple(range(matrix.cols))
    full_rows, full_cols = (1 << matrix.rows) - 1, (1 << matrix.cols) - 1
    return [det(all_rows[:k] + all_rows[k + 1 :], cols, full_rows ^ (1 << k), full_cols) for k in range(matrix.rows)]


def expected_minor_monomials(s: int, m: int) -> set[ex.Exponent]:
    """The predicted monomial family for the maximal minors, up to sign.

    Even m = 2r: P^r together with P^{r-j} P_i^{2j} for j = 1..r and each i.
    Odd m = 2r+1: P^{r-j} P_i^{2j+1} for j = 0..r and each i.
    """
    if m < 2:
        raise UsageError(f"the family is defined for m >= 2, got m={m}")
    r, odd = divmod(m, 2)
    # x_i^(r-j) times x_v^(r+j+odd) for every v != i; for even m, j = 0 gives P^r for every i
    return {tuple(r - j if v == i else r + j + odd for v in range(s)) for j in range(r + 1) for i in range(s)}


def verify_hb(s: int, m: int, minors: list[SparsePoly] | None = None) -> bool:
    """Whether the maximal minors of hb_matrix(s, m) generate exactly the m-th symbolic power.

    An s < 3 is refused first (check_codim2).  Pass the minors when they
    are already computed; otherwise they are.  Every minor must be plus or
    minus a single monomial; a minor with more terms is a theorem violation
    and raises with the witness.
    """
    from . import exponents as ex, star

    star.check_codim2(s)
    if minors is None:
        minors = maximal_minors(hb_matrix(s, m))
    exps = []
    for k, minor in enumerate(minors):
        mono = minor.as_monomial()
        if mono is None or abs(mono[0]) != 1:
            raise TheoremViolation(
                f"maximal minor {k} of the {len(minors)}x{len(minors) - 1} matrix "
                f"(s={s}, m={m}) is not a signed monomial: {minor}"
            )
        exps.append(mono[1])
    minor_ideal = ex.minimalize(s, exps)
    target = star.symbolic_power(star.StarConfig(s, 2), m)
    return ex.equals(minor_ideal, target)


__all__ = [
    "DET_DIMENSION_CAP",
    "SparsePoly",
    "SymbolicMatrix",
    "euler_check",
    "expected_minor_monomials",
    "hb_matrix",
    "maximal_minors",
    "verify_hb",
]
