"""Hilbert-Burch matrices of codimension-2 symbolic powers and their maximal minors.

For codimension 2, every symbolic power is the ideal of maximal minors of an
explicit block matrix whose entries are signed monomials in the s variables.
Each row-deleted square of that matrix has exactly one perfect matching of
its nonzero entries, so each minor is read off that matching as a signed
monomial, in integers, and compared against the predicted monomial family
and the symbolic power itself.  The closed-form resolution shapes live in
starconfig.shapes, and hilbert.euler_check holds one against a built ideal.
"""

from .errors import TheoremViolation, UsageError, check_cap
from .record import Record

# Hard cap on the minor dimension of hb_matrix; larger requests get a resource error.
DET_DIMENSION_CAP = 16


class SymbolicMatrix(Record):
    """A dense rectangular matrix of signed monomials.

    An entry is (sign, exponent), the monomial sign * x^exponent with sign
    1 or -1, or None for zero.
    """

    rows: int
    cols: int
    entries: tuple[tuple[tuple[int, tuple[int, ...]] | None, ...], ...]

    def _validate(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise UsageError("entry grid does not match the declared dimensions")


def hb_matrix(s: int, m: int) -> SymbolicMatrix:
    """The determinantal matrix presenting the m-th symbolic power in codimension 2.

    Even m = 2r gives an (sr+1) x sr matrix; odd m = 2r+1 gives an
    s(r+1) x (s(r+1)-1) matrix.  Blocks: a top row of -P_i (even) or a
    bidiagonal block D (odd), then a staircase of diag(x_i) and -diag(P_i),
    where P_i is the product of all variables except x_i.  The matrix is
    built for its maximal minors, so a minor dimension (cols) past
    DET_DIMENSION_CAP is refused before anything is allocated.
    """
    if m < 2:
        raise UsageError(f"the matrix is defined for m >= 2, got m={m}")
    if s < 2:
        raise UsageError(f"need at least 2 variables, got s={s}")
    r = m // 2
    top, left = (1, 0) if m % 2 == 0 else (s, s - 1)  # the header's rows and columns
    rows, cols = top + s * r, left + s * r
    check_cap(cols, DET_DIMENSION_CAP, "minor dimension {}")
    x = [tuple(int(j == i) for j in range(s)) for i in range(s)]
    p = [tuple(int(j != i) for j in range(s)) for i in range(s)]
    grid = [[None] * cols for _ in range(rows)]
    if m % 2 == 0:
        for i in range(s):  # top row: B
            grid[0][i] = (-1, p[i])
    else:
        for j in range(s - 1):  # D block: -x_j above, x_{j+1} below
            grid[j][j] = (-1, x[j])
            grid[j + 1][j] = (1, x[j + 1])
        for i in range(s):  # E next to D
            grid[i][s - 1 + i] = (-1, p[i])
    for block in range(r):
        r0, c0 = top + block * s, left + block * s
        for i in range(s):
            grid[r0 + i][c0 + i] = (1, x[i])  # C
            if block < r - 1:
                grid[r0 + i][c0 + s + i] = (-1, p[i])  # E
    return SymbolicMatrix(rows, cols, tuple(tuple(row) for row in grid))


def maximal_minors(matrix: SymbolicMatrix) -> list[tuple[int, tuple[int, ...]]]:
    """The determinants of the squares obtained by deleting one row, in row order, as (sign, exponent).

    The nonzero entries of a square are the edges of a bipartite graph on
    its rows and columns, and each term of its determinant is a perfect
    matching.  A line (row or column) with exactly one nonzero entry forces
    that entry into every perfect matching, so the peel matches it, deletes
    its row and column, and repeats.  When the peel matches every row, each
    step was forced and the matching sigma is the only one: the minor is the
    single term sgn(sigma) * prod a_{i,sigma(i)}, its sign the product of the
    entries' signs and (-1)^(n - number of cycles of sigma), its exponent
    the sum of theirs.  Each minor costs O(entries).

    The peel is a complete uniqueness test.  If it stops with a row or
    column left that has no entry, there is no perfect matching.  Otherwise
    every row left has at least two entries; given a perfect matching M,
    leave a row by an entry not in M and return along M from that column to
    its row.  Every row has such an entry, so the walk repeats a row and
    closes a cycle alternating between M and the other entries; swapping M
    along it gives a second perfect matching.  Either way the minor is not a
    single term of one matching, and the peel raises TheoremViolation with
    the deleted row k and the rows and columns it left.

    hb_matrix's pattern never stops the peel at a line with entries left.
    Each of its columns holds two entries, and its graph is connected: for
    even m, s paths from the top row, one per variable; for odd m, the D
    block's path through rows 0..s-1, with a path from each of those rows.
    With cols+1 rows, cols columns and 2*cols edges it is a tree.  Deleting
    row k leaves a forest, which has no cycle and so at most one perfect
    matching, and each of whose components with an edge has a leaf, a line
    with one entry, to start from.
    """
    if matrix.rows != matrix.cols + 1:
        raise UsageError(
            f"maximal minors need rows = cols + 1, got {matrix.rows}x{matrix.cols}"
        )
    n, entries = matrix.cols, matrix.entries
    row_nz = [[j for j, e in enumerate(row) if e is not None] for row in entries]
    minors = []
    for k in range(matrix.rows):
        # vertex v < n is row v of the square (row v + (v >= k) of the matrix), vertex n + j its column j
        nbrs = [set() for _ in range(2 * n)]
        for v, cols in enumerate(row_nz[:k] + row_nz[k + 1 :]):
            for j in cols:
                nbrs[v].add(n + j)
                nbrs[n + j].add(v)
        sigma = [None] * n  # row -> column of the matching
        leaves = [v for v in range(2 * n) if len(nbrs[v]) == 1]
        while leaves:
            v = leaves.pop()
            if len(nbrs[v]) != 1:  # matched, or emptied, since it was pushed
                continue
            (u,) = nbrs[v]
            row, col = (v, u - n) if v < n else (u, v - n)
            sigma[row] = col
            nbrs[v].clear()
            for w in nbrs[u] - {v}:
                nbrs[w].discard(u)
                if len(nbrs[w]) == 1:
                    leaves.append(w)
            nbrs[u].clear()
        if None in sigma:
            left = [i + (i >= k) for i in range(n) if sigma[i] is None]
            taken = set(sigma)
            raise TheoremViolation(
                f"maximal minor {k} of the {matrix.rows}x{n} matrix has no unique perfect matching: "
                f"the peel left rows {left} and columns {[j for j in range(n) if j not in taken]}"
            )
        sign, seen = (-1) ** n, [False] * n
        for start in range(n):  # a cycle of length l has sign (-1)^(l-1)
            if not seen[start]:
                sign = -sign
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = sigma[j]
        matched = [entries[i + (i >= k)][j] for i, j in enumerate(sigma)]
        for entry_sign, _ in matched:
            sign *= entry_sign
        minors.append((sign, tuple(map(sum, zip(*(exp for _, exp in matched))))))
    return minors


def expected_minor_monomials(s: int, m: int) -> set[tuple[int, ...]]:
    """The predicted monomial family for the maximal minors, up to sign.

    Even m = 2r: P^r together with P^{r-j} P_i^{2j} for j = 1..r and each i.
    Odd m = 2r+1: P^{r-j} P_i^{2j+1} for j = 0..r and each i.
    """
    if m < 2:
        raise UsageError(f"the family is defined for m >= 2, got m={m}")
    r, odd = divmod(m, 2)
    # x_i^(r-j) times x_v^(r+j+odd) for every v != i; for even m, j = 0 gives P^r for every i
    return {tuple(r - j if v == i else r + j + odd for v in range(s)) for j in range(r + 1) for i in range(s)}


def verify_hb(s: int, m: int, minors: list[tuple[int, tuple[int, ...]]] | None = None) -> bool:
    """Whether the maximal minors of hb_matrix(s, m) generate exactly the m-th symbolic power.

    An s < 3 is refused first (check_codim2).  Pass the minors, as
    maximal_minors returns them, when they are already computed; otherwise
    they are.  maximal_minors has checked that each is a single signed
    monomial, so only their exponents are compared.
    """
    from . import config, exponents as ex, star

    config.check_codim2(s)
    if minors is None:
        minors = maximal_minors(hb_matrix(s, m))
    minor_ideal = ex.minimalize(s, [exp for _, exp in minors])
    target = star.symbolic_power(config.StarConfig(s, 2), m)
    return ex.equals(minor_ideal, target)


__all__ = [
    "DET_DIMENSION_CAP",
    "SymbolicMatrix",
    "expected_minor_monomials",
    "hb_matrix",
    "maximal_minors",
    "verify_hb",
]
