"""Exact linear algebra over Q and over the rational functions Q(t).

Every elimination runs on `SparseRREF`, a reduced row-echelon basis of a
growing subspace of K^n with sparse rows.  The field K is that of the
values: Q for `int` and `Fraction`, Q(t) for `RatFunT`.  Rows are kept fully
reduced: each row is 1 at its own pivot and 0 at every other pivot.  So
reducing a vector is one pass, subtracting once the row of each pivot the
vector holds, and the residual lives on the free (non-pivot) positions
only.  Every value is kept and returned in the form of
`exact.poly.canonical`: a rational as an `int` when integral, else a
`Fraction`, so eliminations that meet pivots of +-1 stay in integers, and
an element of Q(t) as the `RatFunT` it is.  `span` builds one from dense
rows, and `nullspace`, `express`, `solve_right` and `inverse` read their
answers off it: the kernel, coefficients in a span, and X with M X = B
from the RREF of [M | B] (B = I for the inverse).  Pivoting is always
"first nonzero in column order", and the reduced form is unique, so
results are deterministic.

Other modules read a `SparseRREF` through its methods, never its `rows` or
`where`; `rank`, `reduce`, `free` and `pivot_rows` are the readers that an
`operads.ShapeGraph` answers as well.

The dense `rref` and `det`, over either field, share no code with
`SparseRREF` and no other module calls them.  `rref` is an independent
oracle of the tests; both stay here only because the benchmark's tracer
names them.  The tests' other oracles live with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .poly import canonical, ratio

Q0 = Fraction(0)
Q1 = Fraction(1)


# ---------------------------------------------------------------------------
# dense matrices


def rref(matrix):
    """Reduced row echelon form; returns (pivot column list, row list)."""
    rows = [list(row) for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for j in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][j] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Q1 / rows[r][j]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][j] != 0:
                c = rows[i][j]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
    return pivots, rows[: len(pivots)]


def nullspace(matrix, ncols=None):
    """Basis of the right kernel, one vector per free column, ascending.

    Each vector is scaled so that its first nonzero coordinate is +1.
    """
    if ncols is None:
        if not matrix:
            raise ValueError("empty matrix needs an explicit column count")
        ncols = len(matrix[0])
    basis = []
    for vec in span(matrix, ncols).kernel():
        lead = vec[min(vec)]
        basis.append([ratio(vec.get(i, 0), lead) for i in range(ncols)])
    return basis


def solve_right(matrix, rhs_columns):
    """Solve M X = B for X, given B as a list of columns; M must be square
    and invertible, else ValueError.  Column k of X is read off the RREF of
    [M | B] at position n + k of the rows of the pivots 0..n-1; an entry no
    row holds is the zero of the field of the first value outside Q, if any."""
    n = len(matrix)
    acc = span(([*row] + [col[i] for col in rhs_columns] for i, row in enumerate(matrix)), n + len(rhs_columns))
    if any(p not in acc.rows for p in range(n)):
        raise ValueError("matrix is singular")
    zero = next((x * 0 for x in chain(*matrix, *rhs_columns) if not isinstance(x, (int, Fraction))), 0)
    rows = [acc.rows[p] for p in range(n)]
    return [[row.get(n + k, zero) for row in rows] for k in range(len(rhs_columns))]


def express(vectors, target):
    """Coefficients c with sum c[k] * vectors[k] == target, or None when the
    target lies outside the span.  Coefficients of vectors that depend on
    earlier ones are zero."""
    k = len(vectors)
    acc = span(([v[i] for v in vectors] + [x] for i, x in enumerate(target)), k + 1)
    if k in acc.rows:
        return None
    phi = acc.kernel()[-1]  # the functional of free column k
    return [-phi.get(p, 0) for p in range(k)]


def inverse(matrix):
    """Inverse of a square matrix, the solution X of M X = I."""
    n = len(matrix)
    columns = solve_right(matrix, [[int(i == j) for i in range(n)] for j in range(n)])
    return [list(row) for row in zip(*columns)]


def det(matrix):
    rows = [list(row) for row in matrix]
    n = len(rows)
    sign = 1
    result = Q1
    for j in range(n):
        pivot_row = None
        for i in range(j, n):
            if rows[i][j] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Q0
        if pivot_row != j:
            rows[j], rows[pivot_row] = rows[pivot_row], rows[j]
            sign = -sign
        p = rows[j][j]
        result = result * p
        inv = Q1 / p
        for i in range(j + 1, n):
            if rows[i][j] != 0:
                c = rows[i][j] * inv
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[j])]
    return result if sign == 1 else -result


# ---------------------------------------------------------------------------
# sparse incremental RREF over Q or Q(t)


def check_positions(vec, ncols: int):
    """ValueError when a position of vec lies outside [0, ncols)."""
    if vec and (min(vec) < 0 or max(vec) >= ncols):
        bad = next(p for p in vec if not 0 <= p < ncols)
        raise ValueError(f"position {bad} is outside [0, {ncols})")


class SparseRREF:
    """Reduced row-echelon basis of a growing subspace of K^ncols, where K is
    Q or Q(t), the field of the values inserted.

    Vectors are dicts {position: value}, positions in [0, ncols).  The
    pivot of a row is its smallest position, so the free positions are the
    late ones.  Rows are kept fully reduced at all times: no row has a
    nonzero at another row's pivot, and `where[q]` is the set of rows that
    use the free position q.  `insert` keeps this by subtracting the new row
    from every row in `where` of its pivot.  It is what makes `reduce` one
    pass, and it makes the residual of v on the free positions the values
    of the `kernel` functionals at v.

    Every value is put in the form of `exact.poly.canonical` once, as it
    enters `reduce`, `contains` or `insert`, and is stored and returned in
    that form.  `reduce` and `contains` reject a position outside
    [0, ncols) with ValueError; `insert` does not check, because its
    callers build their vectors in range.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict] = {}
        self.where: dict[int, set[int]] = {}  # non-pivot position -> pivots using it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce_internal(self, vec) -> dict:
        # one pass: a fully reduced row is zero at every other pivot, so
        # subtracting the row of each pivot in vec changes only free positions
        # and leaves vec's entries at the other pivots as they were
        work = {p: canonical(c) for p, c in vec.items() if c != 0}
        rows = self.rows
        for p in [p for p in work if p in rows]:
            c = work.pop(p)
            for q, rc in rows[p].items():
                if q == p:
                    continue
                nv = work.get(q, 0) - c * rc
                if nv == 0:
                    del work[q]
                else:
                    # exact.poly.canonical, inlined: a call per entry would slow every elimination
                    work[q] = nv.numerator if nv.__class__ is Fraction and nv.denominator == 1 else nv
        return work

    def reduce(self, vec) -> dict:
        """Residual of vec modulo the current subspace."""
        check_positions(vec, self.ncols)
        return self._reduce_internal(vec)

    def contains(self, vec) -> bool:
        check_positions(vec, self.ncols)
        return not self._reduce_internal(vec)

    def insert(self, vec) -> bool:
        """Add vec to the subspace.  Returns True when the rank grew."""
        work = self._reduce_internal(vec)
        if not work:
            return False
        lead = min(work)
        pivot = work[lead]
        if pivot == 1:
            row = work
        elif pivot == -1:
            row = {q: -c for q, c in work.items()}
        else:
            inv = Q1 / pivot
            row = {q: canonical(c * inv) for q, c in work.items()}
        # keep existing rows fully reduced with respect to the new pivot
        users = self.where.pop(lead, None)
        if users:
            for p in users:
                other = self.rows[p]
                c = other.pop(lead)
                for q, rc in row.items():
                    if q == lead:
                        continue
                    nv = other.get(q, 0) - c * rc
                    if nv == 0:
                        if q in other:
                            del other[q]
                            self.where[q].discard(p)
                    else:
                        if q not in other:
                            self.where.setdefault(q, set()).add(p)
                        other[q] = nv.numerator if nv.__class__ is Fraction and nv.denominator == 1 else nv
        self.rows[lead] = row
        for q in row:
            if q != lead:
                self.where.setdefault(q, set()).add(lead)
        return True

    def pivot_rows(self):
        """(pivot, row) by pivot, one at a time: the stored rows, not copies."""
        return ((p, self.rows[p]) for p in sorted(self.rows))

    def basis(self) -> list[dict]:
        """Rows as vectors, sorted by pivot position."""
        return [dict(row) for _, row in self.pivot_rows()]

    def free(self) -> list[int]:
        """The non-pivot positions, ascending."""
        return [f for f in range(self.ncols) if f not in self.rows]

    def kernel(self) -> list[dict]:
        """Basis of the functionals that vanish on the subspace, one per free
        position f, ascending: 1 at f and -R[p][f] at each pivot p whose row
        uses f."""
        return [
            {p: -self.rows[p][f] for p in sorted(self.where.get(f, ()))} | {f: 1}
            for f in self.free()
        ]


def span(rows, ncols: int) -> SparseRREF:
    """The subspace of K^ncols spanned by dense rows."""
    acc = SparseRREF(ncols)
    for row in rows:
        acc.insert(dict(enumerate(row)))
    return acc
