"""Exact dense and sparse linear algebra.

Every elimination over Q runs on `SparseRREF`, which maintains a reduced
row-echelon basis of a growing subspace of Q^n with sparse rows.  Its rows
are kept fully reduced: each row is 1 at its own pivot and 0 at every other
pivot.  So reducing a vector is one pass, subtracting once the row of each
pivot the vector holds, and the residual lives on the free (non-pivot)
positions only.  Its eliminations mostly meet pivots of +-1, so its rows
keep integral coefficients as `int` and use `Fraction` only where a
coefficient is not integral; what it returns is always `Fraction`.  `span`
builds one from dense rows, and `nullspace`, `express` and `inverse` read
their answers off it: the kernel, coefficients in a span, and the inverse
from the RREF of [M | I].  `SparseRREF.kernel_of` goes the other way: from
functionals to the RREF of the subspace they annihilate, without
elimination over its rows.  Pivoting is always "first nonzero in column
order", and the reduced form is unique, so results are deterministic.

The dense `rref` and `solve_right` serve the rational function field Q(t)
of `moduli`; they work over any field whose elements support +, -, *, /
and compare equal to 0, with explicit zero/one elements.  `rref`, `det` and
`bareiss_rank`, a fraction-free integer rank that shares no code with
`SparseRREF`, remain as independent oracles for the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .poly import canonical

Q0 = Fraction(0)
Q1 = Fraction(1)


# ---------------------------------------------------------------------------
# dense matrices


def mat_copy(m):
    return [list(row) for row in m]


def rref(matrix, zero=Q0, one=Q1):
    """Reduced row echelon form; returns (pivot column list, row list)."""
    rows = mat_copy(matrix)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for j in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][j] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = one / rows[r][j]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][j] != zero:
                c = rows[i][j]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
    return pivots, rows[: len(pivots)]


def bareiss_rank(matrix) -> int:
    """Rank over Q by fraction-free elimination on a denominator-cleared copy."""
    rows = []
    for row in matrix:
        fr = [Fraction(x) for x in row]
        mult = 1
        for x in fr:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        rows.append([int(x * mult) for x in fr])
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    prev = 1
    r = 0
    for j in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][j] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][j]
        for i in range(r + 1, nrows):
            ri, rr = rows[i], rows[r]
            ci = ri[j]
            for k in range(j, ncols):
                ri[k] = (p * ri[k] - ci * rr[k]) // prev
        prev = p
        r += 1
    return r


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
        inv = Q1 / vec[min(vec)]
        basis.append([vec.get(i, Q0) * inv for i in range(ncols)])
    return basis


def solve_right(matrix, rhs_columns, zero=Q0, one=Q1):
    """Solve M X = B for X given B as a list of columns; M must be square invertible."""
    n = len(matrix)
    aug = [list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)]
    pivots, rows = rref(aug, zero, one)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    cols = []
    for k in range(len(rhs_columns)):
        cols.append([rows[i][n + k] for i in range(n)])
    return cols


def express(vectors, target):
    """Coefficients c with sum c[k] * vectors[k] == target, or None when the
    target lies outside the span.  Coefficients of vectors that depend on
    earlier ones are zero."""
    k = len(vectors)
    acc = span(([v[i] for v in vectors] + [x] for i, x in enumerate(target)), k + 1)
    if k in acc.rows:
        return None
    phi = acc.kernel()[-1]  # the functional of free column k
    return [-phi.get(p, Q0) for p in range(k)]


def inverse(matrix):
    """Inverse of a square rational matrix, read off the RREF of [M | I]."""
    n = len(matrix)
    acc = span(([*row] + [Q1 if i == j else Q0 for j in range(n)] for i, row in enumerate(matrix)), 2 * n)
    if any(p not in acc.rows for p in range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, Q0) for j in range(n)] for row in acc.basis()]


def det(matrix, zero=Q0, one=Q1):
    rows = mat_copy(matrix)
    n = len(rows)
    sign = 1
    result = one
    for j in range(n):
        pivot_row = None
        for i in range(j, n):
            if rows[i][j] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            return zero
        if pivot_row != j:
            rows[j], rows[pivot_row] = rows[pivot_row], rows[j]
            sign = -sign
        p = rows[j][j]
        result = result * p
        inv = one / p
        for i in range(j + 1, n):
            if rows[i][j] != zero:
                c = rows[i][j] * inv
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[j])]
    return result if sign == 1 else zero - result


# ---------------------------------------------------------------------------
# sparse incremental RREF over Q


class SparseRREF:
    """Reduced row-echelon basis of a growing subspace of Q^ncols.

    Vectors are dicts {position: rational}, positions in [0, ncols).  The
    pivot of a row is its smallest position, so the free positions are the
    late ones.  Rows are kept fully reduced at all times: no row has a
    nonzero at another row's pivot, and `where[q]` is the set of rows that
    use the free position q.  `insert` keeps this by subtracting the new row
    from every row in `where` of its pivot.  It is what makes `reduce` one
    pass, and it makes the residual of v on the free positions the values
    of the `kernel` functionals at v.

    `rows` is internal: it stores each coefficient in the form of
    `exact.poly.canonical`, an integral one as an `int`, so that relations
    whose eliminations meet only pivots of +-1 never leave integer
    arithmetic.  `reduce` and `basis` return `Fraction` values only.
    `reduce` and `contains` reject a position outside [0, ncols) with
    ValueError; `insert` does not check, because its callers build their
    vectors in range.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int | Fraction]] = {}
        self.where: dict[int, set[int]] = {}  # non-pivot position -> pivots using it

    @classmethod
    def kernel_of(cls, columns) -> "SparseRREF":
        """The RREF of ker Phi, the subspace of Q^ncols on which d independent
        functionals vanish, built without eliminating over its rows.

        columns[k] is the tuple of the d values of the functionals at
        position k, so ncols = len(columns) and Phi[:, k] = columns[k].
        Position f is free exactly when Phi[:, f] is independent of the
        columns right of it; every other position p gets the row
        e_p - sum_f (Phi_F^-1 Phi[:, p])_f e_f over the free positions F,
        which all lie right of p.  Equal columns share one tail, so pass
        their entries as `int` where integral: they are hashed.  The reduced
        form is unique, so `rows` and `where` are those that inserting any
        spanning set of the subspace would leave.
        """
        ncols = len(columns)
        d = len(columns[0]) if ncols else 0
        last = {col: p for p, col in enumerate(columns)}
        # only the last position of a column can be independent of those right of it
        found, free = cls(d), {}
        for col, p in sorted(last.items(), key=lambda item: item[1], reverse=True):
            if found.rank == d:
                break
            if found.insert(dict(enumerate(col))):
                free[p] = col
        if found.rank != d:
            raise ValueError(f"the {d} functionals span only {found.rank} dimensions")
        order = sorted(free)
        # row t of the RREF of [Phi_F | distinct columns] holds (Phi_F^-1 c)_t at c's place
        solved = span(([free[f][t] for f in order] + [c[t] for c in last] for t in range(d)), d + len(last))
        tails = {
            col: {f: -x for t, f in enumerate(order) if (x := solved.rows[t].get(d + k, 0))}
            for k, col in enumerate(last)
        }
        acc = cls(ncols)
        users = {f: set() for f in order}
        for p, col in enumerate(columns):
            if p not in free:
                tail = tails[col]
                row = acc.rows[p] = {p: 1}
                row.update(tail)
                for f in tail:
                    users[f].add(p)
        acc.where = {f: ps for f, ps in users.items() if ps}
        return acc

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check_positions(self, vec):
        if vec and (min(vec) < 0 or max(vec) >= self.ncols):
            bad = next(p for p in vec if not 0 <= p < self.ncols)
            raise ValueError(f"position {bad} is outside [0, {self.ncols})")

    def _reduce_internal(self, vec) -> dict[int, int | Fraction]:
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
                # the default must be the int 0: a Fraction default would
                # turn every integer entry back into a Fraction
                nv = work.get(q, 0) - c * rc
                if nv == 0:
                    del work[q]
                else:
                    work[q] = nv
        return work

    def reduce(self, vec) -> dict[int, Fraction]:
        """Residual of vec modulo the current subspace."""
        self._check_positions(vec)
        return {p: Fraction(c) for p, c in self._reduce_internal(vec).items()}

    def contains(self, vec) -> bool:
        self._check_positions(vec)
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
                        other[q] = nv
        self.rows[lead] = row
        for q in row:
            if q != lead:
                self.where.setdefault(q, set()).add(lead)
        return True

    def basis(self) -> list[dict[int, Fraction]]:
        """Rows as vectors of Fractions, sorted by pivot position."""
        return [{q: Fraction(c) for q, c in self.rows[p].items()} for p in sorted(self.rows)]

    def free(self) -> list[int]:
        """The non-pivot positions, ascending."""
        return [f for f in range(self.ncols) if f not in self.rows]

    def kernel(self) -> list[dict[int, Fraction]]:
        """Basis of the functionals that vanish on the subspace, one per free
        position f, ascending: 1 at f and -R[p][f] at each pivot p whose row
        uses f."""
        return [
            {p: -Fraction(self.rows[p][f]) for p in sorted(self.where.get(f, ()))} | {f: Q1}
            for f in self.free()
        ]


def span(rows, ncols: int) -> SparseRREF:
    """The subspace of Q^ncols spanned by dense rows."""
    acc = SparseRREF(ncols)
    for row in rows:
        acc.insert(dict(enumerate(row)))
    return acc
