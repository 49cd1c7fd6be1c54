"""Exact dense and sparse linear algebra.

`rref` is the one dense elimination: every dense rank, span, kernel, solve
and inverse in the package goes through it.  It works over any field whose
elements support +, -, *, / and compare equal to 0; callers pass explicit
zero/one elements for fields other than the rationals.  Pivoting is always
"first nonzero in column order" so results are deterministic.  A span is
stored as its RREF row list, `rref(vectors)[1]`, and `express` writes a
vector in terms of given vectors.  `det` eliminates separately because it
tracks the row swaps.  `bareiss_rank` is a fraction-free integer rank that
shares no code with `rref`; tests use it as an independent oracle.

The SparseRREF accumulator maintains a reduced row-echelon basis of a
growing subspace of Q^n with sparse rows; it is the workhorse behind the
consequence-space computations, where generated relations have very few
nonzero entries.  Their eliminations mostly meet pivots of +-1, so its rows
keep integral coefficients as `int` and use `Fraction` only where a
coefficient is not integral; what it returns is always `Fraction`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

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


def nullspace(matrix, ncols=None, zero=Q0, one=Q1):
    """Basis of the right kernel, one vector per free column, ascending.

    Each vector is scaled so that its first nonzero coordinate is +1.
    """
    if ncols is None:
        if not matrix:
            raise ValueError("empty matrix needs an explicit column count")
        ncols = len(matrix[0])
    if not matrix:
        matrix = [[zero] * ncols]
    pivots, rows = rref(matrix, zero, one)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = zero - rows[r][f]
        for x in v:
            if x != zero:
                inv = one / x
                v = [inv * y for y in v]
                break
        basis.append(v)
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


def express(vectors, target, zero=Q0, one=Q1):
    """Coefficients c with sum c[k] * vectors[k] == target, or None when the
    target lies outside the span.  Coefficients of vectors that depend on
    earlier ones are zero."""
    k = len(vectors)
    aug = [[v[i] for v in vectors] + [x] for i, x in enumerate(target)]
    pivots, rows = rref(aug, zero, one)
    if pivots and pivots[-1] == k:
        return None
    coeffs = [zero] * k
    for r, p in enumerate(pivots):
        coeffs[p] = rows[r][k]
    return coeffs


def inverse(matrix, zero=Q0, one=Q1):
    n = len(matrix)
    eye = [[one if i == j else zero for i in range(n)] for j in range(n)]
    cols = solve_right(matrix, eye, zero, one)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


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
    late ones.  Rows are kept fully reduced at all times.

    `rows` is internal: it stores an integral coefficient as an `int` and
    any other as a `Fraction`, so that relations whose eliminations meet
    only pivots of +-1 never leave integer arithmetic.  `reduce` and `basis`
    return `Fraction` values only.  `reduce` and `contains` reject a
    position outside [0, ncols) with ValueError; `insert` does not check,
    because its callers build their vectors in range.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int | Fraction]] = {}
        self.where: dict[int, set[int]] = {}  # non-pivot position -> pivots using it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check_positions(self, vec):
        if vec and (min(vec) < 0 or max(vec) >= self.ncols):
            bad = next(p for p in vec if not 0 <= p < self.ncols)
            raise ValueError(f"position {bad} is outside [0, {self.ncols})")

    def _reduce_internal(self, vec) -> dict[int, int | Fraction]:
        work = {p: c.numerator if c.denominator == 1 else c for p, c in vec.items() if c != 0}
        heap = sorted(work)
        heapq.heapify(heap)
        while heap:
            p = heapq.heappop(heap)
            c = work.get(p)
            if not c:
                continue
            row = self.rows.get(p)
            if row is None:
                continue
            del work[p]
            for q, rc in row.items():
                if q == p:
                    continue
                # the default must be the int 0: a Fraction default would
                # turn every integer entry back into a Fraction
                nv = work.get(q, 0) - c * rc
                if nv == 0:
                    work.pop(q, None)
                else:
                    if q not in work:
                        heapq.heappush(heap, q)
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
            row = {}
            for q, c in work.items():
                x = c * inv
                row[q] = x.numerator if x.denominator == 1 else x
        # keep existing rows fully reduced with respect to the new pivot
        users = self.where.pop(lead, None)
        if users:
            for p in sorted(users):
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
