"""Oracle tests for the one product routine, `algebras._product`.

`AlgebraStructure.mul`, `structure.constants_in_basis` and
`structure.is_leibniz_derivation` all multiply through it on the algebra's
sparse table.  Each is checked here against an independent reference that
multiplies the dense structure constants itself: a plain triple loop for
`mul`, a nested loop over constants and columns for the basis change, and
element-level evaluation of every bracketing for Leibniz derivations.
`mul` and the basis change must return the very same scalars, so the
comparison is of printed values, types and PolyQ variable tuples.
"""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nassoc.algebras import MAX_CHECK_EVALUATIONS, AlgebraStructure
from nassoc.corpus import load_algebra
from nassoc.errors import DegreeTooLarge
from nassoc.exact.linalg import solve_right, span
from nassoc.exact.poly import PolyQ
from nassoc.exact.ratfun import RatFunT
from nassoc.structure import constants_in_basis, derivation_algebra, is_leibniz_derivation
from nassoc.terms import build_word, shapes

SCALARS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Q(1, 2), Q(-3, 2)])


# ---------------------------------------------------------------------------
# references: dense products on the structure constants


def dense_mul(A, x, y):
    """x y by a triple loop over the dense constants, adding in (i, j, k) order."""
    n = A.dim
    out = [A.lift(0)] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            cij = A.constants[i][j]
            coef = xi * yj
            for k in range(n):
                if cij[k]:
                    out[k] = out[k] + coef * cij[k]
    return tuple(map(A.lift, out))


def nested_constants_in_basis(constants, columns):
    """The basis change by a loop over every nonzero constant and column pair."""
    n = len(columns)
    matrix = [[col[r] for col in columns] for r in range(n)]
    if span(matrix, n).rank < n:
        raise ValueError("matrix is singular")
    products = [[0] * n for _ in range(n * n)]
    for a, row in enumerate(constants):
        for b, vec in enumerate(row):
            for k, c in enumerate(vec):
                if not c:
                    continue
                for i, ci in enumerate(columns):
                    if not ci[a]:
                        continue
                    for j, cj in enumerate(columns):
                        if cj[b]:
                            products[i * n + j][k] += ci[a] * cj[b] * c
    solved = solve_right(matrix, products)
    return [solved[i * n : (i + 1) * n] for i in range(n)]


def _apply(A, M, x):
    return tuple(A.lift(sum(x[i] * M[k][i] for i in range(A.dim) if M[k][i])) for k in range(A.dim))


def _word(A, word, values):
    if isinstance(word, int):
        return values[word]
    return A.mul(_word(A, word[0], values), _word(A, word[1], values))


def element_leibniz(A, M, n, bracketing="all"):
    """D(w(a_1..a_n)) = sum_p w(.., D(a_p), ..) at every basis tuple, on elements."""
    for shape in shapes(n) if bracketing == "all" else (bracketing,):
        word = build_word(shape, range(n))
        for combo in itertools.product(range(1, A.dim + 1), repeat=n):
            elements = [A.basis_element(i) for i in combo]
            lhs = _apply(A, M, _word(A, word, dict(enumerate(elements))))
            rhs = A.zero_element()
            for pos in range(n):
                modified = dict(enumerate(elements))
                modified[pos] = _apply(A, M, elements[pos])
                rhs = A.add(rhs, _word(A, word, modified))
            if lhs != rhs:
                return False
    return True


def exact_form(values):
    """Each scalar as its printed value, its type and, for a PolyQ, its variable tuple."""
    return [(str(c), type(c).__name__, getattr(c, "vars", None)) for c in values]


# ---------------------------------------------------------------------------
# strategies


@st.composite
def tables(draw, dim=None, parameters=()):
    """Constants of dimension 1-3, each a rational plus, for each parameter, a rational times it."""
    n = dim or draw(st.integers(1, 3))
    names = [PolyQ.var(p) for p in parameters]

    def scalar():
        return sum((draw(SCALARS) * v for v in names), draw(SCALARS))

    return [[[scalar() for _ in range(n)] for _ in range(n)] for _ in range(n)]


@st.composite
def unit_triangular(draw, n, entry):
    """Unit lower times unit upper triangular, so the determinant is 1."""
    lower = [[entry(draw) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[entry(draw) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return [[sum((lower[i][k] * upper[k][j] for k in range(n)), 0) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# mul


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_matches_the_dense_loop_on_rational_tables(data):
    constants = data.draw(tables())
    A = AlgebraStructure("random", len(constants), constants)
    coords = st.lists(SCALARS, min_size=A.dim, max_size=A.dim)
    for _ in range(3):
        x, y = data.draw(coords), data.draw(coords)
        assert exact_form(A.mul(x, y)) == exact_form(dense_mul(A, x, y))


# elements whose coordinates are polynomials in different variable tuples,
# so that a sum realigns its variables and a cancelled sum keeps them
POLY_COORDS = st.sampled_from([
    0, 1, -1, Q(1, 2), PolyQ.var("u"), -PolyQ.var("u"), PolyQ.var("v"),
    PolyQ.var("u") - PolyQ.var("v"), PolyQ.var("v") + PolyQ.var("t"),
])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_matches_the_dense_loop_on_polynomial_families(data):
    constants = data.draw(tables(parameters=("t",)))
    A = AlgebraStructure("family", len(constants), constants, ("t",))
    coords = st.lists(POLY_COORDS, min_size=A.dim, max_size=A.dim)
    for _ in range(3):
        x, y = data.draw(coords), data.draw(coords)
        assert exact_form(A.mul(x, y)) == exact_form(dense_mul(A, x, y))


def test_mul_keeps_a_cancelled_sum_with_its_variables():
    # e1 e1 = t e1 and e2 e2 = -t e1, so (u, u)(v, v) = (t u v - t u v) e1
    t = PolyQ.var("t")
    A = AlgebraStructure("cancel", 2, [[[t, 0], [0, 0]], [[0, 0], [-t, 0]]], ("t",))
    u, v = PolyQ.var("u"), PolyQ.var("v")
    got = A.mul((u, u), (v, v))
    assert got == dense_mul(A, (u, u), (v, v))
    assert not got[0] and got[0].vars == ("u", "v", "t")
    assert not got[1] and got[1].vars == ()


# ---------------------------------------------------------------------------
# constants_in_basis


def assert_basis_change_matches(table, constants, columns):
    got, want = constants_in_basis(table, columns), nested_constants_in_basis(constants, columns)
    assert [[exact_form(vec) for vec in row] for row in got] == [[exact_form(vec) for vec in row] for row in want]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_basis_change_matches_the_nested_loop_over_q_and_q_alpha(data):
    parameters = ("alpha",) if data.draw(st.booleans()) else ()
    constants = data.draw(tables(parameters=parameters))
    A = AlgebraStructure("random", len(constants), constants, parameters)
    matrix = data.draw(unit_triangular(A.dim, lambda draw: draw(SCALARS)))
    columns = [[matrix[r][i] for r in range(A.dim)] for i in range(A.dim)]
    assert_basis_change_matches(A.table, A.constants, columns)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_basis_change_matches_the_nested_loop_over_q_t(data):
    """Columns over Q(t) on constants over Q(t), as moduli.transform makes
    them from a family at alpha := a + b t."""
    constants = data.draw(tables(dim=data.draw(st.integers(1, 2)), parameters=("alpha",)))
    n = len(constants)
    t = RatFunT.t()
    alpha = RatFunT(data.draw(SCALARS)) + RatFunT(data.draw(SCALARS)) * t
    dense = [[[RatFunT(0) + c.eval({"alpha": alpha}) for c in vec] for vec in row] for row in constants]
    matrix = data.draw(unit_triangular(n, lambda draw: RatFunT(draw(SCALARS)) + RatFunT(draw(SCALARS)) * t))
    columns = [[RatFunT(0) + matrix[r][i] for r in range(n)] for i in range(n)]
    table = [[[(k, c) for k, c in enumerate(vec) if c] for vec in row] for row in dense]
    assert_basis_change_matches(table, dense, columns)


def test_basis_change_matches_the_nested_loop_on_the_corpus():
    for name in ("A05", "A17", "a12", "dim5_nonassoc"):
        A = load_algebra(name)
        columns = [[min(i, r) + 1 for r in range(A.dim)] for i in range(A.dim)]  # determinant 1
        assert_basis_change_matches(A.table, A.constants, columns)


# ---------------------------------------------------------------------------
# Leibniz derivations


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leibniz_matches_element_evaluation(data):
    parametric = data.draw(st.booleans())
    constants = data.draw(tables(parameters=("t",) if parametric else ()))
    A = AlgebraStructure("random", len(constants), constants, ("t",) if parametric else ())
    n = A.dim
    M = [[data.draw(SCALARS) for _ in range(n)] for _ in range(n)]
    if not parametric and data.draw(st.booleans()):
        # a derivation, so that the order-2 check holds and higher ones are exercised
        der = derivation_algebra(A).matrices
        M = [[sum((d[k][i] for d in der), 0) for i in range(n)] for k in range(n)]
    order = data.draw(st.integers(1, 4 if n < 3 else 3))
    bracketing = data.draw(st.sampled_from(("all",) + shapes(order)))
    assert is_leibniz_derivation(A, M, order, bracketing) == element_leibniz(A, M, order, bracketing)


def test_leibniz_matches_element_evaluation_on_the_corpus():
    for name in ("A04", "a1", "a13", "A17"):
        A = load_algebra(name)
        n = A.dim
        for M in derivation_algebra(A).matrices + [[[int(i == k) for i in range(n)] for k in range(n)]]:
            for order in (2, 3):
                for bracketing in ("all",) + shapes(order):
                    want = element_leibniz(A, M, order, bracketing)
                    assert is_leibniz_derivation(A, M, order, bracketing) == want, (name, M, order)


def test_leibniz_refuses_too_many_evaluations_before_work():
    A = load_algebra("a1")
    eye = [[int(i == k) for i in range(3)] for k in range(3)]
    # 1430 bracketings on 3^9 tuples, each evaluated once per side and position
    with pytest.raises(DegreeTooLarge, match="^Leibniz check of order 9 on a1 needs 281466900 word evaluations"):
        is_leibniz_derivation(A, eye, 9)
    # a single bracketing of order 12 is 3^12 * 13 evaluations, an order too large
    assert 3**12 * 13 > MAX_CHECK_EVALUATIONS
    comb = 0
    for _ in range(11):
        comb = (0, comb)
    with pytest.raises(DegreeTooLarge):
        is_leibniz_derivation(A, eye, 12, comb)
    # an order whose bracketings would take long to list is refused from their count
    with pytest.raises(DegreeTooLarge):
        is_leibniz_derivation(A, eye, 40)
    assert is_leibniz_derivation(A, eye, 3)
