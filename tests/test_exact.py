"""Tests for the exact arithmetic layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nassoc.algebras import AlgebraStructure
from nassoc.errors import PoleAtZero, SingularForAllT, TruncationMismatch
from nassoc.exact import (
    PolyQ,
    RatFunT,
    SeriesQ,
    compose_series,
    express,
    inverse,
    nullspace,
)
from nassoc.exact.linalg import bareiss_rank, rref, solve_right, span
from nassoc.exact.poly import canonical
from nassoc.moduli import ParamBasis, transform
from nassoc.operads import MultilinearSpace, _perms_lex
from nassoc.systems import builtin_system

Q = Fraction


# ---------------------------------------------------------------------------
# nullspace / rank


def test_nullspace_rank_one_symmetric():
    basis = nullspace([[Q(1), Q(1)], [Q(1), Q(1)]])
    assert basis == [[Q(1), Q(-1)]]


def test_nullspace_identity_empty():
    eye = [[Q(i == j) for j in range(3)] for i in range(3)]
    assert nullspace(eye) == []


def _sas_degree3_relation_matrix():
    """The six relabelings of (x1 x2) x3 - x2 (x3 x1) as rows over the
    12 degree-3 multilinear monomials."""
    space = MultilinearSpace(3)
    sas = builtin_system("sas")
    rows = []
    for perm in _perms_lex(3):
        mapping = {i + 1: perm[i] for i in range(3)}
        vec = space.expr_to_vec(sas.identities[0].expr.relabel(mapping))
        rows.append([vec.get(i, Q(0)) for i in range(12)])
    return rows


def test_pairing_matrix_kernel_dimension():
    rows = _sas_degree3_relation_matrix()
    kernel = nullspace(rows)
    assert len(kernel) == 6
    # independent oracle: fraction-free elimination on the integer matrix
    assert bareiss_rank(rows) == 6
    for v in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def _rational(data):
    return Q(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))


def _rows_with_dependencies(data, nrows, ncols):
    """nrows random rational rows, some of them combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        if rows and data.draw(st.booleans()):
            coeffs = [_rational(data) for _ in rows]
            rows.append([sum((c * r[i] for c, r in zip(coeffs, rows)), Q(0)) for i in range(ncols)])
        else:
            rows.append([_rational(data) for _ in range(ncols)])
    return rows


def dense_nullspace(matrix, ncols):
    """Reference kernel from the dense RREF: one vector per free column,
    scaled so that its first nonzero coordinate is +1."""
    pivots, rows = rref(matrix)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        lead = next(x for x in v if x)
        basis.append([x / lead for x in v])
    return basis


def dense_express(vectors, target):
    """Reference coefficients from the dense RREF of [vectors | target]."""
    k = len(vectors)
    pivots, rows = rref([[v[i] for v in vectors] + [x] for i, x in enumerate(target)])
    if k in pivots:
        return None
    coeffs = [Q(0)] * k
    for r, p in enumerate(pivots):
        coeffs[p] = rows[r][k]
    return coeffs


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 4),
    st.data(),
)
def test_rank_nullity(nrows, ncols, data):
    matrix = _rows_with_dependencies(data, nrows, ncols)
    kernel = nullspace(matrix)
    assert bareiss_rank(matrix) + len(kernel) == ncols
    for v in kernel:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in matrix)
    assert kernel == dense_nullspace(matrix, ncols)
    assert all(type(x) is int or (type(x) is Q and x.denominator != 1) for v in kernel for x in v)


def test_nullspace_deterministic():
    m = [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)]]
    assert nullspace(m) == nullspace(m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_express_round_trip_and_outside(data):
    vectors = [[Q(1), Q(2), Q(0), Q(1)], [Q(0), Q(1), Q(-1), Q(3)], [Q(1), Q(3), Q(-1), Q(4)]]
    coeffs = [Q(2, 3), Q(-5)]
    target = [coeffs[0] * a + coeffs[1] * b for a, b in zip(vectors[0], vectors[1])]
    got = express(vectors, target)
    # the third vector is the sum of the first two, so its coefficient is 0
    assert got == coeffs + [Q(0)]
    assert [sum(c * v[i] for c, v in zip(got, vectors)) for i in range(4)] == target
    assert express(vectors, [Q(0), Q(0), Q(0), Q(1)]) is None
    assert express([], [Q(0), Q(0)]) == []
    assert express([], [Q(0), Q(1)]) is None

    # random vectors with dependencies, against the dense reference
    dim = data.draw(st.integers(1, 4))
    vectors = _rows_with_dependencies(data, data.draw(st.integers(1, 4)), dim)
    if data.draw(st.booleans()):
        coeffs = [_rational(data) for _ in vectors]
        target = [sum((c * v[i] for c, v in zip(coeffs, vectors)), Q(0)) for i in range(dim)]
    else:
        target = [_rational(data) for _ in range(dim)]
    got = express(vectors, target)
    assert got == dense_express(vectors, target)
    if got is not None:
        assert all(type(c) is int or (type(c) is Q and c.denominator != 1) for c in got)
        assert [sum(c * v[i] for c, v in zip(got, vectors)) for i in range(dim)] == target
        # a vector in the span of earlier ones gets coefficient 0
        for k in range(len(vectors)):
            if bareiss_rank(vectors[: k + 1]) == bareiss_rank(vectors[:k]):
                assert got[k] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_inverse_on_random_matrices(n, data):
    matrix = _rows_with_dependencies(data, n, n)
    if bareiss_rank(matrix) < n:
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(matrix)
        return
    inv = inverse(matrix)
    eye = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    assert [[sum(matrix[i][t] * inv[t][j] for t in range(n)) for j in range(n)] for i in range(n)] == eye
    assert all(type(x) is int or (type(x) is Q and x.denominator != 1) for row in inv for x in row)


# ---------------------------------------------------------------------------
# rational functions of t


def test_limit_cancels_pole():
    f = RatFunT([0, 1, 1], [0, 1])  # (t + t^2)/t
    assert f.value_at_zero() == 1


def test_limit_zero_numerator():
    f = RatFunT([0, 0, 0, 1], [1, 1])  # t^3/(1+t)
    assert f.value_at_zero() == 0


def test_limit_pole():
    with pytest.raises(PoleAtZero):
        RatFunT([1], [0, 1]).value_at_zero()  # 1/t


def test_ratfun_field():
    f = RatFunT([1, 2], [1, 0, 3])
    g = RatFunT([0, 5, 1], [2])
    assert (f * g) / g == f
    assert f - f == RatFunT(0)
    assert (f / g) * g == f


def test_ratfun_monic_denominator():
    f = RatFunT([2], [0, 4])  # 2/(4t) -> (1/2)/t
    assert f.den == PolyQ.var("t")
    assert f.num == PolyQ.const(Q(1, 2))


def test_ratfun_eval():
    f = RatFunT([0, 1], [1, 1])  # t/(1+t)
    assert f.eval_at(1) == Q(1, 2)


def test_ratfun_from_polyq_keeps_fraction_coefficients():
    # PolyQ stores 1 and 2 as int; dividing by the leading 2 must not make a float
    t = PolyQ.var("t")
    f = RatFunT(PolyQ.const(1) + t, 2 * t + 4)
    assert str(f) == "(1/2*t + 1/2)/(t + 2)"
    coeffs = [*f.num.terms.values(), *f.den.terms.values()]
    assert all(type(c) is int or (type(c) is Q and c.denominator != 1) for c in coeffs)


def test_ratfun_constant_hashes_like_its_fraction():
    assert RatFunT.const(1) == 1
    assert len({RatFunT.const(1), 1}) == 1
    assert len({RatFunT.const(Q(-2, 3)), Q(-2, 3)}) == 1
    assert len({RatFunT(0), 0}) == 1


def test_floats_are_refused_in_t_and_in_series():
    """A float would enter as its binary expansion, 0.1 as 3602879701896397/2^55."""
    for build in (RatFunT, RatFunT.const, lambda c: SeriesQ(2, [Q(1, 2), c])):
        with pytest.raises(TypeError):
            build(0.1)
    assert str(RatFunT.const(Q(1, 10))) == "1/10"
    assert str(SeriesQ(2, [Q(1, 2), Q(1, 10)])) == "1/2*t + 1/10*t^2"


@pytest.mark.parametrize(
    "f, text",
    [
        (RatFunT([0, 1], [1, 1]), "(t)/(t + 1)"),
        (RatFunT([-1], [0, 1]), "(-1)/(t)"),
        (RatFunT(PolyQ.const(1) + PolyQ.var("t"), 2 * PolyQ.var("t") + 4), "(1/2*t + 1/2)/(t + 2)"),
        (RatFunT.const(Q(1, 10)), "1/10"),
        (RatFunT([1, 0, -2], [3, 1]), "(-2*t^2 + 1)/(t + 3)"),
        (RatFunT([Q(-1, 2), 0, 0, -3]), "-3*t^3 - 1/2"),
        (RatFunT([3], [0, 0, 6]), "1/2/(t^2)"),
        (RatFunT([-3], [2, 4]), "(-3/4)/(t + 1/2)"),
        (RatFunT([0, 2], [0, 0, 4]), "1/2/(t)"),
        (RatFunT(0, [0, 5]), "0"),
    ],
)
def test_ratfun_printing_is_pinned(f, text):
    """A numerator is parenthesized when it has positive degree or is a
    negative constant; a denominator when it has positive degree."""
    assert str(f) == text


def _coeffs(p):
    """The coefficients c0, c1, ... of a numerator or denominator of a RatFunT."""
    return [p.terms.get((i,), 0) for i in range(p.total_degree() + 1)] if p else []


def _coprime(a, b) -> bool:
    """gcd(a, b) has degree 0, read off the Sylvester matrix: it is
    nonsingular exactly when a and b share no root."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return bareiss_rank(rows) == m + n


SMALL_Q = st.sampled_from([0, 0, 1, -1, 2, -3, Q(1, 2), Q(-2, 3)])


@st.composite
def _small_ratfun(draw):
    num = draw(st.lists(SMALL_Q, max_size=3))
    den = draw(st.lists(SMALL_Q, min_size=1, max_size=3).filter(any))
    return RatFunT(num, den)


def _assert_reduced(f):
    num, den = _coeffs(f.num), _coeffs(f.den)
    assert den and den[-1] == 1
    assert _coprime(num, den) if num else den == [1]
    if den[0] != 0:
        assert f.value_at_zero() == f.eval_at(0)
    else:
        with pytest.raises(PoleAtZero):
            f.value_at_zero()


@settings(max_examples=60, deadline=None)
@given(_small_ratfun(), _small_ratfun(), st.integers(-2, 3), st.lists(SMALL_Q, min_size=1, max_size=4))
def test_ratfun_arithmetic_agrees_with_evaluation(f, g, k, points):
    """+, -, *, / and ** commute with evaluation at points away from poles,
    and every result is reduced with a monic denominator."""
    results = {"+": f + g, "-": f - g, "*": f * g, "**": None, "/": None}
    if g:
        results["/"] = f / g
    if f or k >= 0:
        results["**"] = f**k
    for h in [f, g, *results.values()]:
        if h is not None:
            _assert_reduced(h)
    for x in points:
        try:
            fx, gx = f.eval_at(x), g.eval_at(x)
        except ZeroDivisionError:
            continue
        assert results["+"].eval_at(x) == fx + gx
        assert results["-"].eval_at(x) == fx - gx
        assert results["*"].eval_at(x) == fx * gx
        if gx:
            assert results["/"].eval_at(x) == fx / gx
        if fx or k >= 0:
            assert results["**"].eval_at(x) == fx**k


# ---------------------------------------------------------------------------
# truncated series


def _series(coeffs):
    return SeriesQ(len(coeffs), [Q(c) for c in coeffs])


def test_compose_self_dual_series():
    h = _series([-1, 1, -1, Q(1, 2), Q(-1, 120)])
    out = compose_series(h, h)
    assert out == _series([1, 0, 0, 0, Q(61, 60)])


def test_compose_identity_left():
    g = _series([2, 0, 5, -1, Q(1, 3)])
    assert compose_series(SeriesQ.identity(5), g) == g


def test_compose_second_pair():
    f = _series([-1, 1, -1, Q(1, 2), Q(-1, 6)])
    g = _series([-1, 1, -1, Q(1, 2), 0])
    assert compose_series(f, g) == _series([1, 0, 0, 0, Q(7, 6)])


def test_compose_truncation_mismatch():
    with pytest.raises(TruncationMismatch):
        compose_series(_series([1, 0]), _series([1, 0, 0]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_associative(data):
    n = 5
    def rand():
        return _series([data.draw(st.integers(-2, 2)) for _ in range(n)])
    f, g, h = rand(), rand(), rand()
    assert compose_series(f, compose_series(g, h)) == compose_series(compose_series(f, g), h)


# ---------------------------------------------------------------------------
# polynomials


def test_poly_arithmetic_and_order():
    a = PolyQ.var("alpha")
    b = PolyQ.var("beta")
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    assert str(a * a - 1) == "alpha^2 - 1"
    assert str(PolyQ.zero()) == "0"


def test_poly_subs_and_eval():
    a = PolyQ.var("alpha")
    p = a ** 2 - 1
    assert p.subs({"alpha": Q(3)}) == PolyQ.const(8)
    assert p.eval({"alpha": Q(3)}) == 8


def test_poly_constant_hashes_like_its_fraction():
    assert PolyQ.const(1) == 1
    assert len({PolyQ.const(1), 1}) == 1
    # the declared variables do not matter once none of them occurs
    assert len({PolyQ.const(Q(1, 2), ("alpha",)), Q(1, 2)}) == 1
    assert len({PolyQ.zero(("alpha", "beta")), 0}) == 1


_POLY_VARS = ("a", "b", "c")


@st.composite
def _poly(draw):
    """(PolyQ, its raw pairs): up to three variables in a drawn order, and
    pairs whose exponent tuples repeat, so the constructor has sums to collect."""
    names = draw(st.permutations(_POLY_VARS))[: draw(st.integers(0, 3))]
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    coeff = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    monomials = draw(st.lists(exps, min_size=1, max_size=3))
    pairs = draw(st.lists(st.tuples(st.sampled_from(monomials), coeff), max_size=6))
    return PolyQ(names, pairs), names, pairs


def _raw_value(names, pairs, env):
    total = Q(0)
    for exps, c in pairs:
        for v, e in zip(names, exps):
            c *= env[v] ** e
        total += c
    return total


@settings(max_examples=150, deadline=None)
@given(
    _poly(),
    _poly(),
    st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3, max_size=3),
    st.permutations(_POLY_VARS),
)
def test_poly_operations_agree_with_evaluation(pp, qq, point, ctx):
    """On overlapping, permuted variable tuples: the constructor, +, -, *, /
    and on_vars agree with evaluation at a rational point and store no zero
    and no integral Fraction."""
    (p, p_names, p_pairs), (q, _, _) = pp, qq
    env = dict(zip(_POLY_VARS, point))
    pv, qv = p.eval(env), q.eval(env)
    ctx = tuple(ctx)
    for r, value in (
        (p, _raw_value(p_names, p_pairs, env)),
        (p + q, pv + qv),
        (p - q, pv - qv),
        (p * q, pv * qv),
        (p.on_vars(ctx), pv),
        (p / Q(2, 3), pv * Q(3, 2)),
    ):
        assert r.eval(env) == value
        assert 0 not in r.terms.values()
        # an integral coefficient is an int, any other a Fraction
        assert all(type(c) is int or (type(c) is Q and c.denominator != 1) for c in r.terms.values())
    assert p.on_vars(ctx).vars == ctx
    assert (p - p).is_zero()


def test_poly_graded_lex_printing():
    a, b = PolyQ.var("a"), PolyQ.var("b")
    p = a + b + a * a * b
    assert str(p) == "a^2*b + a + b"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_rref_matches_dense(data):
    """The incremental sparse eliminator agrees with dense reduction."""
    from nassoc.exact import SparseRREF

    ncols = data.draw(st.integers(3, 7))
    nrows = data.draw(st.integers(1, 8))
    rows = []
    for _ in range(nrows):
        row = [Q(0)] * ncols
        for _ in range(data.draw(st.integers(1, 3))):
            row[data.draw(st.integers(0, ncols - 1))] = Q(
                data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 2))
            )
        rows.append(row)
    acc = SparseRREF(ncols)
    for row in rows:
        acc.insert({i: c for i, c in enumerate(row) if c != 0})
    pivots, dense = rref(rows)
    assert acc.rank == len(pivots)
    assert sorted(acc.rows) == pivots
    # the echelon bases span the same space and are identical as reduced rows
    sparse_rows = acc.basis()
    for dr, sr in zip(dense, sparse_rows):
        assert {i: c for i, c in enumerate(dr) if c != 0} == sr
    # membership agrees with dense rank growth
    probe = [Q(0)] * ncols
    probe[data.draw(st.integers(0, ncols - 1))] = Q(1)
    grew = len(rref(rows + [probe])[0]) > len(pivots)
    assert acc.contains({i: c for i, c in enumerate(probe) if c != 0}) == (not grew)


def _mixed_scalar(draw, pivot: bool):
    """An int, an integral Fraction or (off the pivot) a non-integral Fraction."""
    if pivot:
        value = draw(st.sampled_from([Q(1), Q(-1), Q(2), Q(-2), Q(3, 2)]))
    else:
        value = Q(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 1, 2, 3])))
    if value.denominator == 1 and draw(st.booleans()):
        return value.numerator
    return value


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sparse_rref_mixed_scalars(data):
    """int and Fraction inputs, pivots +-1, +-2 and 3/2: the sparse rows equal
    the dense Fraction RREF and the public results are Fractions."""
    from nassoc.exact import SparseRREF

    draw = data.draw
    ncols = draw(st.integers(3, 7))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        lead = draw(st.integers(0, ncols - 1))
        row = {lead: _mixed_scalar(draw, pivot=True)}
        for i in range(lead + 1, ncols):
            if draw(st.booleans()):
                row[i] = _mixed_scalar(draw, pivot=False)
        rows.append({i: c for i, c in row.items() if c != 0})
    acc = SparseRREF(ncols)
    for row in rows:
        acc.insert(row)
    matrix = [[Q(row.get(i, 0)) for i in range(ncols)] for row in rows]
    pivots, dense = rref(matrix)
    assert acc.rows == {p: {i: c for i, c in enumerate(dr) if c != 0} for p, dr in zip(pivots, dense)}
    # the fully reduced invariant that makes reduction one pass: no row has a
    # nonzero at another row's pivot, and where[q] is the set of rows using q
    used = {}
    for p, row in acc.rows.items():
        assert not (row.keys() - {p}) & acc.rows.keys()
        for q in row.keys() - {p}:
            used.setdefault(q, set()).add(p)
    assert {q: ps for q, ps in acc.where.items() if ps} == used
    assert acc.free() == sorted(set(range(ncols)) - acc.rows.keys())
    for phi in acc.kernel():
        for row in acc.rows.values():
            assert sum(c * row.get(i, 0) for i, c in phi.items()) == 0
    basis = acc.basis()
    assert all(type(c) is int or (type(c) is Q and c.denominator != 1) for vec in basis for c in vec.values())
    # rows hold integral entries as int
    assert all(type(c) is int for row in acc.rows.values() for c in row.values() if Q(c).denominator == 1)

    probe = {i: _mixed_scalar(draw, pivot=False) for i in range(ncols) if draw(st.booleans())}
    dense_probe = [Q(probe.get(i, 0)) for i in range(ncols)]
    residual = list(dense_probe)
    for p, dr in zip(pivots, dense):
        residual = [a - dense_probe[p] * b for a, b in zip(residual, dr)]
    got = acc.reduce(probe)
    assert got == {i: c for i, c in enumerate(residual) if c != 0}
    assert all(type(c) is int or (type(c) is Q and c.denominator != 1) for c in got.values())
    grew = len(rref(matrix + [dense_probe])[0]) > len(pivots)
    assert acc.contains(probe) == (not grew)


# ---------------------------------------------------------------------------
# elimination over Q(t): the same SparseRREF, the dense rref as its oracle


def test_canonical_forms():
    assert canonical(3) == 3 and type(canonical(3)) is int
    assert canonical(Q(6, 2)) == 3 and type(canonical(Q(6, 2))) is int
    half = Q(1, 2)
    assert canonical(half) is half
    f = RatFunT([1, 2], [3, 1])
    assert canonical(f) is f
    assert canonical(RatFunT.const(2)).__class__ is RatFunT


def _ratfun(draw):
    """0, a constant, a polynomial in t of degree at most 2, or a ratio of
    two such."""

    def coeffs():
        return [draw(st.integers(-2, 2)) for _ in range(draw(st.integers(0, 3)))]

    num = coeffs()
    den = coeffs() if draw(st.booleans()) else [1]
    return RatFunT(num, den if any(den) else [1])


def _ratfun_matrix(draw, nrows, ncols):
    """Random entries; with some chance the last row is a Q(t) combination of
    the others, so singular and rank-deficient cases come often."""
    rows = [[_ratfun(draw) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        mults = [_ratfun(draw) for _ in range(nrows - 1)]
        rows[-1] = [sum((m * row[j] for m, row in zip(mults, rows)), RatFunT(0)) for j in range(ncols)]
    return rows


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_rref_over_qt_matches_dense(data):
    draw = data.draw
    ncols = draw(st.integers(1, 5))
    rows = _ratfun_matrix(draw, draw(st.integers(1, 4)), ncols)
    acc = span(rows, ncols)
    pivots, dense = rref(rows)
    assert acc.rank == len(pivots)
    # the RREF is unique, so the rows agree entry for entry
    assert acc.basis() == [{i: c for i, c in enumerate(dr) if c != 0} for dr in dense]
    assert all(type(c) is RatFunT for vec in acc.basis() for c in vec.values())
    for phi in acc.kernel():
        for row in rows:
            assert sum((c * row[i] for i, c in phi.items()), RatFunT(0)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_solve_right_over_qt(n, k, data):
    draw = data.draw
    matrix = _ratfun_matrix(draw, n, n)
    rhs = [[_ratfun(draw) for _ in range(n)] for _ in range(k)]
    # a zero-constant algebra: transform solves M X = 0 for each product
    algebra = AlgebraStructure("zero", n, [[[0] * n for _ in range(n)] for _ in range(n)])
    columns = [[matrix[r][i] for r in range(n)] for i in range(n)]
    pivots, dense = rref([row + [col[i] for col in rhs] for i, row in enumerate(matrix)])
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError, match="matrix is singular"):
            solve_right(matrix, rhs)
        with pytest.raises(SingularForAllT):
            transform(algebra, ParamBasis(columns))
        return
    solved = solve_right(matrix, rhs)
    assert solved == [[dense[i][n + j] for i in range(n)] for j in range(k)]
    for x, b in zip(solved, rhs):
        assert [sum((matrix[i][s] * x[s] for s in range(n)), RatFunT(0)) for i in range(n)] == b
    # a missing entry comes back as the zero of Q(t), not as a rational 0
    assert all(type(c) is RatFunT for col in solved for c in col)
    out = transform(algebra, ParamBasis(columns))
    assert all(type(c) is RatFunT and str(c) == "0" for row in out for vec in row for c in vec)
