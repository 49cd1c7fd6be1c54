"""Identity checks on one integer table against the same scan in the algebra's own scalars.

`check_identity` scans a rational table over one denominator and a family
at one integer point (see its docstring).  The reference here runs `_scan`
on the algebra's own table, in int, Fraction or PolyQ arithmetic, and
reports as `check_identity` does: verdicts and counterexamples must be
equal, printed values included.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nassoc import algebras, corpus
from nassoc.algebras import AlgebraStructure, CheckResult, Counterexample, check_identity
from nassoc.exact.poly import PolyQ
from nassoc.structure import change_basis
from nassoc.systems import builtin_system
from nassoc.terms import Expr, Identity, IdentitySystem, degree, multilinearize, parse_system


def scalar_check(A, sys, mode="multilinear"):
    """check_identity with `_scan` on A's own table and every part as given."""
    parts = sys.identities
    if mode == "multilinear":
        parts = [lin for ident in parts for lin in multilinearize(ident)]
    for part in parts:
        found = algebras._scan(A.table, A.dim, part.expr.sorted_terms(), {}, {}, mode == "multilinear")
        if found:
            mono, k, total = found
            if mode == "multilinear":
                at, value = tuple(A.basis[e % A.dim] for e in mono), A.lift(total)
            else:
                at = tuple(f"g{v}" for v in range(1, part.nvars + 1))
                value = algebras._generic_value(A, part, k)
            return CheckResult(False, Counterexample(str(part), at, A.basis[k], str(value), mode))
    return CheckResult(True)


def assert_same_as_scalar(A, sys, modes=("multilinear", "symbolic")):
    verdicts = set()
    for mode in modes:
        got = check_identity(A, sys, mode)
        assert got == scalar_check(A, sys, mode), (A.name, sys.name, mode)
        verdicts.add(got.holds)
    return verdicts


def integer_check(A, parts):
    return algebras._integer_check(A, parts, {w: degree(w) for part in parts for w in part.expr.terms})


def dense_basis(n):
    return [[min(i, j) + 1 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# random tables and identities

PARAMETERS = ("alpha", "beta", "gamma")
WIDE = st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 10**6))


@st.composite
def wide_tables(draw):
    """Dimension 1-3 and 0-3 parameters; about half the constants are zero, the
    others have 1-3 terms of total degree at most 3 whose numerators and
    denominators reach 10**6.  At times the table is made commutative."""
    n, m = draw(st.sampled_from((1, 2, 3))), draw(st.sampled_from((0, 1, 2, 3)))
    params = PARAMETERS[:m]
    monomials = [e for e in itertools.product(range(4), repeat=m) if sum(e) <= 3]

    def constant():
        if draw(st.booleans()):
            return 0
        if not m:
            return draw(WIDE)
        return PolyQ(params, draw(st.lists(st.tuples(st.sampled_from(monomials), WIDE), min_size=1, max_size=3)))

    constants = [[[constant() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        constants = [[constants[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return AlgebraStructure("wide", n, constants, params)


def words(draw, degree, nvars):
    if degree == 1:
        return draw(st.integers(1, nvars))
    left = draw(st.integers(1, degree - 1))
    return (words(draw, left, nvars), words(draw, degree - left, nvars))


@st.composite
def random_systems(draw, homogeneous):
    """One identity of 1-4 words with wide coefficients, of one degree in 1-4 or
    of several; a word of degree d has at most d variables."""
    top = draw(st.integers(1, 4))
    nvars = draw(st.integers(1, top))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        degree = top if homogeneous else draw(st.integers(1, top))
        terms[words(draw, degree, min(nvars, degree))] = draw(WIDE)
    return IdentitySystem("random", [Identity(Expr(terms))])


@st.composite
def commutator_systems(draw):
    """c1 ((u v) - (v u)) + c2 ((s t) - (t s)) for random words: it holds on
    every commutative table, and its two halves may differ in degree."""
    terms = {}
    for _ in range(2):
        du, dv = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        u, v = words(draw, du, du + dv), words(draw, dv, du + dv)
        if u != v:
            c = draw(WIDE)
            terms[(u, v)], terms[(v, u)] = terms.get((u, v), 0) + c, terms.get((v, u), 0) - c
    expr = Expr(terms)
    return IdentitySystem("commutator", [Identity(expr if not expr.is_zero() else Expr({(1, 2): 1}))])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_path_agrees_with_the_scalar_path_on_random_tables(data):
    """Same verdict and Counterexample in both modes; identities of degree
    1-4, non-homogeneous ones in symbolic mode only."""
    A = data.draw(wide_tables())
    assert_same_as_scalar(A, data.draw(random_systems(True)))
    assert_same_as_scalar(A, data.draw(random_systems(False)), ("symbolic",))
    commutator = data.draw(commutator_systems())
    modes = ("multilinear", "symbolic") if commutator.identities[0].degree else ("symbolic",)
    assert_same_as_scalar(A, commutator, modes)


def test_integer_path_agrees_with_the_scalar_path_on_the_corpus():
    verdicts = set()
    for name in corpus.corpus_names():
        A = corpus.load_algebra(name)
        for B in (A, change_basis(A, dense_basis(A.dim))):
            for sys_name in ("as", "sas", "cas", "com-as"):
                verdicts |= assert_same_as_scalar(B, builtin_system(sys_name))
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# adversarial families


def test_family_failing_only_away_from_many_small_roots():
    """The only nonzero coordinate is alpha (alpha - 1) ... (alpha - (B - 2)) (alpha - 10**9),
    of the largest degree B the check allows: it vanishes at every small
    integer but B - 1 and B, and at 10**9, and the family still fails."""
    alpha = PolyQ.var("alpha")
    low, high = alpha * (alpha - 1) * (alpha - 2), (alpha - 3) * (alpha - 4) * (alpha - 10**9)
    # e1 e1 = low e2 and e2 e1 = high e3, so ((e1 e1) e1) = low * high e3
    constants = [[[0, low, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, high], [0, 0, 0], [0, 0, 0]], [[0] * 3] * 3]
    A = AlgebraStructure("roots", 3, constants, ("alpha",))
    nested = parse_system("left-nested", "((x1 x2) x3) = 0")
    assert algebras._integer_form(A).degree == 3  # so B = (3 - 1) * 3 = 6, the degree of low * high
    for mode in ("multilinear", "symbolic"):
        got = check_identity(A, nested, mode)
        assert not got.holds and got.counterexample.coordinate == "e3"
        assert got == scalar_check(A, nested, mode)
    assert check_identity(A, nested).counterexample.value == str(low * high)
    for root in (0, 1, 2, 3, 4, 10**9):
        assert check_identity(A.specialize({"alpha": root}), nested).holds
    for value in (5, 6):
        assert not check_identity(A.specialize({"alpha": value}), nested).holds


def test_two_parameter_coordinate_alpha_minus_beta_squared_fails():
    """alpha - beta^2 vanishes under any substitution that sends alpha to the
    square of beta's image; the Kronecker exponents keep them apart, in
    either order of the parameters."""
    alpha, beta = PolyQ.var("alpha"), PolyQ.var("beta")
    square = parse_system("square-zero", "(x1 x2) = 0")
    for params in (("alpha", "beta"), ("beta", "alpha")):
        A = AlgebraStructure("ab", 2, [[[0, alpha - beta**2], [0, 0]], [[0, 0], [0, 0]]], params)
        for mode in ("multilinear", "symbolic"):
            got = check_identity(A, square, mode)
            assert not got.holds
            assert got == scalar_check(A, square, mode)
        assert check_identity(A, square).counterexample.value == str(alpha - beta**2)
        assert check_identity(A.specialize({"alpha": 4, "beta": 2}), square).holds


def test_unused_parameter_scans_the_rational_table():
    """A table with an unused parameter z scans the integer table of the
    rational one, and reports what the rational table reports."""
    for name in ("a1", "A17", "dim5_nonassoc"):
        shipped = corpus.load_algebra(name)
        for A in (shipped, change_basis(shipped, dense_basis(shipped.dim))):
            twin = A.with_parameters(("z",))
            parts = list(builtin_system("sas").identities)
            assert algebras._integer_form(twin).used == ()
            assert integer_check(twin, parts) == integer_check(A, parts)
            for sys_name in ("as", "sas", "cas"):
                for mode in ("multilinear", "symbolic"):
                    got, want = check_identity(twin, builtin_system(sys_name), mode), check_identity(
                        A, builtin_system(sys_name), mode
                    )
                    assert got == want, (name, sys_name, mode)


def test_many_parameters_keep_their_polynomial_constants():
    """A generic mutation of the hull of a2 has 9 parameters in constants of
    degree 2, so a degree-3 check would need X ** (5 ** 8): it scans the
    PolyQ table, with the same results as the scalar path."""
    ext, p = algebras.unital_hull(corpus.load_algebra("a2")).generic_element("p")
    ext, q = ext.generic_element("q")
    A = algebras.mutation(ext, ext.element(p), q)
    parts = list(builtin_system("cas").identities)
    assert len(algebras._integer_form(A).used) == 9
    assert integer_check(A, parts)[0] is A.table
    for sys_name in ("cas", "com-as"):
        assert assert_same_as_scalar(A, builtin_system(sys_name)) == {False}
