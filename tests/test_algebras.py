"""Tests for structure-constant algebras, identity checks, and constructions."""

import gc
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nassoc import corpus, reproduce
from nassoc.algebras import (
    AlgebraStructure,
    check_identity,
    compatible_check,
    kantor_square,
    minus_algebra,
    mutation,
    plus_algebra,
    scalar_mutation,
    sum_algebra,
    unital_hull,
)
from nassoc.corpus import load_algebra
from nassoc.errors import DegreeTooLarge, ParameterClash
from nassoc.exact.poly import PolyQ
from nassoc.freealg import sas_normal_form
from nassoc.moduli import orbit_dim
from nassoc.structure import change_basis, fingerprint, wedderburn
from nassoc.systems import builtin_system
from nassoc.terms import build_word, leaves, multilinearize, parse_expr, parse_system

Q = Fraction


def zero_algebra(n):
    consts = [[[PolyQ.zero()] * n for _ in range(n)] for _ in range(n)]
    return AlgebraStructure("zero", n, consts)


# ---------------------------------------------------------------------------
# identity checking


def test_family_is_shift_associative_in_both_modes():
    a2 = load_algebra("a2")
    assert check_identity(a2, builtin_system("sas"), "multilinear").holds
    assert check_identity(a2, builtin_system("sas"), "symbolic").holds


def test_minimal_nonassociative_example():
    dim5 = load_algebra("dim5_nonassoc")
    assert check_identity(dim5, builtin_system("sas")).holds
    res = check_identity(dim5, builtin_system("as"))
    assert not res.holds
    assert res.counterexample.tuple_labels == ("e1", "e2", "e1")
    assert res.counterexample.coordinate == "e5"


def test_commutative_associative_is_shift_associative():
    a17 = load_algebra("A17")
    assert check_identity(a17, builtin_system("sas")).holds
    assert check_identity(a17, builtin_system("cas")).holds


def test_symbolic_mode_counterexample():
    dim5 = load_algebra("dim5_nonassoc")
    res = check_identity(dim5, builtin_system("as"), "symbolic")
    assert not res.holds
    assert res.counterexample.mode == "symbolic"
    assert check_identity(dim5, builtin_system("sas"), "symbolic").holds
    # the order of the variables in a printed value comes out of the arithmetic
    dim5_value = (res.counterexample.coordinate, res.counterexample.value)
    assert dim5_value == ("e5", "g1_1*g2_2*g3_1 - g3_1*g1_2*g2_1")
    hull = check_identity(unital_hull(load_algebra("a2")), builtin_system("sas"), "symbolic").counterexample
    assert (hull.coordinate, hull.value) == (
        "e3",
        "2*g2_1*g1_2*g3_3 - 2*g2_1*g3_2*g1_3 - 2*g2_2*g1_3*g3_1 + 2*g1_2*g2_3*g3_1",
    )


def test_calls_leave_no_reference_cycles():
    """Recursive helpers take their context as arguments instead of closing
    over it, so these calls free what they build by reference counting."""
    dim5, a17 = load_algebra("dim5_nonassoc"), load_algebra("A17")
    calls = [
        lambda: check_identity(dim5, builtin_system("as"), "symbolic"),
        lambda: wedderburn(a17),
        lambda: build_word(((0, 0), 0), (1, 2, 3)),
        lambda: sas_normal_form(parse_expr("((x1 x1) x2) - (x1 (x1 x2))")),
    ]
    for call in calls:  # fill the module caches first
        call()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the compiled multilinear check against a plain evaluation of every word


def _oracle_word(A, word, assignment, cache):
    """The element value of a word with variable v bound to basis vector assignment[v] (1-based)."""
    key = (word, tuple(assignment[v] for v in leaves(word)))
    got = cache.get(key)
    if got is not None:
        return got
    if isinstance(word, int):
        val = A.basis_element(assignment[word])
    else:
        val = A.mul(_oracle_word(A, word[0], assignment, cache), _oracle_word(A, word[1], assignment, cache))
    cache[key] = val
    return val


def oracle_check(A, sys):
    """Multilinear check through A.mul, word by word: (holds, counterexample string)."""
    cache = {}
    for ident in sys.identities:
        for lin in multilinearize(ident):
            words = lin.expr.sorted_terms()
            for combo in itertools.product(range(1, A.dim + 1), repeat=lin.nvars):
                assignment = {v + 1: combo[v] for v in range(lin.nvars)}
                acc = [A.lift(0)] * A.dim
                for w, c in words:
                    val = _oracle_word(A, w, assignment, cache)
                    for k in range(A.dim):
                        if val[k]:
                            acc[k] = acc[k] + c * val[k]
                for k in range(A.dim):
                    if acc[k]:
                        labels = ", ".join(A.basis[i - 1] for i in combo)
                        return False, f"{lin} fails at ({labels}): coefficient of {A.basis[k]} is {acc[k]}"
    return True, "None"


def assert_matches_oracle(A, sys):
    got = check_identity(A, sys)
    assert (got.holds, str(got.counterexample)) == oracle_check(A, sys), (A.name, sys.name)
    return got.holds


def _generic_word(A, word, values):
    """The element value of a word with variable v bound to the element values[v]."""
    if isinstance(word, int):
        return values[word]
    return A.mul(_generic_word(A, word[0], values), _generic_word(A, word[1], values))


def symbolic_oracle_check(A, sys):
    """Symbolic check through generic elements and A.mul: (holds, counterexample string).

    Every coordinate is a PolyQ, so the printed variable order is the one
    the PolyQ sums and products of a dense evaluation give."""
    for ident in sys.identities:
        ext, values = A, {}
        for v in range(1, ident.nvars + 1):
            ext, values[v] = ext.generic_element(f"g{v}")
        acc = ext.zero_element()
        for w, c in ident.expr.sorted_terms():
            acc = ext.add(acc, ext.scale(c, _generic_word(ext, w, values)))
        for k in range(A.dim):
            if acc[k]:
                labels = ", ".join(f"g{v}" for v in values)
                return False, f"{ident} fails at ({labels}): coefficient of {A.basis[k]} is {acc[k]}"
    return True, "None"


def assert_symbolic_matches_oracle(A, sys):
    got = check_identity(A, sys, "symbolic")
    assert (got.holds, str(got.counterexample)) == symbolic_oracle_check(A, sys), (A.name, sys.name)
    return got.holds


def dense_basis(n):
    """Columns of the unit lower times unit upper all-ones matrices: min(i, j) + 1, determinant 1."""
    return [[min(i, j) + 1 for j in range(n)] for i in range(n)]


ORACLE_SYSTEMS = ("as", "sas", "cas", "com-as", "a12", "cas-dual")
# identities that only symbolic mode accepts: neither side is homogeneous
NON_HOMOGENEOUS = (("idempotent", "(x1 x1) = x1"), ("square-left", "((x1 x1) x2) = (x1 x2)"))


def test_compiled_check_matches_oracle_on_the_corpus():
    """Every table, shipped and in a dense basis, in both modes; families keep their PolyQ constants."""
    failures = {"shipped": 0, "dense": 0}
    non_homogeneous = [parse_system(name, text) for name, text in NON_HOMOGENEOUS]
    symbolic_failures = {"shipped": 0, "dense": 0}
    for name in corpus.corpus_names():
        A = load_algebra(name)
        for tag, B in (("shipped", A), ("dense", change_basis(A, dense_basis(A.dim)))):
            for sys_name in ORACLE_SYSTEMS:
                holds = assert_matches_oracle(B, builtin_system(sys_name))
                assert assert_symbolic_matches_oracle(B, builtin_system(sys_name)) == holds
                failures[tag] += not holds
            for sys in non_homogeneous:
                symbolic_failures[tag] += not assert_symbolic_matches_oracle(B, sys)
    # both sweeps compare counterexample strings, not only verdicts
    assert all(failures.values()), failures
    assert all(symbolic_failures.values()), symbolic_failures
    ce = check_identity(load_algebra("A17"), non_homogeneous[0], "symbolic").counterexample
    assert (ce.coordinate, ce.value) == ("e1", "g1_1^2 - g1_1")


def test_compiled_check_matches_oracle_on_the_structure_systems():
    systems = [
        parse_system("swap", reproduce.SWAP_SYSTEM),
        parse_system("anti-poisson-jordan", reproduce.JORDAN_ADMISSIBLE_SYSTEM),
        parse_system("two-step", reproduce.TWO_STEP_SYSTEM),
    ]
    nested5 = parse_system("right-nested-5", reproduce.RIGHT_NESTED_FIVE)
    for name in reproduce.sas_family_entries():
        A = load_algebra(name)
        for sys in systems:
            assert assert_matches_oracle(A, sys) == assert_symbolic_matches_oracle(A, sys)
        assert_matches_oracle(minus_algebra(A), nested5)
        assert_symbolic_matches_oracle(minus_algebra(A), nested5)
    # the hull of a1 fails all but two-step, so counterexample strings are compared too
    hull = unital_hull(load_algebra("a1"))
    expected = [False, False, True, False]
    assert [assert_matches_oracle(hull, sys) for sys in (*systems, nested5)] == expected
    assert [assert_symbolic_matches_oracle(hull, sys) for sys in (*systems, nested5)] == expected


def test_compiled_check_matches_oracle_on_polynomial_families():
    """Constants over several parameters: the printed order of their variables
    follows the arithmetic, as in 4*p_2*q_3 - 4*q_2*p_3."""
    hull = unital_hull(load_algebra("a2"))
    ext, p = hull.generic_element("p")
    ext, q = ext.generic_element("q")
    smut = scalar_mutation(hull, PolyQ.var("u"), PolyQ.var("v"))
    generic = [
        mutation(ext, ext.element(p), q),
        kantor_square(ext, ext.element(p)),
        change_basis(smut, dense_basis(smut.dim)),
        load_algebra("a12").with_parameters(("z",)),
    ]
    verdicts = [
        assert_matches_oracle(A, builtin_system(sys_name))
        for A in generic
        for sys_name in ("as", "sas", "cas", "a132")
    ]
    assert verdicts.count(False) == 10
    symbolic = [
        assert_symbolic_matches_oracle(A, builtin_system(sys_name))
        for A in generic
        for sys_name in ("as", "sas", "cas", "a132")
    ]
    assert symbolic == verdicts
    # e1 (e1 e1) = e1 (u e1 + e2) sums u*u, then v^2: the order of a dense product
    u, v = PolyQ.var("u"), PolyQ.var("v")
    B = AlgebraStructure("uv", 2, [[[u, 1], [v**2, 0]], [[0, 0], [0, 0]]], ("u", "v"))
    nested = parse_system("right-nested-3", "(x1 (x2 x3)) = 0")
    assert not assert_matches_oracle(B, nested)
    assert check_identity(B, nested).counterexample.value == "u^2 + v^2"
    assert not assert_symbolic_matches_oracle(B, nested)
    # at (e1, e2) the words add in sorted order: e1 e2 = v e1 first, then e2 e1 = u e1
    C = AlgebraStructure("vu", 2, [[[0, 0], [v, 0]], [[u, 0], [0, 0]]], ("u", "v"))
    anti = parse_system("anticommutative", "(x1 x2) + (x2 x1) = 0")
    assert not assert_matches_oracle(C, anti)
    assert check_identity(C, anti).counterexample.value == "v + u"
    assert not assert_symbolic_matches_oracle(C, anti)


SCALARS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Q(1, 2), Q(-3, 2)])


@st.composite
def small_algebras(draw, parametric=None):
    """Dimension 1-3, int or Fraction constants, and a parameter t in them
    at times, or always or never when parametric is given."""
    n = draw(st.integers(1, 3))
    if parametric is None:
        parametric = draw(st.booleans())
    t = PolyQ.var("t")

    def scalar():
        c = draw(SCALARS)
        return c + draw(SCALARS) * t if parametric else c

    constants = [[[scalar() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return AlgebraStructure("random", n, constants, ("t",) if parametric else ())


@st.composite
def invertible_matrices(draw, n):
    """Unit lower times unit upper triangular, so the determinant is 1."""
    lower = [[draw(SCALARS) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(SCALARS) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# a repeated variable maps several leaves to one generic element, so a
# generic product can cancel while its variables stay in the printed order
REPEATED_VARIABLES = tuple(
    parse_system(f"repeated-{i}", text)
    for i, text in enumerate((
        "(x1 (x1 x1)) - ((x1 x1) x1) = 0",
        "((x1 x1) x2) - (x1 (x1 x2)) = 0",
        "(x1 x1) = 0",
        "((x1 x2) (x1 x1)) - (x1 (x2 (x1 x1))) = 0",
    ))
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_identity_checks_agree_on_random_algebras(data):
    """Both modes against their oracles, counterexample strings included, and against each other."""
    A = data.draw(small_algebras())
    systems = (
        builtin_system(data.draw(st.sampled_from(ORACLE_SYSTEMS))),
        data.draw(st.sampled_from(REPEATED_VARIABLES)),
    )
    B = change_basis(A, data.draw(invertible_matrices(A.dim)))
    for sys in systems:
        holds = assert_matches_oracle(A, sys)
        assert assert_symbolic_matches_oracle(A, sys) == holds
        assert check_identity(B, sys).holds == holds


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_tables_agree_with_their_polynomial_twins(data):
    """A random int or Fraction table, and the same in a drawn basis, against
    itself with an unused parameter z, which makes every scalar a PolyQ:
    same verdicts and counterexample strings in both modes, as on the corpus."""
    A = data.draw(small_algebras(parametric=False))
    systems = (
        builtin_system(data.draw(st.sampled_from(ORACLE_SYSTEMS))),
        data.draw(st.sampled_from(REPEATED_VARIABLES)),
    )
    for table in (A, change_basis(A, data.draw(invertible_matrices(A.dim)))):
        twin = table.with_parameters(("z",))
        for sys in systems:
            for mode in ("multilinear", "symbolic"):
                got, want = check_identity(table, sys, mode), check_identity(twin, sys, mode)
                assert got.holds == want.holds, (sys.name, mode)
                assert str(got.counterexample) == str(want.counterexample), (sys.name, mode)


def test_counterexample_where_several_words_add_is_pinned():
    """All four words are nonzero at the failing tuple, so its value is a sum
    whose printed order of p and q is the order of the additions."""
    p, q = PolyQ.var("p"), PolyQ.var("q")
    A = AlgebraStructure("pq", 2, [[[0, 0], [p, 0]], [[q, 0], [0, p]]], ("p", "q"))
    four = parse_system("four", "(((x1 x2) x3) x4) + ((x2 x1) (x4 x3)) - (x1 (x2 (x3 x4))) - ((x4 x3) (x1 x2)) = 0")
    ident = str(four.identities[0])
    multi = check_identity(A, four).counterexample
    assert str(multi) == f"{ident} fails at (e2, e1, e2, e2): coefficient of e1 is -q^2*p + p^3"
    assignment = {1: 2, 2: 1, 3: 2, 4: 2}
    assert all(_oracle_word(A, w, assignment, {})[0] for w in four.identities[0].expr.terms)
    symbolic = check_identity(A, four, "symbolic").counterexample
    assert str(symbolic) == (
        f"{ident} fails at (g1, g2, g3, g4): coefficient of e1 is -g2_2*p^3*g1_2*g3_2*g4_1"
        " + 2*g2_2*p^2*g1_2*q*g3_2*g4_1 - g2_2*g1_2*q^3*g3_2*g4_1 + p^3*g1_2*g2_1*g3_2*g4_2"
        " - p*g1_2*g2_1*q^2*g3_2*g4_2"
    )
    assert not assert_matches_oracle(A, four)
    assert not assert_symbolic_matches_oracle(A, four)
    # inside one product the additions run by left index, then right index:
    # (e1 + e2)(e1 + e2) adds 1, q, p and -1 to e1 in that order
    B = AlgebraStructure("qp", 2, [[[1, 1], [q, 1]], [[p, 0], [-1, 0]]], ("p", "q"))
    square = parse_system("square", "((x1 x2) (x3 x4)) = 0")
    assert check_identity(B, square).counterexample.value == "q + p"
    assert not assert_matches_oracle(B, square)


def test_dense_failing_table_matches_the_oracle():
    """A table with every constant drawn, most of them nonzero, fails two-step
    associativity at its first tuple; the check returns the oracle's counterexample."""
    rng, n = random.Random(5), 5
    constants = [
        [[Q(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)] for _ in range(n)] for _ in range(n)
    ]
    A = AlgebraStructure("dense5", n, constants)
    assert not assert_matches_oracle(A, parse_system("two-step", reproduce.TWO_STEP_SYSTEM))


SPARSE_SCALARS = st.sampled_from([0] * 20 + [1, -1, 2, Q(1, 2), Q(-3, 2)])
SPARSE_SYSTEMS = (
    *(parse_system(name, text) for name, text in (
        ("two-step", reproduce.TWO_STEP_SYSTEM),
        ("right-nested-5", reproduce.RIGHT_NESTED_FIVE),
        ("swap", reproduce.SWAP_SYSTEM),
        ("bare-variable", "x1 = 0"),  # a word without factors
    )),
    *map(builtin_system, ORACLE_SYSTEMS),
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_tables_match_the_oracles(data):
    """Tables with about 80 % zero constants, where most basis tuples have a
    zero factor in every word: both modes against their oracles, on the table
    and on its twin with an unused parameter z."""
    n = data.draw(st.integers(1, 4))
    constants = [[[data.draw(SPARSE_SCALARS) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    A = AlgebraStructure("sparse", n, constants)
    sys = data.draw(st.sampled_from(SPARSE_SYSTEMS))
    for table in (A, A.with_parameters(("z",))):
        assert assert_matches_oracle(table, sys) == assert_symbolic_matches_oracle(table, sys)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_change_keeps_fingerprint_and_orbit_dim(data):
    A = data.draw(small_algebras(parametric=False))
    B = change_basis(A, data.draw(invertible_matrices(A.dim)))
    assert fingerprint(B) == fingerprint(A)
    assert orbit_dim(B) == orbit_dim(A)


def test_check_refuses_too_many_evaluations_before_work():
    dim5 = load_algebra("dim5_nonassoc")
    word = " ".join(f"(x{i}" for i in range(1, 12)) + " x12" + ")" * 11
    deep = parse_system("right-nested-12", f"{word} = 0")
    for mode in ("multilinear", "symbolic"):
        with pytest.raises(DegreeTooLarge):
            check_identity(dim5, deep, mode)
    power = "x1"
    for _ in range(9):
        power = f"({power} x1)"
    with pytest.raises(DegreeTooLarge):
        check_identity(dim5, parse_system("power-10", f"{power} = 0"))


def test_specialize_reads_rationals_only():
    a12 = load_algebra("a12")
    assert a12.specialize({"alpha": 1}).name == "a12[alpha=1]"
    assert a12.specialize({"alpha": Q(1, 2)}).name == "a12[alpha=1/2]"
    # a float used to enter as its binary expansion, 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        a12.specialize({"alpha": 0.1})


def test_parameter_clash():
    A = zero_algebra(2).with_parameters(["g1_1"])
    with pytest.raises(ParameterClash):
        A.generic_element("g1")
    with pytest.raises(ParameterClash, match="^generated coordinate 'g1_1' collides with a parameter$"):
        check_identity(A, builtin_system("sas"), "symbolic")
    assert check_identity(A, builtin_system("sas")).holds
    # sas has three variables, so the third generic element clashes too
    with pytest.raises(ParameterClash, match="'g3_2'"):
        check_identity(zero_algebra(2).with_parameters(["g3_2"]), builtin_system("sas"), "symbolic")
    with pytest.raises(ValueError, match="^parameter 'a' is repeated$"):
        AlgebraStructure("twice", 1, [[[PolyQ.var("a")]]], ("a", "b", "a"))


# ---------------------------------------------------------------------------
# polarization algebras


def test_minus_algebra_of_family_is_heisenberg():
    m = minus_algebra(load_algebra("a2"))
    # only surviving product is e1 e2 = e3 = -e2 e1
    assert m.constants[0][1][2] == PolyQ.const(1)
    assert m.constants[1][0][2] == PolyQ.const(-1)
    assert m.constants[0][0][2].is_zero() and m.constants[1][1][2].is_zero()


def test_plus_minus_of_commutative():
    a17 = load_algebra("A17")
    plus = plus_algebra(a17)
    minus = minus_algebra(a17)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert plus.constants[i][j][k] == a17.constants[i][j][k]
                assert minus.constants[i][j][k] == 0


# ---------------------------------------------------------------------------
# mutations and Kantor squares


def test_generic_mutation_is_cyclic_associative():
    dim5 = load_algebra("dim5_nonassoc")
    ext, p = dim5.generic_element("p")
    ext, q = ext.generic_element("q")
    mut = mutation(ext, ext.element(p), q)
    assert check_identity(mut, builtin_system("cas")).holds


def test_specific_mutation_example():
    dim5 = load_algebra("dim5_nonassoc")
    mut = mutation(dim5, dim5.basis_element(1), dim5.basis_element(2))
    assert check_identity(mut, builtin_system("cas")).holds


def test_mutation_p_equals_q_alternating():
    dim5 = load_algebra("dim5_nonassoc")
    ext, p = dim5.generic_element("p")
    mut = mutation(ext, p, p)
    for i in range(ext.dim):
        prod = mut.mul(mut.basis_element(i + 1), mut.basis_element(i + 1))
        assert not any(prod)


def test_mutation_of_zero_algebra():
    z = zero_algebra(3)
    mut = mutation(z, z.basis_element(1), z.basis_element(2))
    assert all(
        mut.constants[i][j][k] == 0 for i in range(3) for j in range(3) for k in range(3)
    )


def test_kantor_square_examples():
    dim5 = load_algebra("dim5_nonassoc")
    kan = kantor_square(dim5, dim5.basis_element(1))
    assert check_identity(kan, builtin_system("cas")).holds
    ext, p = dim5.generic_element("p")
    assert check_identity(kantor_square(ext, p), builtin_system("cas")).holds
    # p = 0 kills everything
    z = kantor_square(dim5, dim5.zero_element())
    assert all(
        z.constants[i][j][k] == 0 for i in range(5) for j in range(5) for k in range(5)
    )


def test_kantor_square_commutative_case():
    # for commutative associative algebras p(xy) - (px)y - x(py) = -p(xy)
    A = load_algebra("A10")
    ext, p = A.generic_element("p")
    kan = kantor_square(ext, p)
    for i in range(1, ext.dim + 1):
        for j in range(1, ext.dim + 1):
            x, y = ext.basis_element(i), ext.basis_element(j)
            expected = ext.scale(-1, ext.mul(p, ext.mul(x, y)))
            assert kan.mul(x, y) == expected


def test_scalar_mutation_endpoints():
    A = load_algebra("a2")
    same = scalar_mutation(A, 1, 0)
    opp = scalar_mutation(A, 0, 1)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert same.constants[i][j][k] == A.constants[i][j][k]
                assert opp.constants[i][j][k] == A.constants[j][i][k]


def test_scalar_mutation_preserves_a132():
    for name in ("a2", "A17"):
        A = load_algebra(name)
        mutated = scalar_mutation(A, PolyQ.var("u"), PolyQ.var("v"))
        assert check_identity(mutated, builtin_system("a132")).holds


# ---------------------------------------------------------------------------
# unital hull


def test_hull_is_unital():
    A = load_algebra("a1")
    hull = unital_hull(A)
    one = hull.basis_element(1)
    for i in range(1, hull.dim + 1):
        b = hull.basis_element(i)
        assert hull.mul(one, b) == b
        assert hull.mul(b, one) == b


def test_hull_unit_label_is_fresh():
    """A basis that already has the label 1 gets the unit 1_, so the hull
    prints each product once and reads back from its own JSON."""
    A = AlgebraStructure("one-x", 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], basis=["1", "x"])
    hull = unital_hull(A)
    assert hull.basis == ("1_", "1", "x")
    assert hull.products_str()[:2] == ["1_ 1_ = 1_", "1_ 1 = 1"]
    assert "1 1 = 1" in hull.products_str() and len(set(hull.products_str())) == len(hull.products_str())
    again = AlgebraStructure.from_json(hull.to_json())
    assert again.basis == hull.basis and again.constants == hull.constants
    assert unital_hull(load_algebra("a1")).basis == ("1", "e1", "e2", "e3")
    with pytest.raises(ValueError, match="^basis label 'x' is repeated$"):
        AlgebraStructure("twice", 2, A.constants, basis=["x", "x"])


def test_hull_of_commutative_stays_shift_associative():
    hull = unital_hull(load_algebra("A04"))
    assert check_identity(hull, builtin_system("sas")).holds


def test_hull_of_noncommutative_fails():
    hull = unital_hull(load_algebra("a1"))
    assert not check_identity(hull, builtin_system("sas")).holds
    hull2 = unital_hull(load_algebra("a2"))
    assert not check_identity(hull2, builtin_system("sas")).holds


# ---------------------------------------------------------------------------
# compatible pairs


def test_compatible_with_itself():
    A = load_algebra("a2")
    assert compatible_check(A, A, builtin_system("sas")).holds


def test_compatible_with_zero():
    A = load_algebra("dim5_nonassoc")
    assert compatible_check(A, zero_algebra(5).specialize({}), builtin_system("sas")).holds


def test_compatible_two_dim_pair_with_hand_expansion():
    A = load_algebra("A04")  # e1 e1 = e2
    B = AlgebraStructure("A04x2", 2, [[[0, 2], [0, 0]], [[0, 0], [0, 0]]])
    result = compatible_check(A, B, builtin_system("sas"))
    assert result.holds
    # hand expansion of the mixed identity (x*y).z + (x.y)*z = y*(z.x) + y.(z*x)
    S = sum_algebra(A, B)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                x, y, z = (A.basis_element(t) for t in (i, j, k))
                lhs = A.add(A.mul(B.mul(x, y), z), B.mul(A.mul(x, y), z))
                rhs = A.add(B.mul(y, A.mul(z, x)), A.mul(y, B.mul(z, x)))
                assert lhs == rhs
                # and the sum product satisfies the identity outright
                lhs_s = S.mul(S.mul(x, y), z)
                rhs_s = S.mul(y, S.mul(z, x))
                assert lhs_s == rhs_s


def test_incompatible_pair_detected():
    A = load_algebra("A04")
    C = AlgebraStructure("notsas", 2, [[[0, 0], [0, 1]], [[0, 0], [0, 0]]])  # e1e2 = e2
    assert not compatible_check(A, C, builtin_system("sas")).holds


def test_incompatible_pair_hidden_from_the_plain_sum():
    # A, B and A + B all satisfy this degree-4 identity, but A + 2B does not:
    # with three products the mixed parts are not fixed by the sum alone
    sys4 = parse_system("x4", "(((x1 x2) x3) x4) = (x1 (x2 (x3 x4)))")
    A = AlgebraStructure("A", 2, [[[-1, -1], [-1, -1]], [[-1, -1], [-1, -1]]])
    B = AlgebraStructure("B", 2, [[[0, 1], [0, 1]], [[1, 0], [1, 0]]])  # e1e1 = e1e2 = e2, e2e1 = e2e2 = e1
    for product in (A, B, sum_algebra(A, B)):
        assert check_identity(product, sys4).holds
    B2 = AlgebraStructure("2B", 2, [[[0, 2], [0, 2]], [[2, 0], [2, 0]]])
    assert not check_identity(sum_algebra(A, B2), sys4).holds
    assert not compatible_check(A, B, sys4).holds


# ---------------------------------------------------------------------------
# JSON interchange


def test_json_round_trip():
    a2 = load_algebra("a2")
    again = AlgebraStructure.from_json(a2.to_json())
    assert again.dim == a2.dim and again.parameters == a2.parameters
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert again.constants[i][j][k] == a2.constants[i][j][k]


def test_json_documented_shape():
    text = json.dumps(
        {
            "name": "a12",
            "dim": 4,
            "basis": ["e1", "e2", "e3", "e4"],
            "parameters": ["alpha"],
            "products": [
                {"left": "e1", "right": "e1", "value": [["1", "e3"]]},
                {"left": "e2", "right": "e2", "value": [["alpha", "e3"]]},
                {"left": "e2", "right": "e1", "value": [["-1", "e3"]]},
                {"left": "e1", "right": "e2", "value": [["1", "e3"]]},
                {"left": "e4", "right": "e4", "value": [["1", "e4"]]},
            ],
        }
    )
    A = AlgebraStructure.from_json(text)
    assert A.constants[1][1][2] == PolyQ.var("alpha")
    assert A.constants[1][0][2] == PolyQ.const(-1)
    ref = load_algebra("a12")
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert A.constants[i][j][k] == ref.constants[i][j][k]


def test_polynomial_coefficient_strings():
    text = json.dumps(
        {
            "name": "poly",
            "dim": 2,
            "basis": ["e1", "e2"],
            "parameters": ["alpha"],
            "products": [{"left": "e1", "right": "e1", "value": [["alpha^2-1", "e2"], ["1/2", "e1"]]}],
        }
    )
    A = AlgebraStructure.from_json(text)
    assert A.constants[0][0][1] == PolyQ.var("alpha") ** 2 - 1
    assert A.constants[0][0][0] == PolyQ.const(Q(1, 2))
