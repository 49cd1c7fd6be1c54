"""Tests for the shipped classification corpus."""

from fractions import Fraction

from nassoc import corpus
from nassoc.algebras import check_identity
from nassoc.exact.poly import PolyQ
from nassoc.systems import builtin_system


def test_corpus_inventory():
    assert len(corpus.COMMUTATIVE_ASSOCIATIVE) == 29
    assert corpus.SHIFT_ASSOCIATIVE_3D == ("a1", "a2")
    assert len(corpus.SHIFT_ASSOCIATIVE_4D) == 14
    assert len(corpus.corpus_names()) == 48
    for name in corpus.corpus_names():
        A = corpus.load_algebra(name)
        assert A.name == name


def test_parametric_entries():
    for name in ("a2", "a02", "a06", "a07", "a10", "a12"):
        assert corpus.load_algebra(name).parameters == ("alpha",)
    for name in ("a1", "a13", "A17", "dim5_nonassoc"):
        assert corpus.load_algebra(name).parameters == ()


def test_spot_check_tables():
    a07 = corpus.load_algebra("a07")
    alpha = PolyQ.var("alpha")
    assert a07.constants[0][0][3] == PolyQ.const(1)  # e1 e1 = e4
    assert a07.constants[0][1][2] == alpha + 1
    assert a07.constants[1][0][2] == alpha - 1
    a09 = corpus.load_algebra("a09")
    assert a09.constants[0][1][2] == PolyQ.const(1) and a09.constants[0][1][3] == PolyQ.const(1)
    assert a09.constants[1][0][2] == PolyQ.const(-1) and a09.constants[1][0][3] == PolyQ.const(1)


def test_commutative_tables_are_symmetric():
    for name in corpus.COMMUTATIVE_ASSOCIATIVE:
        A = corpus.load_algebra(name)
        for i in range(A.dim):
            for j in range(A.dim):
                for k in range(A.dim):
                    assert A.constants[i][j][k] == A.constants[j][i][k], name


def test_lie_entries_anticommutative():
    for name in corpus.LIE:
        A = corpus.load_algebra(name)
        for i in range(A.dim):
            for j in range(A.dim):
                for k in range(A.dim):
                    assert A.constants[i][j][k] == -A.constants[j][i][k], name


def test_claims_registry_spot():
    assert corpus.CLAIMS["A17"] == ("com-as",)
    assert corpus.CLAIMS["a12"] == ("sas", "cas")
    A = corpus.load_algebra("a12")
    for claim in corpus.CLAIMS["a12"]:
        assert check_identity(A, builtin_system(claim)).holds


def test_load_by_path(tmp_path):
    A = corpus.load_algebra("a2")
    p = tmp_path / "fam.json"
    p.write_text(A.to_json())
    B = corpus.load_algebra(str(p))
    assert B.dim == A.dim and B.parameters == A.parameters


def test_certificate_files_parse():
    for name in corpus.CERTIFICATES:
        cert = corpus.load_certificate(name)
        assert cert["from"] in corpus.corpus_names()
        assert cert["to"] in corpus.corpus_names()
        assert len(cert["basis"]) == corpus.load_algebra(cert["from"]).dim


def test_non_nilpotent_entries_carry_table_idempotents():
    """Every non-nilpotent corpus entry exposes a basis idempotent, so the
    Peirce acceptance sweep covers exactly the non-nilpotent tables."""
    from nassoc.reproduce import find_table_idempotent, specializations
    from nassoc.structure import powers_and_nilpotency

    for name in corpus.corpus_names():
        if name in corpus.LIE:
            continue
        A = corpus.load_algebra(name)
        has_idem = find_table_idempotent(A) is not None
        for S in specializations(A):
            nilpotent = powers_and_nilpotency(S).is_nilpotent
            assert nilpotent == (not has_idem), (name, S.name)


def _canonical_rational(c):
    """An int, or a Fraction that is not integral: never a float, never Fraction(2)."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _canonical(c):
    """A canonical rational, or a PolyQ whose coefficients all are."""
    if type(c) is PolyQ:
        return all(map(_canonical_rational, c.terms.values()))
    return _canonical_rational(c)


def test_tables_hold_fractions_and_families_hold_polynomials():
    """A parameter-free table holds canonical rationals, a family PolyQ with
    canonical coefficients, and so do elements and their sums and products,
    including sums of halves that come out integral."""
    for name in corpus.corpus_names():
        A = corpus.load_algebra(name)
        basis = [A.basis_element(i) for i in range(1, A.dim + 1)]
        half = A.element([Fraction(1, 2)] * A.dim)
        elements = [*basis, half, A.add(half, half), A.scale(Fraction(2), half)]
        scalars = [c for row in A.constants for vec in row for c in vec]
        scalars += [c for x in elements for c in x]
        scalars += [c for x in elements for y in elements for c in A.mul(x, y)]
        assert all(isinstance(c, PolyQ) == A.is_parametric() for c in scalars), name
        assert all(map(_canonical, scalars)), name


def test_exact_core_returns_canonical_rationals():
    """Every rational the structure theory, the consequence spaces, the
    free-algebra coordinates and Expr hand out is an int when integral and
    a Fraction otherwise, including sums of fractions that come out integral."""
    import random

    from nassoc.freealg import _quotient
    from nassoc.operads import consequences
    from nassoc.reproduce import specializations
    from nassoc.structure import derivation_algebra, peirce, power_subspaces, wedderburn
    from nassoc.terms import parse_expr

    for name in corpus.corpus_names():
        for A in specializations(corpus.load_algebra(name)):
            split = wedderburn(A)
            scalars = [c for vec in split.s_basis + split.r_basis for c in vec]
            for e in split.s_basis:
                pe = peirce(A, A.element(e))
                scalars += [c for vec in pe.a0 + pe.a_half + pe.a1 for c in vec]
            scalars += [c for M in derivation_algebra(A).matrices for row in M for c in row]
            scalars += [c for rows in power_subspaces(A) for row in rows for c in row]
            assert all(map(_canonical_rational, scalars)), A.name

    rng = random.Random(5)
    values = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2), 1, -2)
    for system, n in (("cas-dual", 4), ("sas", 5)):
        cons = consequences(builtin_system(system), n)
        assert (cons.graph is None) == (system == "cas-dual")
        scalars = [c for vec in cons.rref.kernel() + cons.rref.basis() for c in vec.values()]
        for _ in range(40):
            vec = {rng.randrange(cons.space.dim): rng.choice(values) for _ in range(6)}
            scalars += cons.reduce_vec(vec).values()
        assert all(map(_canonical_rational, scalars)), system

    for n in range(1, 6):
        q = _quotient("sas", n, None)
        dim = q.cons.space.dim
        vecs = [{k: 1} for k in range(dim)]
        vecs += [{rng.randrange(dim): rng.choice(values) for _ in range(4)} for _ in range(40)]
        assert all(_canonical_rational(c) for vec in vecs for c in q.coords(vec)), n

    expr = parse_expr("2 * (x1 x2) + 1/2 * (x2 x1) - [x1,x2] + 3/4 * (x1 x1)")
    assert expr.terms == {(1, 2): Fraction(3, 2), (2, 1): 1, (1, 1): Fraction(3, 4)}
    assert all(map(_canonical_rational, expr.terms.values()))


def test_fraction_and_polynomial_scalars_agree_on_every_table():
    """Each parameter-free table against itself with an unused parameter z,
    which makes every scalar a PolyQ: same verdicts, counterexample strings
    and power-chain dimensions."""
    from nassoc.structure import power_subspaces

    systems = [builtin_system(name) for name in ("as", "sas", "cas", "com-as")]
    for name in corpus.corpus_names():
        A = corpus.load_algebra(name)
        if A.is_parametric():
            continue
        Z = A.with_parameters(("z",))
        assert isinstance(Z.constants[0][0][0], PolyQ)
        modes = ("multilinear", "symbolic") if A.dim <= 4 else ("multilinear",)
        for sys in systems:
            for mode in modes:
                got = check_identity(A, sys, mode)
                want = check_identity(Z, sys, mode)
                assert got.holds == want.holds, (name, sys.name, mode)
                assert str(got.counterexample) == str(want.counterexample), (name, sys.name, mode)
        assert [len(s) for s in power_subspaces(A)] == [len(s) for s in power_subspaces(Z)], name
