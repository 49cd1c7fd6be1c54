"""Tests for basis transforms, degeneration certificates, closed sets,
orbit dimensions, and the pencil invariant."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nassoc.corpus import corpus_names, load_algebra, load_certificate, load_closed_set, run_certificate
from nassoc.algebras import AlgebraStructure
from nassoc.errors import NassocError, NonSplitOperator, ParametricNotSupported, ShapeMismatch, SingularForAllT
from nassoc.exact.poly import PolyQ
from nassoc.exact.ratfun import RatFunT
from nassoc.moduli import (
    ClosedSetSpec,
    ParamBasis,
    closed_set_membership,
    degeneration_check,
    degeneration_necessary,
    generic_derivation_dim,
    monomial_certificate_search,
    orbit_dim,
    pencil_invariant,
    random_invertible_matrix,
    transform,
)
from nassoc.structure import change_basis, derivation_algebra, peirce, wedderburn

Q = Fraction


# ---------------------------------------------------------------------------
# transforms


def test_transform_identity_basis():
    A = load_algebra("a13")
    cols = [["1" if i == j else "0" for i in range(4)] for j in range(4)]
    out = transform(A, ParamBasis.from_strings(cols))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert out[i][j][k] == RatFunT(A.constants[i][j][k])


def test_transform_diagonal_example():
    A = load_algebra("a12")
    basis = ParamBasis.from_strings(
        [["t", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "t", "0"], ["0", "0", "0", "1"]],
        {"alpha": "0"},
    )
    out = transform(A, basis)
    t = RatFunT.t()
    one = RatFunT.const(1)
    assert out[0][0][2] == t  # E1 E1 = t E3
    assert out[0][1][2] == one  # E1 E2 = E3
    assert out[1][0][2] == -one
    assert out[3][3][3] == one  # E4 E4 = E4
    assert out[1][1][2] == RatFunT.const(0)


def test_transform_scaling_two_step_nilpotent():
    A = load_algebra("a1")
    basis = ParamBasis.from_strings([["t", "0", "0"], ["0", "t", "0"], ["0", "0", "t"]])
    out = transform(A, basis)
    assert out[0][1][2] == RatFunT.t()
    assert out[1][0][2] == -RatFunT.t()


def test_transform_functorial_at_samples():
    """transform(A, P*Q) agrees with transforming twice, checked exactly at
    rational t samples away from poles."""
    A = load_algebra("a13")
    P = [["t", "0", "0", "0"], ["0", "1", "0", "t"], ["0", "0", "t^2", "0"], ["0", "1", "0", "1"]]
    Qb = [["1", "t", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "t", "1"]]
    pb = ParamBasis.from_strings(P)
    qb = ParamBasis.from_strings(Qb)
    pm, qm = ([[col[r] for col in b.columns] for r in range(4)] for b in (pb, qb))
    prod_cols = [
        [sum((pm[r][s] * qm[s][i] for s in range(4)), RatFunT.const(0)) for r in range(4)]
        for i in range(4)
    ]
    once = transform(A, ParamBasis(prod_cols))
    for tval in (Q(2), Q(3), Q(5)):
        # evaluate the two-step route at the sample: change basis by Q(t0), then by P(t0)
        qnum = [[qm[r][c].eval_at(tval) for c in range(4)] for r in range(4)]
        pnum = [[pm[r][c].eval_at(tval) for c in range(4)] for r in range(4)]
        two_step = change_basis(change_basis(A, pnum), qnum)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert once[i][j][k].eval_at(tval) == two_step.constants[i][j][k]


def test_transform_rejects_singular():
    A = load_algebra("a1")
    cols = [["t", "0", "0"], ["t", "0", "0"], ["0", "0", "1"]]
    with pytest.raises(SingularForAllT):
        transform(A, ParamBasis.from_strings(cols))


def test_transform_and_change_basis_agree_on_constant_bases():
    """One basis change over Q and over Q(t): constant RatFunT columns give,
    at t = 0, exactly the constants of change_basis in the same basis."""
    for name in corpus_names():
        A = load_algebra(name)
        if A.is_parametric():
            continue
        n = A.dim
        dense = [[min(i, j) + 1 for j in range(n)] for i in range(n)]  # determinant 1
        columns = [[RatFunT.const(dense[r][i]) for r in range(n)] for i in range(n)]
        over_qt = transform(A, ParamBasis(columns))
        at_zero = [[[c.value_at_zero() for c in vec] for vec in row] for row in over_qt]
        assert at_zero == [[list(vec) for vec in row] for row in change_basis(A, dense).constants], name


def test_singular_and_float_basis_changes_are_refused():
    """A singular matrix on a family is a ValueError, not a TypeError from a
    polynomial pivot, and a float entry is refused rather than expanded."""
    a12 = load_algebra("a12")
    # E1 = e2, so E1 E1 = alpha e3 would be the first pivot of the products
    singular = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError, match="^matrix is singular$"):
        change_basis(a12, singular)
    columns = [[RatFunT.const(singular[r][i]) for r in range(4)] for i in range(4)]
    with pytest.raises(SingularForAllT):
        transform(a12, ParamBasis(columns, {"alpha": RatFunT.t()}))
    A17 = load_algebra("A17")
    tenth = [[0.1 * (i == j) for j in range(A17.dim)] for i in range(A17.dim)]
    with pytest.raises(TypeError):
        change_basis(A17, tenth)
    with pytest.raises(TypeError):
        transform(A17, ParamBasis(tenth))
    # rational columns are constants of Q(t)
    unit = [[int(i == j) for j in range(A17.dim)] for i in range(A17.dim)]
    assert all(type(c) is RatFunT for row in transform(A17, ParamBasis(unit)) for vec in row for c in vec)


def test_transform_requires_substitution():
    A = load_algebra("a12")
    cols = [["1" if i == j else "0" for i in range(4)] for j in range(4)]
    with pytest.raises(ParametricNotSupported):
        transform(A, ParamBasis.from_strings(cols))


def test_transform_rejects_columns_of_the_wrong_length():
    """Four columns for a 4-dimensional algebra, one of them too long or too
    short: the long one used to be truncated silently, the short one to
    fail with IndexError."""
    A = load_algebra("a13")
    cols = [["t", "0", "0", "0"], ["0", "t^2", "0", "0"], ["0", "0", "t^3", "0"], ["0", "0", "0", "t^2"]]
    for col, length in ((["t", "0", "0", "0", "5"], 5), (["t", "0", "0"], 3)):
        with pytest.raises(ValueError, match=f"basis column 1 has {length} entries, expected 4"):
            transform(A, ParamBasis.from_strings([col] + cols[1:]))
    assert transform(A, ParamBasis.from_strings(cols))[1][1][2] == RatFunT.t()


# ---------------------------------------------------------------------------
# degenerations


def test_identity_certificate():
    A = load_algebra("a13")
    cols = [["1" if i == j else "0" for i in range(4)] for j in range(4)]
    cert = degeneration_check(A, ParamBasis.from_strings(cols), A)
    assert cert.verdict


def test_shipped_certificates_verify():
    for name in ("a12_0_to_a11", "a12_m1t_to_a13", "a13_to_a14"):
        [result] = run_certificate(load_certificate(name))
        assert result.verdict, name
    family = run_certificate(load_certificate("a12_family_to_a06"))
    assert len(family) == 4 and all(r.verdict for r in family)


def test_printed_family_basis_fails():
    """The source table's parametrized basis for the family degeneration
    produces poles at t = 0; the shipped certificate documents and repairs it."""
    cert = load_certificate("a12_family_to_a06")
    assert "printed_basis" in cert and "note" in cert
    [res] = run_certificate({**cert, "basis": cert["printed_basis"]}, sample=1)
    assert not res.verdict
    assert any(e.limit is None for e in res.failures())


def test_pole_reported_as_failure():
    A = load_algebra("a1")
    B = load_algebra("a1")
    cols = [["1/t", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    cert = degeneration_check(A, ParamBasis.from_strings(cols), B)
    assert not cert.verdict
    assert any(e.limit is None for e in cert.failures())


def test_certificate_fingerprint_dominance():
    """A verified degeneration cannot decrease the derivation dimension."""
    checks = [
        ("a12_0_to_a11", {"alpha": Q(0)}),
        ("a13_to_a14", {}),
    ]
    for name, spec_env in checks:
        cert = load_certificate(name)
        [result] = run_certificate(cert)
        assert result.verdict
        A = load_algebra(cert["from"])
        if A.is_parametric():
            A = A.specialize(spec_env)
        B = load_algebra(cert["to"])
        assert derivation_algebra(B).dim >= derivation_algebra(A).dim


def test_monomial_search_finds_corrected_exponents():
    found = monomial_certificate_search(load_algebra("a13"), load_algebra("a14"), 6)
    assert (1, 2, 3, 2) in found
    assert all(ks[0] + ks[0] - ks[3] == 0 for ks in found)  # e1 e1 = e4 pins k4 = 2 k1


# ---------------------------------------------------------------------------
# orbit dimensions and necessary conditions


def test_orbit_dims():
    assert orbit_dim(load_algebra("A17")) == 16
    assert orbit_dim(load_algebra("a12")) == 13  # family: generic orbit 12 + 1 parameter
    for s in (Q(-1), Q(0), Q(1), Q(2)):
        assert orbit_dim(load_algebra("a12").specialize({"alpha": s})) == 12
    assert orbit_dim(load_algebra("a06")) == 12
    assert orbit_dim(load_algebra("A16")) == 12
    z = load_algebra("a1")
    from nassoc.algebras import AlgebraStructure
    from nassoc.exact.poly import PolyQ

    zero4 = AlgebraStructure("zero4", 4, [[[PolyQ.zero()] * 4 for _ in range(4)] for _ in range(4)])
    assert orbit_dim(zero4) == 0


def test_necessary_conditions():
    A17 = load_algebra("A17")
    a12_1 = load_algebra("a12").specialize({"alpha": 1})
    rep = degeneration_necessary(A17, a12_1)
    assert rep.possible
    assert rep.details["dim_der"] == (0, 4)
    same = degeneration_necessary(A17, A17)
    assert not same.proper
    # wrong direction: derivations must grow strictly
    back = degeneration_necessary(a12_1, A17)
    assert not back.der_condition


# ---------------------------------------------------------------------------
# closed sets


def test_closed_set_membership():
    spec = load_closed_set("a12_not_a10")
    assert closed_set_membership(spec, load_algebra("a12").specialize({"alpha": 1}))
    assert not closed_set_membership(spec, load_algebra("a10").specialize({"alpha": 1}))


def test_closed_set_zero_algebra():
    from nassoc.algebras import AlgebraStructure
    from nassoc.exact.poly import PolyQ

    spec = load_closed_set("a12_not_a10")
    zero4 = AlgebraStructure("zero4", 4, [[[PolyQ.zero()] * 4 for _ in range(4)] for _ in range(4)])
    assert closed_set_membership(spec, zero4)


def test_closed_set_equations_divide_exactly():
    # the constants 1 and 3 are ints: 1/3 and 3^-1 must not become floats
    constants = [[[1, 3]] * 2] * 2
    A = AlgebraStructure("thirds", 2, constants)
    spec = ClosedSetSpec(equations=["c[1][1][1]/c[1][1][2] = 1/3", "c[1][2][2]^-1 = 1/3"])
    assert closed_set_membership(spec, A)


def test_containment_shorthand():
    spec = ClosedSetSpec(containments=["A1*A1<=A3"])
    assert closed_set_membership(spec, load_algebra("a12").specialize({"alpha": 1}))
    assert not closed_set_membership(spec, load_algebra("A17"))


def random_lower_triangular(n: int, rng: random.Random):
    """Column i supported on rows >= i: these basis changes stabilize the
    tail flags A_i = span(e_i..e_n) used by the containment shorthands."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(rng.choice([1, -1, 2, 3]))
        for j in range(i):
            m[i][j] = Fraction(rng.randint(-2, 2))
    return m


def test_borel_stability_evidence():
    """The containment shorthand part of the closed set is stable under
    triangular basis changes fixing the tail flags (randomized, seeded).

    With columns as new basis vectors, the matrices stabilizing the flags
    A_i = span(e_i..e_n) are the lower-triangular ones.
    """
    spec = ClosedSetSpec(containments=["A1*A1<=A3"])
    rng = random.Random(0)
    for name, value in (("a12", Q(1)), ("a10", Q(1)), ("a02", Q(2))):
        A = load_algebra(name).specialize({"alpha": value})
        base = closed_set_membership(spec, A)
        assert base
        for _ in range(8):
            M = random_lower_triangular(4, rng)
            assert closed_set_membership(spec, change_basis(A, M)) == base
    # a full-flag breaker: generic invertible changes do not preserve it
    A = load_algebra("a12").specialize({"alpha": Q(1)})
    broke = False
    for _ in range(12):
        M = random_invertible_matrix(4, rng)
        if not closed_set_membership(spec, change_basis(A, M)):
            broke = True
            break
    assert broke


# ---------------------------------------------------------------------------
# the pencil invariant


def test_pencil_values():
    a2 = load_algebra("a2")
    for s in (Q(0), Q(1), Q(2), Q(-1), Q(7, 3)):
        assert pencil_invariant(a2.specialize({"alpha": s})) == s


def test_pencil_of_bracket_algebra():
    assert pencil_invariant(load_algebra("a1")) == 0


def test_pencil_invariance_under_basis_changes():
    rng = random.Random(0)
    A = load_algebra("a2").specialize({"alpha": Q(3, 2)})
    for _ in range(20):
        M = random_invertible_matrix(3, rng)
        assert pencil_invariant(change_basis(A, M)) == Q(3, 2)


def test_pencil_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        pencil_invariant(load_algebra("A07"))  # not nilpotent
    with pytest.raises(ShapeMismatch):
        pencil_invariant(load_algebra("A06"))  # commutative: no antisymmetric part


def test_orbit_dim_derivation_identity():
    """For specialized algebras the orbit dimension and the derivation
    dimension always split n^2."""
    for name, env in (("A17", {}), ("a13", {}), ("a12", {"alpha": Q(1)}), ("a06", {"alpha": Q(-1)})):
        A = load_algebra(name)
        if env:
            A = A.specialize(env)
        assert orbit_dim(A) + derivation_algebra(A).dim == A.dim * A.dim


def test_generic_derivation_dim_against_specializations():
    """The derivation equations built over Q(alpha) and over Q must agree:
    the generic dimension is at most every specialized one and equals it
    away from finitely many alpha."""
    families = [load_algebra(name) for name in corpus_names()]
    families = [A for A in families if len(A.parameters) == 1]
    assert len(families) >= 2
    for A in families:
        generic = generic_derivation_dim(A)
        special = [
            derivation_algebra(A.specialize({A.parameters[0]: v})).dim
            for v in (Q(-1), Q(0), Q(2), Q(7, 3))
        ]
        assert all(generic <= d for d in special), A.name
        assert generic in special, A.name


# ---------------------------------------------------------------------------
# no float in any scalar result: int / int is a float, so every division of
# algebra scalars needs a Fraction operand


def _floats(x):
    """Every float reachable from x through containers (elements are tuples),
    dataclasses (the result records), PolyQ coefficients and RatFunT coefficients."""
    if isinstance(x, float):
        yield x
    elif isinstance(x, (list, tuple, set)):
        for y in x:
            yield from _floats(y)
    elif isinstance(x, dict):
        yield from _floats(list(x.items()))
    elif isinstance(x, PolyQ):
        yield from _floats(list(x.terms.values()))
    elif isinstance(x, RatFunT):
        yield from _floats([x.num, x.den])
    elif dataclasses.is_dataclass(x):
        yield from _floats([getattr(x, f.name) for f in dataclasses.fields(x)])


INTEGERS = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
RATIONALS = st.sampled_from([0, 0, 0, 1, -1, Q(1, 2), Q(-3, 2), Q(2, 3), 2])
SMALL_TABLES = [name for name in corpus_names() if load_algebra(name).dim <= 4]


@st.composite
def _matrices(draw, n):
    """An invertible matrix with integer entries, its columns scaled by
    nonzero rationals, so entries are int-valued Fractions or not."""
    m = random_invertible_matrix(n, random.Random(draw(st.integers(0, 2**16))))
    scales = [draw(st.sampled_from([1, -1, 2, Q(1, 2), Q(-2, 3)])) for _ in range(n)]
    return [[m[r][i] * scales[i] for i in range(n)] for r in range(n)]


@st.composite
def _tables(draw):
    """A random integer or rational table of dimension 1-4, or a corpus table
    of dimension at most 4 (a family at a drawn alpha) in a drawn basis."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        scalar = draw(st.sampled_from([INTEGERS, RATIONALS]))
        constants = [[[draw(scalar) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return AlgebraStructure("random", n, constants)
    A = load_algebra(draw(st.sampled_from(SMALL_TABLES)))
    if A.is_parametric():
        A = A.specialize({"alpha": draw(RATIONALS)})
    return change_basis(A, draw(_matrices(A.dim)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_structure_and_transform_results_hold_no_float(data):
    A = data.draw(_tables())
    results = [derivation_algebra(A)]
    idempotents = [A.zero_element()]
    try:
        split = wedderburn(A)
    except NassocError:
        pass
    else:
        results.append(split)
        idempotents += [A.element(e) for e in split.s_basis]
    for e in idempotents:
        try:
            results.append(peirce(A, e))
        except NonSplitOperator:
            pass  # a typed refusal: see test_peirce_refuses_a_wedderburn_idempotent_off_the_spectrum
    t = RatFunT.t()
    m = data.draw(_matrices(A.dim))
    powers = [data.draw(st.integers(0, 2)) for _ in range(A.dim)]
    columns = [[RatFunT(m[r][i]) * t ** powers[i] for r in range(A.dim)] for i in range(A.dim)]
    results.append(transform(A, ParamBasis(columns)))
    family = load_algebra(data.draw(st.sampled_from(["a2", "a02", "a06", "a07", "a10", "a12"])))
    alpha = RatFunT(data.draw(RATIONALS)) + data.draw(INTEGERS) * t
    columns = [[RatFunT(int(r == i)) * t ** (i % 2) for r in range(family.dim)] for i in range(family.dim)]
    results.append(transform(family, ParamBasis(columns, {"alpha": alpha})))
    assert not list(_floats(results))


def test_peirce_refuses_a_wedderburn_idempotent_off_the_spectrum():
    """On e2 e1 = e1, e2 e2 = -e2 the split is verified at the idempotent -e2,
    but L+ of -e2 has the eigenvalue -1/2 on e1, so the Peirce split refuses it."""
    A = AlgebraStructure("t", 2, [[[0, 0], [0, 0]], [[1, 0], [0, -1]]])
    split = wedderburn(A)
    assert split.s_basis == [[0, -1]] and split.r_basis == [[1, 0]]
    assert split.all_ok
    with pytest.raises(NonSplitOperator, match="caught 1 of 2"):
        peirce(A, split.s_basis[0])
    assert not list(_floats([derivation_algebra(A), split]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pencil_invariant_holds_no_float(data):
    """A 3-dimensional 2-step algebra u u = s11 z, v v = s22 z,
    u v = (s12 + k) z, v u = (s12 - k) z in a drawn basis: the invariant is
    det(S) / k^2, a Fraction."""
    s11, s22, s12 = (data.draw(RATIONALS) for _ in range(3))
    k = data.draw(RATIONALS.filter(bool))
    z = [0, 0, 1]
    constants = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    for (i, j), c in {(0, 0): s11, (1, 1): s22, (0, 1): s12 + k, (1, 0): s12 - k}.items():
        constants[i][j] = [c * x for x in z]
    A = change_basis(AlgebraStructure("pencil", 3, constants), data.draw(_matrices(3)))
    value = pencil_invariant(A)
    assert type(value) is Q
    assert value == Q(s11 * s22 - s12 * s12) / (k * k)
