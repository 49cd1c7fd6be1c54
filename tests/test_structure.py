"""Tests for derivations, chains, Peirce splits, the semisimple/radical
decomposition, cocycle products, and fingerprints."""

import random
from fractions import Fraction

import pytest

from nassoc.algebras import AlgebraStructure, check_identity
from nassoc.corpus import corpus_names, load_algebra
from nassoc.errors import NonSplitOperator, NotIdempotent, ParametricNotSupported, VerificationFailed
from nassoc.exact.linalg import express
from nassoc.exact.poly import PolyQ
from nassoc.reproduce import specializations
from nassoc.structure import (
    CocycleSpec,
    _lplus_matrix,
    _monomial_parts,
    algebra_from_cocycle,
    annihilator_dim,
    change_basis,
    derivation_algebra,
    fingerprint,
    is_leibniz_derivation,
    peirce,
    power_subspaces,
    powers_and_nilpotency,
    product_span_vectors,
    restrict_to_subspace,
    subalgebra_identity_check,
    trace_form_gram,
    wedderburn,
)
from nassoc.systems import builtin_system
from oracles import bareiss_rank

Q = Fraction


def zero_algebra(n):
    consts = [[[PolyQ.zero()] * n for _ in range(n)] for _ in range(n)]
    return AlgebraStructure("zero", n, consts)


# ---------------------------------------------------------------------------
# derivations


def test_derivations_of_split_semisimple():
    assert derivation_algebra(load_algebra("A17")).dim == 0


def test_derivations_of_zero_algebra():
    assert derivation_algebra(zero_algebra(4)).dim == 16


def test_derivations_of_a12_at_one():
    """Direct computation gives a 4-dimensional derivation algebra (the
    published orbit count 13 for this family is the orbit dimension 12 of
    each member plus one for the parameter)."""
    A = load_algebra("a12").specialize({"alpha": 1})
    der = derivation_algebra(A)
    assert der.dim == 4
    for m in der.matrices:
        assert is_leibniz_derivation(A, m, 2)


def test_derivation_solution_space_matches_bareiss_rank():
    A = load_algebra("a13")
    n = A.dim
    rows = []
    c = [[[p for p in A.constants[i][j]] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [Q(0)] * (n * n)
                for l in range(n):
                    row[m * n + l] += c[i][j][l]
                for k in range(n):
                    row[k * n + i] -= c[k][j][m]
                    row[k * n + j] -= c[i][k][m]
                rows.append(row)
    assert derivation_algebra(A).dim == n * n - bareiss_rank(rows)


def test_derivations_require_specialization():
    with pytest.raises(ParametricNotSupported):
        derivation_algebra(load_algebra("a2"))


# ---------------------------------------------------------------------------
# Leibniz derivations


def test_derivation_is_leibniz_of_order3():
    A = load_algebra("a12").specialize({"alpha": 1})
    for m in derivation_algebra(A).matrices:
        assert is_leibniz_derivation(A, m, 3)


def test_identity_map_on_two_step_nilpotent():
    A = load_algebra("a1")
    eye = [[Q(i == j) for j in range(3)] for i in range(3)]
    # all triple products vanish, so the order-3 condition degenerates to 0 = 0
    assert is_leibniz_derivation(A, eye, 3)


def test_non_derivation_detected():
    A = load_algebra("A04")  # e1 e1 = e2
    D = [[Q(1), Q(0)], [Q(0), Q(0)]]  # e1 -> e1, e2 -> 0
    assert not is_leibniz_derivation(A, D, 2)


def test_leibniz_order_below_one_is_rejected():
    # shapes(0) is empty, so an order-0 check would hold for any matrix
    A = load_algebra("A04")
    D = [[Q(1), Q(0)], [Q(0), Q(0)]]
    for n in (0, -1):
        with pytest.raises(ValueError):
            is_leibniz_derivation(A, D, n)


def test_single_bracketing_option():
    from nassoc.terms import shapes

    A = load_algebra("a1")
    eye = [[Q(i == j) for j in range(3)] for i in range(3)]
    assert is_leibniz_derivation(A, eye, 3, shapes(3)[0])


# ---------------------------------------------------------------------------
# power chains


def test_powers_of_family():
    rep = powers_and_nilpotency(load_algebra("a2"))
    assert rep.is_nilpotent and rep.is_solvable
    assert rep.nilpotency_class == 2
    assert rep.power_dims[:3] == [3, 1, 0]


def test_powers_idempotent_algebra():
    rep = powers_and_nilpotency(load_algebra("A17"))
    assert not rep.is_nilpotent and not rep.is_solvable
    assert rep.nilpotency_class is None


def test_powers_zero_algebra():
    rep = powers_and_nilpotency(zero_algebra(3))
    assert rep.is_nilpotent and rep.nilpotency_class == 1


def test_power_chain_dims_match_bareiss_rank():
    # A^k is spanned by the products of A^i and A^(k-i); the fraction-free
    # rank of those raw vectors checks the RREF spans independently
    for name in corpus_names():
        A = load_algebra(name)
        chain = power_subspaces(A)
        assert len(chain[0]) == A.dim
        for k in range(2, len(chain) + 1):
            raw = [v for i in range(1, k) for v in product_span_vectors(A, chain[i - 1], chain[k - i - 1])]
            assert len(chain[k - 1]) == bareiss_rank(raw), (name, k)


def _express_restriction(A, sub):
    """Oracle: the restricted constants with each product part's coordinates
    solved by its own `express` elimination, not read at the pivots."""
    r = len(sub)
    constants = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            coords = [0] * r
            for mono, vec in _monomial_parts(A, A.mul(A.element(sub[i]), A.element(sub[j]))):
                coeffs = express(sub, vec)
                assert coeffs is not None
                for t in range(r):
                    if coeffs[t]:
                        coords[t] = coords[t] + mono * coeffs[t]
            constants[i][j] = coords
    return AlgebraStructure("oracle", r, constants, A.parameters).constants


def test_restriction_reads_coordinates_at_pivots():
    levels = families = 0
    for name in corpus_names():
        A = load_algebra(name)
        for k, sub in enumerate(power_subspaces(A), start=1):
            if sub:
                got = restrict_to_subspace(A, sub, f"{name}^{k}")
                assert got.constants == _express_restriction(A, sub), (name, k)
                levels += 1
                families += bool(A.parameters)
    assert (levels, families) == (120, 14)


def test_restriction_to_a_non_subalgebra_fails():
    dim5 = load_algebra("dim5_nonassoc")
    e1 = [Q(1), Q(0), Q(0), Q(0), Q(0)]
    with pytest.raises(VerificationFailed):
        restrict_to_subspace(dim5, [e1], "span(e1)")


def test_subalgebra_identity_checks():
    dim5 = load_algebra("dim5_nonassoc")
    assert subalgebra_identity_check(dim5, 2, builtin_system("as")).holds
    assert subalgebra_identity_check(dim5, 3, builtin_system("com-as")).holds
    assert not subalgebra_identity_check(dim5, 1, builtin_system("as")).holds


# ---------------------------------------------------------------------------
# Peirce splits


def test_peirce_split_semisimple():
    A = load_algebra("A17")
    split = peirce(A, A.basis_element(1))
    assert split.dims() == (3, 0, 1)
    assert split.a_half_zero and split.a0_ideal and split.a1_ideal and split.cross_products_zero


def test_peirce_a12():
    A = load_algebra("a12").specialize({"alpha": 1})
    split = peirce(A, A.basis_element(4))
    assert split.dims() == (3, 0, 1)
    assert split.a1 == [[Q(0), Q(0), Q(0), Q(1)]]


def test_peirce_zero_element():
    A = load_algebra("A17")
    split = peirce(A, A.zero_element())
    assert split.dims() == (4, 0, 0)


def test_peirce_rejects_non_idempotent():
    A = load_algebra("A17")
    with pytest.raises(NotIdempotent):
        peirce(A, A.element([2, 0, 0, 0]))


def test_peirce_reads_its_element_like_a_element():
    # a wrong coordinate count used to be reported as a parameter problem
    A = load_algebra("A10")
    with pytest.raises(ValueError, match="coordinate vector has the wrong length"):
        peirce(A, (1, 0))
    with pytest.raises(ParametricNotSupported, match="rational coordinates"):
        peirce(A, (PolyQ.var("x"), 0, 0))
    assert peirce(A, (1, 0, 0)).dims() == peirce(A, A.basis_element(1)).dims()


def test_peirce_non_split_operator():
    # e1 idempotent with e1 e2 = 3 e2 = e2 e1: the averaged operator has
    # eigenvalue 3, outside {0, 1/2, 1}
    A = AlgebraStructure("bad", 2, [[[1, 0], [0, 3]], [[0, 3], [0, 0]]])
    with pytest.raises(NonSplitOperator):
        peirce(A, A.basis_element(1))


# ---------------------------------------------------------------------------
# semisimple + radical splits


def test_wedderburn_split_semisimple():
    split = wedderburn(load_algebra("A17"))
    assert split.dims() == (4, 0)
    assert split.all_ok


def test_wedderburn_nilpotent():
    split = wedderburn(load_algebra("a02").specialize({"alpha": 1}))
    assert split.dims() == (0, 4)
    assert split.all_ok


def test_wedderburn_a12():
    split = wedderburn(load_algebra("a12").specialize({"alpha": 1}))
    assert split.dims() == (1, 3)
    assert split.all_ok
    assert split.s_basis == [[Q(0), Q(0), Q(0), Q(1)]]
    for i in range(3):
        v = [Q(0)] * 4
        v[i] = Q(1)
        assert express(split.r_basis, v) is not None


def test_wedderburn_nonsplit_over_q():
    # Q[x]/(x^2 + 1): semisimple but its idempotent data is not rational
    A = AlgebraStructure("gauss", 2, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])
    with pytest.raises(VerificationFailed):
        wedderburn(A)


def test_trace_form_gram_matches_the_lplus_traces():
    """The Gram matrix read off the structure constants equals the traces of
    the matrices of x -> (zx + xz)/2 at z = e_i o e_j, on every corpus table,
    each family as a family and at every sampled parameter value, and on
    seeded random tables, whose left and right multiplications differ."""
    rng = random.Random(3)
    values = (0, 0, 1, -1, 2, Q(1, 2))
    def random_table(name):
        return AlgebraStructure(name, 3, [[[rng.choice(values) for _ in range(3)] for _ in range(3)] for _ in range(3)])

    tables = [random_table(f"random{t}") for t in range(5)]
    for A in [*map(load_algebra, corpus_names()), *tables]:
        for S in dict.fromkeys([A, *specializations(A)]):
            n, gram = S.dim, trace_form_gram(S)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    bi, bj = S.basis_element(i), S.basis_element(j)
                    m = _lplus_matrix(S, S.scale(Q(1, 2), S.add(S.mul(bi, bj), S.mul(bj, bi))))
                    assert gram[i - 1][j - 1] == sum(m[k][k] for k in range(n)), (S.name, i, j)


def test_wedderburn_corpus_samples():
    for name in ("A08", "A21", "a11", "a05"):
        A = load_algebra(name)
        split = wedderburn(A)
        assert split.all_ok, name


# ---------------------------------------------------------------------------
# cocycle construction


def test_cocycle_reproduces_family():
    L1 = load_algebra("L1")
    alpha = PolyQ.var("alpha")
    theta = CocycleSpec(
        3,
        {
            (1, 1): (PolyQ.zero(), PolyQ.zero(), PolyQ.const(1)),
            (2, 2): (PolyQ.zero(), PolyQ.zero(), alpha),
        },
    )
    built = algebra_from_cocycle(L1, theta)
    ref = load_algebra("a2")
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert built.constants[i][j][k] == ref.constants[i][j][k]
    assert check_identity(built, builtin_system("sas")).holds


def test_zero_cocycle_gives_bracket():
    L1 = load_algebra("L1")
    built = algebra_from_cocycle(L1, CocycleSpec(3, {}))
    ref = load_algebra("a1")
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert built.constants[i][j][k] == ref.constants[i][j][k]
    assert check_identity(built, builtin_system("sas")).holds


def test_l2_admits_no_sampled_cocycle():
    """Sampled symmetric maps on the 4-dimensional filiform Lie algebra never
    produce a shift associative product (universal emptiness is out of scope)."""
    L2 = load_algebra("L2")
    samples = [Q(0), Q(1), Q(-1), Q(2)]
    found = 0
    import itertools

    for c34, c44, c11k in itertools.product(samples, repeat=3):
        theta = CocycleSpec(
            4,
            {
                (3, 4): (0, 0, 0, c34),
                (4, 4): (0, 0, 0, c44),
                (1, 1): (0, 0, 0, c11k),
            },
        )
        built = algebra_from_cocycle(L2, theta)
        if check_identity(built, builtin_system("sas")).holds:
            found += 1
    assert found == 0


def test_cocycle_requires_anticommutative():
    with pytest.raises(ValueError):
        algebra_from_cocycle(load_algebra("A04"), CocycleSpec(2, {}))


# ---------------------------------------------------------------------------
# fingerprints and basis changes


def test_fingerprint_separates_two_dim():
    fp3 = fingerprint(load_algebra("A03"))
    fp4 = fingerprint(load_algebra("A04"))
    assert fp3.as_tuple() != fp4.as_tuple()
    assert fp3.nilpotency_class is None and fp4.nilpotency_class == 2


def test_fingerprint_separates_symmetric_part():
    fp1 = fingerprint(load_algebra("a1"))
    fp2 = fingerprint(load_algebra("a2").specialize({"alpha": 0}))
    assert fp1.as_tuple() != fp2.as_tuple()
    assert fp1.dim_der_plus != fp2.dim_der_plus


def test_fingerprint_self_equal():
    fp = fingerprint(load_algebra("a13"))
    assert fp.as_tuple() == fingerprint(load_algebra("a13")).as_tuple()


def test_annihilator_dims():
    assert annihilator_dim(load_algebra("a1")) == 1
    assert annihilator_dim(zero_algebra(4)) == 4
    assert annihilator_dim(load_algebra("A17")) == 0


def test_change_basis_identity():
    A = load_algebra("a13")
    eye = [[Q(i == j) for j in range(4)] for i in range(4)]
    B = change_basis(A, eye)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert B.constants[i][j][k] == A.constants[i][j][k]


def test_change_basis_rejects_singular_matrix():
    A = load_algebra("a13")
    M = [[Q(1), Q(2), Q(0), Q(0)], [Q(2), Q(4), Q(0), Q(0)], [Q(0), Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(0), Q(1)]]
    with pytest.raises(ValueError, match="^matrix is singular$"):
        change_basis(A, M)


def test_change_basis_preserves_identities():
    import random

    from nassoc.moduli import random_invertible_matrix

    rng = random.Random(7)
    A = load_algebra("dim5_nonassoc")
    for _ in range(3):
        M = random_invertible_matrix(5, rng)
        B = change_basis(A, M)
        assert check_identity(B, builtin_system("sas")).holds
        assert not check_identity(B, builtin_system("as")).holds
