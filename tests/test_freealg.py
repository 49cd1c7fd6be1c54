"""Tests for free-algebra bases and normal forms."""

import random
from fractions import Fraction

import pytest

from nassoc.errors import DegreeTooLarge
from nassoc.exact.linalg import inverse
from nassoc.exact.poly import ratio
from hypothesis import given, settings
from hypothesis import strategies as st

from nassoc.freealg import (
    CircleWord,
    NormalForm,
    _quotient,
    cas_normal_form,
    free_basis,
    label_expr,
    label_str,
    normal_form,
    sas_normal_form,
)
from nassoc.operads import MultilinearSpace, consequences, multilinear_dim, prove_zero
from nassoc.reproduce import _nf_verdicts
from nassoc.systems import builtin_system
from nassoc.terms import Expr, build_word, circle, degree, parse_expr, shapes

Q = Fraction


# ---------------------------------------------------------------------------
# basis enumeration


def test_shift_basis_counts():
    assert len(free_basis("sas", 4, 4, multilinear=True)) == 12
    assert len(free_basis("sas", 5, 5, multilinear=True)) == 1
    assert len(free_basis("sas", 3, 2)) == 8  # all right-normed words on 2 generators


def test_cyclic_basis_counts():
    labels = free_basis("cas", 3, 3, multilinear=True)
    assert labels == [(1, (2, 3)), (1, (3, 2))]
    assert len(free_basis("cas", 4, 4, multilinear=True)) == 1


def test_counts_match_dimensions():
    for variety in ("sas", "cas"):
        sysn = builtin_system(variety)
        for n in range(1, 6):
            assert len(free_basis(variety, n, n, multilinear=True)) == multilinear_dim(sysn, n)


def test_sorted_circle_words_with_repeats():
    labels = free_basis("sas", 5, 2)
    assert all(isinstance(lab, CircleWord) for lab in labels)
    assert len(labels) == 6  # multisets of size 5 from 2 generators
    assert labels[0].indices == (1, 1, 1, 1, 1)


def test_degree4_repeats_dedupe():
    # with i = j the twelve patterns can coincide as words
    labels = free_basis("sas", 4, 1)
    assert len(labels) == len(set(labels))


# ---------------------------------------------------------------------------
# normal forms


def test_nf_rewrites_left_comb():
    nf = sas_normal_form(parse_expr("((x1 x2) x3)"))
    assert nf.terms == [(Q(1), (2, (3, 1)))]
    assert str(nf) == "(x2 (x3 x1))"


def test_nf_circle_word_fixed():
    e = parse_expr("(x1 o (x2 o (x3 o (x4 o x5))))")
    nf = sas_normal_form(e)
    assert nf.terms == [(Q(1), CircleWord((1, 2, 3, 4, 5)))]
    assert nf.expr == e


def test_nf_degree5_collapse():
    nf = sas_normal_form(parse_expr("(((x1 x2) (x3 x4)) x5)"))
    assert nf.terms == [(Q(1), CircleWord((1, 2, 3, 4, 5)))]


def test_nf_idempotent_and_sound_spot():
    sas = builtin_system("sas")
    cons5 = consequences(sas, 5)
    for text in ("(((x1 x2) x3) (x4 x5))", "((x1 (x2 x3)) (x4 x5))", "(x5 ((x4 x3) (x2 x1)))"):
        e = parse_expr(text)
        nf = sas_normal_form(e)
        assert sas_normal_form(nf.expr).expr == nf.expr
        assert cons5.contains_expr(e - nf.expr)


def test_nf_repeated_variables():
    e = parse_expr("((x1 x1) x1)")
    nf = sas_normal_form(e)
    assert nf.terms == [(Q(1), (1, (1, 1)))]
    e5 = parse_expr("(((x2 x1) (x1 x2)) x1)")
    nf5 = sas_normal_form(e5)
    assert len(nf5.terms) == 1
    assert nf5.terms[0][1] == CircleWord((1, 1, 1, 2, 2))
    assert sas_normal_form(nf5.expr).expr == nf5.expr


def test_nf_mixed_degrees_and_linearity():
    e = parse_expr("((x1 x2) x3) + 3 * (x1 x2)")
    nf = sas_normal_form(e)
    assert sorted(str(label_str(lab)) for _, lab in nf.terms) == ["(x1 x2)", "(x2 (x3 x1))"]


def test_cas_normal_forms():
    nf = cas_normal_form(parse_expr("((x2 x3) x1)"))
    assert nf.terms == [(Q(1), (1, (2, 3)))]
    nf2 = cas_normal_form(parse_expr("(x1 (x2 x3))"))
    assert nf2.terms == [(Q(1), (1, (2, 3)))]
    nf3 = cas_normal_form(parse_expr("((x1 x2) (x3 x4))"))
    assert nf3.terms == [(Q(1), CircleWord((1, 2, 3, 4)))]


def test_cas_degree3_order_normalization():
    # x2(x3 x1) is cyclically equal to x1(x2 x3) in the cyclic variety
    nf = cas_normal_form(parse_expr("(x2 (x3 x1))"))
    assert nf.terms == [(Q(1), (1, (2, 3)))]


def test_nf_kills_consequences():
    sas = builtin_system("sas")
    e = parse_expr("((x1 x2) x3) - (x2 (x3 x1))")
    assert sas_normal_form(e).terms == []


def test_nf_degree_cap():
    deep = parse_expr("(x1 (x2 (x3 (x4 (x5 (x6 (x7 x8)))))))")
    with pytest.raises(DegreeTooLarge):
        sas_normal_form(deep)


@pytest.mark.parametrize("variety,n", [(v, n) for v in ("sas", "cas") for n in range(1, 6)])
def test_nf_exhaustive(variety, n):
    """Every multilinear word: lands in the basis, sound, idempotent.

    A sound normal form in the basis is unique, so this pins it down.  The
    Expr-level checks are the oracle for the index-vector verdicts of
    reproduce-paper's rows, on each normal form and on its double, which is
    unsound unless it is zero.
    """
    cons = consequences(builtin_system(variety), n)
    space = MultilinearSpace(n)
    basis_labels = set(free_basis(variety, n, n, multilinear=True))
    q = _quotient(variety, n, None)
    assert [{k: ratio(x, q.den) for k, x in vec.items()} for vec in q.vecs] == [
        space.expr_to_vec(label_expr(label)) for label in q.labels
    ]
    for idx in range(space.dim):
        e = space.vec_to_expr({idx: Q(1)})
        nf = normal_form(e, variety)
        assert all(lab in basis_labels for _, lab in nf.terms)
        assert cons.contains_expr(e - nf.expr)
        assert normal_form(nf.expr, variety).terms == nf.terms
        for cand in (nf, NormalForm([(2 * c, lab) for c, lab in nf.terms])):
            idempotent = normal_form(cand.expr, variety).terms == cand.terms
            sound = cons.contains_expr(e - cand.expr)
            assert _nf_verdicts(q, idx, cand) == (idempotent, sound)


def _fraction_coords(q, vec) -> list:
    """The label coordinates of vec in Fraction arithmetic: its residual
    times the inverse of the labels' residuals on the free columns."""
    free = {col: j for j, col in enumerate(q.cons.free())}
    matrix = [[Q(0)] * len(free) for _ in q.labels]
    for row, label in zip(matrix, q.labels):
        for col, c in q.cons.reduce_vec(q.cons.space.expr_to_vec(label_expr(label))).items():
            row[free[col]] = Q(c)
    inv = inverse(matrix)
    out = [Q(0)] * len(q.labels)
    for col, r in q.cons.reduce_vec(vec).items():
        for i, x in enumerate(inv[free[col]]):
            out[i] += Q(r) * x
    return out


def _canonical(x) -> bool:
    return type(x) is int or (type(x) is Q and x.denominator != 1)


@pytest.mark.parametrize("variety,n", [(v, n) for v in ("sas", "cas") for n in range(1, 6)])
def test_integer_quotient_matches_fraction_arithmetic(variety, n):
    """expand and coords, on integer vectors over one denominator, agree with
    the same sums and coordinates taken in Fraction, and hand out canonical
    values: random coordinates with zeros, negatives and non-unit fractions,
    and random integer vectors over random denominators."""
    rng = random.Random(10 * n + (variety == "cas"))
    q = _quotient(variety, n, None)
    space = q.cons.space
    label_vecs = [space.expr_to_vec(label_expr(label)) for label in q.labels]
    values = (0, 0, 1, -1, 3, Q(1, 2), Q(-2, 3), Q(5, 4), Q(-7, 6))
    for _ in range(25):
        c = [rng.choice(values) for _ in q.labels]
        w, d = q.expand(c)
        want: dict = {}
        for ci, vec in zip(c, label_vecs):
            for k, x in vec.items():
                want[k] = want.get(k, Q(0)) + ci * x
        assert {k: Q(x, d) for k, x in w.items()} == {k: x for k, x in want.items() if x}
        assert all(type(x) is int for x in (d, *w.values()))
        got = q.coords(w, d)
        assert got == _fraction_coords(q, {k: Q(x, d) for k, x in w.items()}) == c
        assert all(map(_canonical, got))

        v = {rng.randrange(space.dim): rng.randint(-5, 5) for _ in range(4)}
        den = rng.choice((1, -2, 3, 6, 16))
        got = q.coords(v, den)
        assert got == _fraction_coords(q, {k: Q(x, den) for k, x in v.items()})
        assert all(map(_canonical, got))


@st.composite
def _word(draw, n):
    shape = draw(st.sampled_from(shapes(n)))
    return build_word(shape, draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))


@st.composite
def _mixed_expr(draw):
    """A sum of words of degree 1..5 on x1..x3 with rational coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        word = draw(st.integers(1, 5).flatmap(_word))
        c = Q(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[word] = terms.get(word, Q(0)) + c
    return Expr({w: c for w, c in terms.items() if c != 0})


@pytest.mark.parametrize("variety", ["sas", "cas"])
@settings(max_examples=100, deadline=None)
@given(e=_mixed_expr())
def test_nf_property_on_mixed_input(variety, e):
    """Repeated variables and mixed degrees: sound, idempotent, in the basis."""
    nf = normal_form(e, variety)
    assert prove_zero(e - nf.expr, builtin_system(variety))
    assert normal_form(nf.expr, variety).terms == nf.terms
    for _, label in nf.terms:
        n = len(label.indices) if isinstance(label, CircleWord) else degree(label)
        assert label in free_basis(variety, n, 3)


def _nested_circle(indices) -> Expr:
    """x_{i1} o (x_{i2} o (...)) through the circle sugar, one product at a time."""
    out = Expr.var(indices[-1])
    for i in reversed(indices[:-1]):
        out = circle(Expr.var(i), out)
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(1, 3), min_size=n, max_size=n)))
def test_circle_word_expr_matches_nested_circle(indices):
    """The closed form sums its repeated words in the order the nested
    products write them."""
    got, want = CircleWord(tuple(indices)).expr, _nested_circle(indices)
    assert got == want
    assert list(got.terms) == list(want.terms)


def test_basis_size_is_checked_before_enumeration():
    # 2000^3 = 8e9 words: refused before any is built
    with pytest.raises(DegreeTooLarge):
        free_basis("sas", 3, 2000)
    assert free_basis("sas", 3, 2000, multilinear=True) == free_basis("sas", 3, 3, multilinear=True)
