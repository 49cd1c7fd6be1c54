"""Tests for words, expressions, the identity DSL, and multilinearization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nassoc.errors import IndexOutOfRange, NotHomogeneous, ParseError, UnbalancedParens
from nassoc.terms import (
    Expr,
    Identity,
    build_word,
    catalan,
    leaves,
    multilinearize,
    parse_expr,
    parse_identity,
    shape_and_leaves,
    shape_at,
    shape_of,
    shapes,
    word_key,
)
from oracles import subs_vars

Q = Fraction
H = Q(1, 2)


# ---------------------------------------------------------------------------
# parsing


def test_parse_left_comb():
    e = parse_expr("((x1 x2) x3)")
    assert e == Expr({((1, 2), 3): Q(1)})


def test_parse_bracket_sugar():
    e = parse_expr("[x1,x2]")
    assert e == Expr({(1, 2): H, (2, 1): -H})


def test_parse_circle_sugar():
    e = parse_expr("(x1 o x2)")
    assert e == Expr({(1, 2): H, (2, 1): H})


def test_parse_associator_circle():
    # ((x1,x2,x3) o x4): expand associator, then the anticommutator by hand
    e = parse_expr("((x1,x2,x3) o x4)")
    expected = Expr(
        {
            (((1, 2), 3), 4): H,
            (4, ((1, 2), 3)): H,
            ((1, (2, 3)), 4): -H,
            (4, (1, (2, 3))): -H,
        }
    )
    assert e == expected
    assert len(e.terms) == 4
    assert e.degrees() == {4}


def test_parse_coefficients():
    e = parse_expr("2 * (x1 x2) - 1/2 * (x2 x1)")
    assert e == Expr({(1, 2): Q(2), (2, 1): Q(-1, 2)})


def test_parse_identity_two_sides():
    ident = parse_identity("((x1 x2) x3) = (x2 (x3 x1))")
    assert ident.expr == Expr({((1, 2), 3): Q(1), (2, (3, 1)): Q(-1)})
    assert ident.degree == 3
    assert ident.nvars == 3


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("(x1 $ x2)")
    assert err.value.position == 4


def test_zero_denominator_is_a_parse_error():
    from nassoc import exprparse

    with pytest.raises(ParseError) as err:
        parse_expr("(x1 x2) + 2/0*(x2 x1)")
    assert err.value.position == 12
    for text in ("1/0", "alpha/(alpha-alpha)", "(1-1)^-2"):
        with pytest.raises(ParseError):
            exprparse.evaluate(text, {"alpha": Fraction(3)}, Fraction)
    assert exprparse.evaluate("1/(alpha-2)", {"alpha": Fraction(3)}, Fraction) == 1


def test_unbalanced_parens():
    with pytest.raises(UnbalancedParens):
        parse_expr("((x1 x2) x3")
    with pytest.raises(UnbalancedParens):
        parse_expr("[x1, x2)")


def test_nested_associator():
    e = parse_expr("((x1,x2,x3),x4,x5)")
    assert e.degrees() == {5}
    # (A x4) x5 - A (x4 x5) with A a 2-word associator: 4 signed words
    assert len(e.terms) == 4


# ---------------------------------------------------------------------------
# printing round-trip


def _random_word(data, vars_, depth):
    if depth == 0 or data.draw(st.booleans()):
        return data.draw(st.sampled_from(vars_))
    return (_random_word(data, vars_, depth - 1), _random_word(data, vars_, depth - 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_print_roundtrip(data):
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        w = _random_word(data, (1, 2, 3), 2)
        c = Q(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 4)))
        terms[w] = terms.get(w, Q(0)) + c
    e = Expr(terms)
    if e.is_zero():
        return
    assert parse_expr(str(e)) == e


def _expr_pairs(data):
    """Raw (word, coefficient) pairs on x1..x3, words repeating."""
    words = [_random_word(data, (1, 2, 3), 2) for _ in range(data.draw(st.integers(1, 3)))]
    coeff = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    return data.draw(st.lists(st.tuples(st.sampled_from(words), coeff), max_size=6))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_expr_constructor_sums_and_products_distribute(data):
    pa, pb, pc = _expr_pairs(data), _expr_pairs(data), _expr_pairs(data)
    a, b, c = Expr(pa), Expr(pb), Expr(pc)
    want = {}
    for w, x in pa:
        want[w] = want.get(w, 0) + x
    assert a.terms == {w: x for w, x in want.items() if x != 0}
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert (a - a).is_zero()
    for e in (a + b, a - b, a * b, (a * b).scale(Q(-2, 3))):
        assert 0 not in e.terms.values()


# ---------------------------------------------------------------------------
# relabeling variables


def _perm(images):
    """The relabeling x_i -> x_{images[i-1]}."""
    return dict(enumerate(images, start=1))


def test_relabel_examples():
    e = parse_expr("((x1 x2) x3)")
    assert e.relabel(_perm((2, 1, 3))) == parse_expr("((x2 x1) x3)")
    cyc = _perm((2, 3, 1))  # 1 -> 2 -> 3 -> 1
    assert e.relabel(cyc) == parse_expr("((x2 x3) x1)")


def test_bracket_antisymmetry_under_swap():
    e = parse_expr("[x1,x2]")
    assert e.relabel(_perm((2, 1))) == e.scale(-1)


def test_index_out_of_range():
    e = parse_expr("(x1 x4)")
    with pytest.raises(IndexOutOfRange):
        e.relabel(_perm((2, 1, 3)))


@settings(max_examples=50, deadline=None)
@given(st.permutations([1, 2, 3]), st.permutations([1, 2, 3]))
def test_group_action(p_imgs, q_imgs):
    e = parse_expr("((x1 x2) x3) - 2 * (x2 (x3 x1))")
    p, q = _perm(p_imgs), _perm(q_imgs)
    assert e.relabel(q).relabel(p) == e.relabel({i: p[q[i]] for i in q})


# ---------------------------------------------------------------------------
# multilinearization


def _extract_multilinear_111(expr):
    """Oracle: keep only terms using x1, x2, x3 exactly once."""
    from nassoc.terms import leaves

    keep = {}
    for w, c in expr.terms.items():
        if tuple(sorted(leaves(w))) == (1, 2, 3):
            keep[w] = c
    return Expr(keep)


def test_multilinearize_cube():
    ident = parse_identity("(x1,x1,x1) = 0")
    out = multilinearize(ident)
    assert len(out) == 1
    # oracle: expand (x1+x2+x3, x1+x2+x3, x1+x2+x3) and take the (1,1,1) part
    cube = parse_expr("(x1,x1,x1)")
    s = Expr({1: Q(1), 2: Q(1), 3: Q(1)})
    expanded = subs_vars(cube, {1: s})
    assert out[0].expr == _extract_multilinear_111(expanded)
    assert out[0].expr.is_multilinear()


def test_multilinearize_already_multilinear():
    ident = parse_identity("((x1 x2) x3) = (x2 (x3 x1))")
    assert multilinearize(ident) == [ident]


def test_multilinearize_power_identity():
    ident = parse_identity("((x1 x1) x1) = (x1 (x1 x1))")
    out = multilinearize(ident)
    assert len(out) == 1
    cube = parse_expr("((x1 x1) x1) - (x1 (x1 x1))")
    s = Expr({1: Q(1), 2: Q(1), 3: Q(1)})
    assert out[0].expr == _extract_multilinear_111(subs_vars(cube, {1: s}))


def test_multilinearize_recovers_input():
    ident = parse_identity("((x1 x1) x1) = (x1 (x1 x1))")
    (lin,) = multilinearize(ident)
    x = Expr.var(1)
    collapsed = subs_vars(lin.expr, {1: x, 2: x, 3: x})
    # collapsing the fresh variables gives 3! times the original identity
    assert collapsed == ident.expr.scale(6)


def test_multilinearize_inhomogeneous_rejected():
    with pytest.raises(NotHomogeneous):
        multilinearize(Identity(parse_expr("(x1 x2) + x1")))


def test_word_key_orders_by_shape():
    left = ((1, 2), 3)
    right = (1, (2, 3))
    assert word_key(left) < word_key(right)


def test_shape_and_leaves_walks_once_for_both():
    for n in range(1, 6):
        for shape in shapes(n):
            word = build_word(shape, range(n, 0, -1))
            assert shape_and_leaves(word) == (shape_of(word), leaves(word)) == (shape, tuple(range(n, 0, -1)))


def test_shape_at_unranks_the_listed_shapes():
    for n in range(1, 10):
        listed = shapes(n)
        assert len(listed) == catalan(n - 1)
        assert [shape_at(n, k) for k in range(len(listed))] == list(listed)
        for k in (-1, len(listed)):
            with pytest.raises(IndexError):
                shape_at(n, k)
