"""Tests for consequence spaces, dimensions, duals, and membership proofs."""

import itertools
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nassoc import operads
from nassoc.errors import DegreeTooLarge, NotMultilinear, NotQuadratic
from nassoc.exact import SeriesQ
from nassoc.exact.linalg import SparseRREF, rref
from nassoc.operads import (
    ConsequenceSpace,
    MultilinearSpace,
    _perms_lex,
    _step_maps,
    catalan,
    consequence_memory_estimate,
    consequences,
    hilbert,
    implies,
    koszul_dual,
    koszulity_residual,
    multilinear_dim,
    nice_index,
    polarized_identity_dim,
    prove_zero,
    resolve_degree_cap,
)
from nassoc.systems import _DEFINITIONS, BUILTIN_SYSTEM_NAMES, anti_system, builtin_system
from nassoc.terms import Expr, Identity, IdentitySystem, _shape_rank, build_word, parse_expr, parse_system, relabel_word, shape_and_leaves, shapes
from oracles import subs_vars

Q = Fraction


def _series(order, pairs):
    coeffs = [Q(0)] * order
    for n, c in pairs:
        coeffs[n - 1] = Q(c)
    return SeriesQ(order, coeffs)


# ---------------------------------------------------------------------------
# consequence spaces and dimensions


def test_associativity_degree3():
    cons = consequences(builtin_system("as"), 3)
    assert cons.dim == 6
    assert multilinear_dim(builtin_system("as"), 4) == 24


def test_sas_degree3():
    assert consequences(builtin_system("sas"), 3).dim == 6


def _rewrite_once(word):
    """All single applications of (uv)w -> v(wu) at any node of a word."""
    out = []
    if isinstance(word, int):
        return out
    left, right = word
    if isinstance(left, tuple):
        u, v = left
        out.append((v, (right, u)))
    for lw in _rewrite_once(left):
        out.append((lw, right))
    for rw in _rewrite_once(right):
        out.append((left, rw))
    return out


def test_sas_degree5_dimension_with_union_find_oracle():
    """Independent oracle: the ideal is spanned by single-step rewrites
    m - m', so its rank is (monomial count) - (connected components)."""
    space = MultilinearSpace(5)
    parent = list(range(space.dim))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in range(space.dim):
        w = space.word_at(idx)
        for w2 in _rewrite_once(w):
            a, b = find(idx), find(space.index_of_word(w2))
            if a != b:
                parent[a] = b
    components = len({find(i) for i in range(space.dim)})
    cons = consequences(builtin_system("sas"), 5)
    assert cons.dim == space.dim - components == 1679
    assert multilinear_dim(builtin_system("sas"), 5) == components == 1


def test_dimension_identity():
    for name in ("sas", "cas", "as", "a23"):
        sysn = builtin_system(name)
        for n in (2, 3, 4):
            cons = consequences(sysn, n)
            assert cons.dim + multilinear_dim(sysn, n) == cons.space.dim
            assert cons.space.dim == __import__("math").factorial(n) * catalan(n - 1)


def test_sas_dims_table():
    sas = builtin_system("sas")
    assert [multilinear_dim(sas, n) for n in range(1, 6)] == [1, 2, 6, 12, 1]


def test_a23_degree5():
    assert multilinear_dim(builtin_system("a23"), 5) == 20


def test_free_magma_dim():
    from nassoc.operads import free_magma_dim

    assert [free_magma_dim(n) for n in (1, 2, 3)] == [1, 2, 12]


def test_consequences_s3_stability():
    cons = consequences(builtin_system("sas"), 4)
    space = cons.space
    for row in cons.rref.basis()[:10]:
        expr = space.vec_to_expr(row)
        for images in ((2, 1, 3, 4), (4, 3, 2, 1), (2, 3, 4, 1)):
            relabeled = expr.relabel(dict(enumerate(images, start=1)))
            assert cons.contains_expr(relabeled)


# ---------------------------------------------------------------------------
# the Expr-level reference build of consequence spaces


def _degree_images(expr: Expr, m: int) -> list[Expr]:
    """The degree-(m+1) generators obtained from a degree-m relation."""
    xm1 = Expr.var(m + 1)
    images = [expr * xm1, xm1 * expr]
    for i in range(1, m + 1):
        images.append(subs_vars(expr, {i: Expr.var(i) * xm1}))
    return images


def _expr_consequences(sys, n: int) -> dict[int, SparseRREF]:
    """Degree 1..n consequence RREFs built through Expr trees, uncached,
    inserting relations in the same (row, generator, transposition) order."""
    out: dict[int, SparseRREF] = {}
    for m in range(1, n + 1):
        space = MultilinearSpace(m)
        acc = SparseRREF(space.dim)
        for row in out[m - 1].basis() if m > 1 else ():
            expr = MultilinearSpace(m - 1).vec_to_expr(row)
            for image in _degree_images(expr, m - 1):
                for j in range(1, m + 1):
                    tau = {i: i for i in range(1, m + 1)}
                    tau[j], tau[m] = m, j
                    acc.insert(space.expr_to_vec(image.relabel(tau)))
        for ident in (i for i in sys.identities if i.degree == m):
            for perm in _perms_lex(m):
                acc.insert(space.expr_to_vec(ident.expr.relabel({i + 1: perm[i] for i in range(m)})))
        out[m] = acc
    return out


# a cas presentation relabeled, recombined and rescaled as the benchmark draws them
_SEEDED_CAS = parse_system(
    "cas-seeded",
    "5/6*((x3 x1) x2) + 5/2*(x1 (x2 x3)) - 10/3*(x3 (x1 x2)) = 0\n"
    "2/3*((x3 x1) x2) - 2/3*(x3 (x1 x2)) = 0",
)


# its quotient dimensions are 1 2 3 1 0 0, so degrees 5 and 6 step from d = 1 and d = 0
_SIGNED = parse_system("signed", "((x1 x2) x3) = (x1 (x2 x3))\n((x1 x2) x3) = -(x3 (x2 x1))")

# degree 3 is one-dimensional, with p = -f on some monomials
_SIGN_TWISTED = parse_system(
    "sign-twisted", "((x1 x2) x3) = -((x2 x1) x3)\n((x1 x2) x3) = -((x1 x3) x2)\n((x1 x2) x3) = (x1 (x2 x3))"
)

# a random degree-3 relation whose degree-4 consequences are not integral
_FRACTIONAL = parse_system(
    "fractional", "1/2*((x2 x3) x1) + 1/2*((x3 x2) x1) - (x1 (x2 x3)) + 2*(x3 (x1 x2)) + (x3 (x2 x1)) = 0"
)


@pytest.mark.parametrize(
    "sys, n",
    [(builtin_system(name), 6 if name in ("sas", "cas") else 5) for name in BUILTIN_SYSTEM_NAMES]
    + [(_SEEDED_CAS, 5)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_index_build_matches_expr_oracle(sys, n):
    oracle = _expr_consequences(sys, n)
    for m in range(1, n + 1):
        rref = consequences(sys, m).rref
        assert rref.rows == oracle[m].rows, m
        assert _nonempty(rref.where) == _nonempty(oracle[m].where), m


def _word_generators(m: int):
    """Word-level generators in the order of the index maps."""
    new = m + 1
    gens = [lambda w: (w, new), lambda w: (new, w)]
    for i in range(1, m + 1):
        sub = {x: x for x in range(1, m + 1)}
        sub[i] = (i, new)
        gens.append(lambda w, sub=sub: relabel_word(w, sub))
    return gens


@pytest.mark.parametrize(
    "word",
    [
        ((1, 2), 2),  # a repeated variable
        ((1, 2), (3, 3)),  # a repeated variable, degree 4
        (1, 2),  # a wrong degree (and a missing variable)
        (((1, 2), 3), 4),  # a wrong degree
        ((0, 1), 2),  # x0 is outside 1..3
        ((1, 4), 2),  # x4 is outside 1..3, and x3 is missing
    ],
)
def test_expr_to_vec_rejects_non_multilinear_words(word):
    with pytest.raises(NotMultilinear, match="is not multilinear of degree 3"):
        MultilinearSpace(3).expr_to_vec(Expr.from_word(word) + Expr.from_word(((1, 2), 3)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expr_to_vec_inverts_word_at(n):
    space = MultilinearSpace(n)
    for idx in range(space.dim):
        assert space.expr_to_vec(Expr.from_word(space.word_at(idx), Fraction(3))) == {idx: Fraction(3)}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_step_maps_are_the_word_generators(m):
    src, dst = MultilinearSpace(m), MultilinearSpace(m + 1)
    maps = _step_maps(m)
    assert len(maps) == m + 2 and all(len(per_tau) == m + 1 for per_tau in maps)
    for per_tau in maps:
        for mp in per_tau:
            assert len(mp) == src.dim
            assert len(set(mp)) == src.dim
            assert 0 <= min(mp) and max(mp) < dst.dim
    sample = random.Random(m).sample(range(src.dim), min(src.dim, 60))
    for g, per_tau in zip(_word_generators(m), maps):
        for j, mp in enumerate(per_tau, start=1):
            tau = {x: x for x in range(1, m + 2)}
            tau[j], tau[m + 1] = m + 1, j
            for k in sample:
                assert mp[k] == dst.index_of_word(relabel_word(g(src.word_at(k)), tau))


def _generator_rows(sys, m: int, prev_rows) -> list[dict]:
    """The relations the degree-m build inserts: the images of the degree-(m-1)
    rows under the step maps, then the lifted degree-m identities."""
    gens = []
    if prev_rows:
        maps = _step_maps(m - 1)
        for row in prev_rows:
            for per_tau in maps:
                gens.extend({mp[k]: c for k, c in row.items()} for mp in per_tau)
    space = MultilinearSpace(m)
    for ident in (i for i in sys.identities if i.degree == m):
        vec = space.expr_to_vec(ident.expr)
        gens.extend(space.relabel_vec(vec, perm) for perm in _perms_lex(m))
    return gens


def _fraction_residual(rows: dict, vec: dict) -> dict:
    """vec minus its pivot coefficients times the rows, in Fractions only.
    This is the residual modulo span(rows) when the rows are in reduced
    echelon form."""
    out = {q: Q(c) for q, c in vec.items()}
    for p, c in vec.items():
        for q, rc in rows.get(p, {}).items():
            out[q] = out.get(q, Q(0)) - Q(c) * Q(rc)
    return {q: c for q, c in out.items() if c != 0}


def test_cas_dual_degree5_against_fraction_reducer():
    """Non-unit pivots (denominators 2, 3 and 6) take the Fraction fallback;
    check the built rows with arithmetic that shares nothing with SparseRREF."""
    sys = builtin_system("cas-dual")
    rows = consequences(sys, 5).rref.rows
    assert len(rows) == 771
    assert {c.denominator for row in rows.values() for c in map(Q, row.values())} >= {2, 3, 6}
    for p, row in rows.items():
        assert min(row) == p and row[p] == 1
        assert not (set(row) - {p}) & set(rows)
    gens = _generator_rows(sys, 5, consequences(sys, 4).rref.basis())
    assert gens
    for vec in gens:
        assert not _fraction_residual(rows, vec)


def test_cas_dual_rows_keep_integral_entries_as_int():
    """Eliminations in Fraction arithmetic store an integral result as int."""
    rows = consequences(builtin_system("cas-dual"), 5).rref.rows
    assert not [c for row in rows.values() for c in row.values() if type(c) is Q and c.denominator == 1]
    assert any(type(c) is Q for row in rows.values() for c in row.values())


@pytest.mark.parametrize("name", BUILTIN_SYSTEM_NAMES)
def test_degree4_matches_dense_rref(name):
    sys = builtin_system(name)
    dense_rows = None
    for m in range(1, 5):
        ncols = MultilinearSpace(m).dim
        gens = _generator_rows(sys, m, dense_rows)
        pivots, dense = rref([[Q(g.get(i, 0)) for i in range(ncols)] for g in gens])
        dense_rows = [{i: c for i, c in enumerate(row) if c != 0} for row in dense]
        assert consequences(sys, m).rref.rows == dict(zip(pivots, dense_rows)), m


def _nonempty(where: dict) -> dict:
    """`where` without the emptied sets that elimination can leave."""
    return {q: ps for q, ps in where.items() if ps}


def _spy_paths(monkeypatch) -> list:
    """Record (degree, build) for every degree that consequences builds, from
    an empty cache."""
    paths = []
    real_primal, real_graph = operads._primal_step, operads._shape_graph

    def primal(prev, m, lifted):
        paths.append((m, "_primal_step"))
        return real_primal(prev, m, lifted)

    def graph(n, patterns):
        paths.append((n, "_shape_graph"))
        return real_graph(n, patterns)

    monkeypatch.setattr(operads, "_primal_step", primal)
    monkeypatch.setattr(operads, "_shape_graph", graph)
    monkeypatch.setattr(operads, "_consequence_cache", {})
    return paths


def _graph_space(sys, m: int) -> ConsequenceSpace:
    """Degree m built on the shape graph from the patterns of the highest
    primal degree below it."""
    below = operads._primal_below(sys, m, None)
    return ConsequenceSpace("graph", m, operads._shape_graph(m, operads._patterns(below) if below else ()))


@pytest.mark.parametrize(
    "sys, m",
    [
        (builtin_system("sas"), 5),  # d_4 = 12
        (builtin_system("a12"), 5),  # d_4 = 12
        (builtin_system("cas-dual"), 4),  # d_3 = 10, not binomial
        (_FRACTIONAL, 4),  # d_3 = 7, denominators up to 56, not binomial
        (_SEEDED_CAS, 3),  # identities of its own
        (_SEEDED_CAS, 4),
        (_SEEDED_CAS, 5),
        (_SIGNED, 5),  # d_4 = 1
        (_SIGNED, 6),  # d_5 = 0
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_dual_step_matches_primal(sys, m, monkeypatch):
    """The shape graph, which solves the constraints on the functionals
    that vanish on I(m) by transports and a permutation group, leaves the
    primal build's RREF, entry for entry.  Where degree m has identities of
    its own, or the degree below is not binomial, the primal path is
    taken."""
    idents = [i for i in sys.identities if i.degree == m]
    prev = consequences(sys, m - 1)
    primal = operads._primal_step(prev.rref, m, operads._lifted(idents, m))
    congruent = operads._binomial(prev.rref) and not idents
    assert congruent == (sys is not _FRACTIONAL and sys.name != "cas-dual" and m != 3)
    if congruent:
        graph = _graph_space(sys, m)
        assert graph.dim == primal.rank
        assert graph.rref.rows == primal.rows
        assert graph.rref.where == _nonempty(primal.where)
    paths = _spy_paths(monkeypatch)
    assert consequences(sys, m).rref.rows == primal.rows
    assert paths[-1] == (m, "_shape_graph" if congruent else "_primal_step")
    if sys is _FRACTIONAL:
        assert max(Q(c).denominator for row in primal.rows.values() for c in row.values()) == 56


def test_representation_rule(monkeypatch):
    """A degree with no identities of its own is built on the shape graph
    exactly when the highest primal degree below it is binomial, and it
    builds only that degree, not the ones in between.  The check runs on the
    space, so the recombined and rescaled seeded cas qualifies and cas-dual
    does not.  A graph degree holds no RREF until one is asked for: the
    top degree's `dim` builds none."""
    paths = _spy_paths(monkeypatch)
    for sys, top in ((builtin_system("sas"), 6), (_SEEDED_CAS, 5), (builtin_system("cas-dual"), 4)):
        del paths[:]
        consequences(sys, top)
        primal = (3, 4) if sys.name == "cas-dual" else (3,)
        assert paths == [(2, "_shape_graph"), (3, "_primal_step"), (top, "_primal_step" if top in primal else "_shape_graph")]
        graphs = [consequences(sys, m).graph is not None for m in range(1, top + 1)]
        assert graphs == [m not in primal for m in range(1, top + 1)]
        assert (consequences(sys, top)._rref is None) == graphs[-1]
        assert [operads._binomial(consequences(sys, m).rref) for m in primal] == [sys.name != "cas-dual"] * len(primal)


def test_a_primal_degree_streams_the_graph_below(monkeypatch):
    """A degree with identities of its own above a graph degree reads the
    graph's rows one at a time: the graph degree builds no RREF, and the
    elimination equals the one on that RREF."""
    sys = parse_system("as-5", "((x1 x2) x3) = (x1 (x2 x3))\n((((x1 x2) x3) x4) x5) = ((((x2 x1) x3) x4) x5)")
    monkeypatch.setattr(operads, "_consequence_cache", {})
    top = consequences(sys, 5)
    below = consequences(sys, 4)
    assert top.graph is None and below.graph is not None and below._rref is None
    idents = [i for i in sys.identities if i.degree == 5]
    assert top.rref.rows == operads._primal_step(below.rref, 5, operads._lifted(idents, 5)).rows


def _nice_by_kernel(cons) -> bool:
    """The rule on the functionals that vanish on I(n): there is one, and it
    is 1 on every monomial."""
    kernel = cons.rref.kernel()
    return len(kernel) == 1 and len(kernel[0]) == cons.space.dim and set(kernel[0].values()) == {1}


def _assert_congruence_steps(cons, prev):
    """A binomial degree 3 gives back its RREF rows, and the shape graphs of
    degrees 4 and 5 on its patterns leave the primal rows and `where`, free
    positions, kernel and residuals, and are nice exactly when the kernel
    rule says so."""
    assert [row for _, row in cons.rows()] == prev.basis()
    patterns = operads._patterns(cons)
    rng = random.Random(len(patterns))
    for m in (4, 5):
        primal = operads._primal_step(prev, m, ())
        graph = ConsequenceSpace("graph", m, operads._shape_graph(m, patterns))
        assert graph.dim == primal.rank
        # the per-monomial readers first, before `rref` builds the rows
        for _ in range(3):
            vec = {rng.randrange(primal.ncols): Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)}
            assert graph.reduce_vec(vec) == primal.reduce(vec), m
        assert graph.free() == primal.free(), m
        assert graph.rref.kernel() == primal.kernel(), m
        assert graph.rref.rows == primal.rows, m
        assert graph.rref.where == _nonempty(primal.where), m
        assert graph.graph.is_nice() == _nice_by_kernel(graph), m
        prev = primal


@st.composite
def degree3_relations(draw):
    """1-3 random degree-3 relation vectors, not closed under relabeling."""
    space = MultilinearSpace(3)
    coefficients = st.sampled_from([0, 0, 0, 1, -1, 2, Q(1, 2)])
    return [
        {i: Q(c) for i in range(space.dim) if (c := draw(coefficients))}
        for _ in range(draw(st.integers(1, 3)))
    ]


@settings(max_examples=30, deadline=None)
@given(degree3_relations())
def test_dual_step_on_random_presentations(relations):
    """Random presentations whose degree-3 RREF rows all have at most two
    entries give the primal RREF at degrees 4 and 5 on their shape graphs;
    their degree 3 holds no shape graph either way."""
    space = MultilinearSpace(3)
    lifted = [space.relabel_vec(vec, perm) for vec in relations for perm in _perms_lex(3)]
    prev = operads._primal_step(SparseRREF(2), 3, lifted)
    cons = ConsequenceSpace("random", 3, prev)
    assert cons.graph is None
    if operads._binomial(prev):
        _assert_congruence_steps(cons, prev)


@st.composite
def binomial_presentations(draw):
    """1-3 random signed and rescaled binomials a*m1 + b*m2, or monomials,
    of degree 3, under every relabeling."""
    space = MultilinearSpace(3)
    scalars = st.sampled_from([1, -1, 2, -3, Q(1, 2), Q(-2, 3)])
    lifted = []
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, space.dim - 1))
        vec = {i: draw(scalars)}
        if draw(st.integers(0, 4)):
            vec[draw(st.integers(0, space.dim - 1).filter(lambda j: j != i))] = draw(scalars)
        lifted.extend(space.relabel_vec(vec, perm) for perm in _perms_lex(3))
    return lifted


@settings(max_examples=40, deadline=None)
@given(binomial_presentations())
def test_congruence_steps_on_binomial_presentations(lifted):
    """A span of binomials has RREF rows of at most two entries, whatever
    its signs and scales, and its shape graphs leave the primal RREF."""
    prev = operads._primal_step(SparseRREF(2), 3, lifted)
    cons = ConsequenceSpace("binomial", 3, prev)
    assert operads._binomial(prev)
    _assert_congruence_steps(cons, prev)


def test_a_corrupted_sign_changes_the_step():
    """a12 and a12-anti partition degree 4 alike and differ only in signs;
    from degree 5 on their dimensions differ, so the graph reads the signs."""
    a12, anti = builtin_system("a12"), anti_system("a12")
    assert [multilinear_dim(a12, n) for n in range(1, 7)] == [1, 2, 6, 12, 20, 30]
    assert [multilinear_dim(anti, n) for n in range(1, 7)] == [1, 2, 6, 12, 0, 0]
    plus, minus = consequences(a12, 4), consequences(anti, 4)
    assert plus.free() == minus.free() and plus.rref.basis() != minus.rref.basis()
    assert [row.keys() for row in plus.rref.basis()] == [row.keys() for row in minus.rref.basis()]
    # a12's patterns with their ratios negated are a12-anti's, and give its degree 5
    patterns = operads._patterns(consequences(a12, 3))
    swapped = [(p, q, k, -x) for p, q, k, x in patterns]
    assert swapped == operads._patterns(consequences(anti, 3))
    graph = ConsequenceSpace("swapped", 5, operads._shape_graph(5, swapped))
    assert graph.dim == consequences(anti, 5).dim != consequences(a12, 5).dim
    assert graph.free() == consequences(anti, 5).free() != consequences(a12, 5).free()
    assert graph.rref.basis() == consequences(anti, 5).rref.basis() != consequences(a12, 5).rref.basis()


@pytest.mark.parametrize("name, dim", [("sas", 1), ("a12", 42)])
def test_degree7_dimensions(name, dim):
    assert multilinear_dim(builtin_system(name), 7, cap=7) == dim


@pytest.mark.parametrize(
    "name, dim",
    [("sas", 1), ("as", 40320), ("cas", 1), ("a12", 56), ("a13", 270270), ("a132", 670320),
     ("a12-anti", 0), ("a13-anti", 270270)],
)
def test_degree8_dimensions(name, dim):
    """Degree-8 dimensions of the binomial built-ins, as monomial congruences,
    an independent path, computed them."""
    sys = anti_system(name.removesuffix("-anti")) if name.endswith("-anti") else builtin_system(name)
    assert multilinear_dim(sys, 8, cap=8) == dim


def test_a12_dimensions_are_n_times_n_minus_1():
    a12 = builtin_system("a12")
    assert [multilinear_dim(a12, n, cap=8) for n in range(2, 9)] == [n * (n - 1) for n in range(2, 9)]


@pytest.mark.parametrize(
    "text, dims",
    [
        ("((x1 x2) x3) = 0", [24, 120]),  # only the right comb survives
        ("((x1 x2) x3) = (x1 (x2 x3))\n(x1 x2) = -(x2 x1)", [0, 0]),  # d_3 = 0: every degree-3 row is a monomial
    ],
)
def test_a_monomial_identity_kills_its_components(text, dims):
    """A one-entry row matched at a node of a shape makes its whole
    component zero; checked against the primal build at degrees 4 and 5."""
    sys = parse_system("monomial", text)
    for m, dim in zip((4, 5), dims):
        primal = operads._primal_step(consequences(sys, m - 1).rref, m, ())
        graph = _graph_space(sys, m)
        assert graph.space.dim - graph.dim == dim
        assert any(comp.group is None for comp in graph.graph.components)
        assert graph.rref.rows == primal.rows, m
        assert graph.rref.where == _nonempty(primal.where), m


def _closure(gens, npoints):
    """The group generated by gens, by breadth-first search."""
    ident = tuple(range(npoints))
    seen, todo = {ident}, [ident]
    while todo:
        p = todo.pop()
        for g in gens:
            q = operads._compose(g, p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=4))))
def test_schreier_sims_matches_the_closure(case):
    """The stabilizer chain holds the group the added elements generate:
    the same order, the same elements, and membership by sifting."""
    n, gens = case
    chain = operads._Chain(n)
    for g in gens:
        chain.add(tuple(g))
    group = _closure([tuple(g) for g in gens], n)
    assert chain.order(n) == len(group)
    assert set(chain.elements()) == group
    assert all(chain._sifts(p, 0) == (p in group) for p in map(tuple, itertools.permutations(range(n))))


def test_positions_outside_the_space_are_rejected():
    """The same errors from the SparseRREF of a binomial primal build, from
    that degree's readers and from a graph degree's tables."""
    sas = builtin_system("sas")
    primal = consequences(sas, 3)
    assert primal.space.dim == 12 and operads._binomial(primal.rref) and primal.graph is None
    stepped = consequences(sas, 4)
    assert stepped.space.dim == 120
    for reduce_vec, contains_vec, ncols in (
        (primal.rref.reduce, primal.rref.contains, 12),
        (primal.reduce_vec, primal.contains_vec, 12),
        (stepped.reduce_vec, stepped.contains_vec, 120),
    ):
        with pytest.raises(ValueError, match=rf"position {ncols} is outside \[0, {ncols}\)"):
            contains_vec({ncols: 1})
        with pytest.raises(ValueError, match=rf"position -1 is outside \[0, {ncols}\)"):
            reduce_vec({-1: 1, ncols: 2})
        assert contains_vec({}) and reduce_vec({ncols - 1: 0}) == {}


# a binomial identity of degree 4 whose degree-5 weights are 1, 1/2 and 1/4
_WEIGHTED = parse_system("weighted", "((x1 x2) (x3 x4)) = 2 * (((x1 x2) x3) x4)")


@pytest.mark.parametrize(
    "sys, n",
    [(builtin_system("sas"), 5), (builtin_system("a12"), 5), (anti_system("a12"), 4), (_WEIGHTED, 5)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_congruence_readers_match_the_rref(sys, n):
    """Every reader of a graph degree gives what its SparseRREF gives, with
    weights +-1 and with rational ones."""
    cons = consequences(sys, n)
    assert cons.graph is not None
    rref = cons.rref
    assert rref.rows == operads._primal_step(consequences(sys, n - 1).rref, n, ()).rows
    assert cons.free() == rref.free()
    assert cons.rref.kernel() == rref.kernel()
    assert [row for _, row in cons.rows()] == rref.basis()
    assert cons.dim == rref.rank
    rng = random.Random(n)
    for _ in range(20):
        vec = {rng.randrange(cons.space.dim): Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)}
        assert cons.reduce_vec(vec) == rref.reduce(vec)
        assert cons.contains_vec(vec) == rref.contains(vec)
        assert all(type(c) is int or (type(c) is Q and c.denominator != 1) for c in cons.reduce_vec(vec).values())


def test_graph_tables_are_read_per_shape(monkeypatch):
    """A graph degree derives a shape's table only when a query reads that
    shape: `dim` reads none, a residual on one monomial reads its shape and
    that shape's root, and `free` adds only the roots of live components."""
    monkeypatch.setattr(operads, "_consequence_cache", {})
    cons = consequences(builtin_system("a13"), 7, cap=7)
    graph = cons.graph
    assert cons.dim == cons.space.dim - 20790 and graph._tables == {}
    comp = next(c for c in graph.components if c.group is not None and len(c.members) > 1)
    s = comp.members[1][0]
    assert s != comp.root
    cons.reduce_vec({s * cons.space.nperms + 17: 1})
    assert set(graph._tables) == {s, comp.root}
    roots = {c.root for c in graph.components if c.group is not None}
    assert len(cons.free()) == 20790
    assert set(graph._tables) == {s} | roots


def test_memory_estimate():
    assert consequence_memory_estimate(8) > 8 * 2**30
    assert 0.37e9 / 2 < consequence_memory_estimate(7) < 0.37e9 * 2


def test_memory_estimate_follows_the_path(monkeypatch):
    """A primal degree is charged before it is built, and a graph degree
    before its dict rows are built.  The graph build is not charged, nor are
    the tables its free positions and residuals are read from."""
    sas, casd = builtin_system("sas"), builtin_system("cas-dual")
    monkeypatch.setattr(operads, "_consequence_cache", {})
    consequences(sas, 3)
    consequences(casd, 3)
    monkeypatch.setattr(operads, "BYTES_PER_COLUMN", 2**40)
    assert consequences(sas, 5).dim == 1679  # degrees 4 and 5 are graph degrees
    assert consequences(sas, 5).free() == [1679]
    with pytest.raises(DegreeTooLarge, match="degree 4 needs about"):
        consequences(casd, 4)
    sas6 = consequences(sas, 6)
    assert sas6.dim == 30239
    assert sas6.free() == [30239]
    assert sas6.reduce_vec({0: 1, 1: 1, 777: 3, 30239: 1}) == {30239: 6}
    assert sas6.contains_vec({0: 1, 30239: -1})
    with pytest.raises(DegreeTooLarge, match="degree 6 needs about"):
        sas6.rref
    monkeypatch.setattr(operads, "BYTES_PER_COLUMN", 573)
    assert consequences(casd, 4).dim == 120 - 81


def test_graph_rows_are_charged_and_implies_streams(monkeypatch):
    """The dict rows of a graph degree are charged at BYTES_PER_COLUMN
    before they are built, while `implies` reads rows off the graph one at a
    time and so builds none."""
    sas, cas = builtin_system("sas"), builtin_system("cas")
    monkeypatch.setattr(operads, "_consequence_cache", {})
    consequences(sas, 3)
    consequences(cas, 3)
    monkeypatch.setattr(operads, "BYTES_PER_COLUMN", 2**40)
    with pytest.raises(DegreeTooLarge, match="degree 5 needs about"):
        consequences(sas, 5).rref
    assert implies(cas, sas, 5)


def test_build_beyond_memory_is_refused(monkeypatch):
    monkeypatch.setattr(operads, "BYTES_PER_COLUMN", 2**40)
    monkeypatch.setattr(operads, "_consequence_cache", {})
    with pytest.raises(DegreeTooLarge, match="GiB"):
        consequences(builtin_system("sas"), 3)


def test_degree_cap():
    with pytest.raises(DegreeTooLarge):
        consequences(builtin_system("sas"), 7)
    os.environ["NASSOC_DEGREE_CAP"] = "7"
    try:
        assert resolve_degree_cap(None) == 7
    finally:
        del os.environ["NASSOC_DEGREE_CAP"]
    assert resolve_degree_cap(None) == 6
    assert resolve_degree_cap(9) == 8


def test_degree_cap_errors_name_their_source(monkeypatch):
    monkeypatch.delenv("NASSOC_DEGREE_CAP", raising=False)
    with pytest.raises(DegreeTooLarge, match="^degree 9 exceeds the hard cap 8, which cannot be raised$"):
        consequences(builtin_system("sas"), 9, cap=9)
    with pytest.raises(DegreeTooLarge, match="^degree 7 exceeds the cap 6; raise it"):
        consequences(builtin_system("sas"), 7)
    for cap in (0, -3):
        with pytest.raises(ValueError, match=f"^the degree cap must be at least 1, got {cap}$"):
            resolve_degree_cap(cap)
        with pytest.raises(ValueError, match="degree cap must be at least 1"):
            consequences(builtin_system("sas"), 1, cap=cap)
    monkeypatch.setenv("NASSOC_DEGREE_CAP", "0")
    with pytest.raises(ValueError, match="^NASSOC_DEGREE_CAP must be at least 1, got '0'$"):
        resolve_degree_cap(None)


def test_anti_system_flips_exactly_the_single_binomial_builtins():
    """Every builtin name either flips as its definition text w1 = w2 read
    as w1 + w2 = 0, or is refused with a ValueError that names it."""
    flipped = []
    for name in BUILTIN_SYSTEM_NAMES:
        try:
            anti = anti_system(name)
        except ValueError as exc:
            assert str(exc).startswith(f"no sign-flipped variant of {name!r}"), exc
            continue
        lhs, rhs = _DEFINITIONS[name].split("=")
        assert anti == parse_system(f"{name}-anti", f"{lhs.strip()} + {rhs.strip()} = 0"), name
        assert anti.name == f"{name}-anti"
        flipped.append(name)
    assert flipped == list(ASSOCIATIVE_TYPE_BUILTINS)
    with pytest.raises(ValueError, match="^no sign-flipped variant of 'nope'"):
        anti_system("nope")


# ---------------------------------------------------------------------------
# Hilbert series and residuals


def test_hilbert_sas():
    assert hilbert(builtin_system("sas"), 5) == _series(
        5, [(1, -1), (2, 1), (3, -1), (4, Q(1, 2)), (5, Q(-1, 120))]
    )


def test_hilbert_a12():
    assert hilbert(builtin_system("a12"), 5) == _series(
        5, [(1, -1), (2, 1), (3, -1), (4, Q(1, 2)), (5, Q(-1, 6))]
    )


def test_residuals():
    sas = builtin_system("sas")
    assert koszulity_residual(sas, sas, 5) == _series(5, [(5, Q(61, 60))])
    asys = builtin_system("as")
    assert koszulity_residual(asys, asys, 5).is_zero()
    for name in ("a23", "a12"):
        sysn = builtin_system(name)
        assert koszulity_residual(sysn, koszul_dual(sysn), 5) == _series(5, [(5, Q(7, 6))])


def test_residual_rejects_nonquadratic():
    with pytest.raises(NotQuadratic):
        koszulity_residual(builtin_system("com-as"), builtin_system("as"), 5)


# ---------------------------------------------------------------------------
# Koszul duals


def _same(a, b) -> bool:
    """Whether two quadratic systems present the same operad."""
    return implies(a, b, 3) and implies(b, a, 3)


def test_dual_table():
    for name in ("as", "a123", "a132", "sas"):
        sys = builtin_system(name)
        assert _same(koszul_dual(sys), sys), name
    for name in ("a23", "a12", "a13"):
        sys = builtin_system(name)
        dual = koszul_dual(sys)
        assert _same(dual, anti_system(name)), name
        assert not _same(dual, sys), name


def test_dual_involution():
    for name in ("as", "sas", "a132"):
        sys = builtin_system(name)
        assert _same(koszul_dual(koszul_dual(sys)), sys)


@st.composite
def degree3_systems(draw):
    """Systems of 0-3 random degree-3 identities."""
    space = MultilinearSpace(3)
    coefficients = st.sampled_from([0, 0, 0, 1, -1, 2, Q(1, 2)])
    vecs = [{i: Q(c) for i in range(space.dim) if (c := draw(coefficients))} for _ in range(draw(st.integers(1, 3)))]
    return IdentitySystem("random", [Identity(space.vec_to_expr(vec)) for vec in vecs if vec])


@settings(max_examples=100, deadline=None)
@given(degree3_systems())
def test_dual_involution_on_random_presentations(sys):
    dual = koszul_dual(sys)
    assert consequences(sys, 3).dim + len(dual.identities) == 12
    assert _same(koszul_dual(dual), sys)


def _jacobi_dual(sys):
    """The dual's relation space through the Lie-admissibility expansion on
    tensor products, an independent path to `koszul_dual`.

    With (x (x) u)(y (x) v) := xy (x) uv, expand the Jacobi cyclic sum
    J = [[a(x)u, b(x)v], c(x)w] + [[b(x)v, c(x)w], a(x)u] + [[c(x)w, a(x)u], b(x)v],
    reduce each first-factor word modulo the relation space, and collect
    J = sum_beta beta (x) E_beta over a basis beta of the quotient.  The dual's
    relation space is the span of the E_beta, returned as its `SparseRREF`.
    """
    cons = consequences(sys, 3)
    space = cons.space
    collected: dict[int, dict] = {}
    for x, y, z in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        # [[x(x)x, y(x)y], z(x)z] expanded: four signed (S-word, U-word) pairs
        for sign, sword, uword in [
            (1, ((x, y), z), ((x, y), z)),
            (-1, ((y, x), z), ((y, x), z)),
            (-1, (z, (x, y)), (z, (x, y))),
            (1, (z, (y, x)), (z, (y, x))),
        ]:
            residual = cons.reduce_vec({space.index_of_word(sword): sign})
            uidx = space.index_of_word(uword)
            for beta, lam in residual.items():
                bucket = collected.setdefault(beta, {})
                bucket[uidx] = bucket.get(uidx, 0) + lam
    acc = SparseRREF(space.dim)
    for beta in sorted(collected):
        acc.insert(collected[beta])
    return acc


QUADRATIC_BUILTINS = [name for name in BUILTIN_SYSTEM_NAMES if name != "com-as"]
# the built-ins of one identity (x1 x2) x3 = w, whose anti_system reads (x1 x2) x3 = -w
ASSOCIATIVE_TYPE_BUILTINS = ("sas", "as", "a12", "a13", "a23", "a123", "a132")


@pytest.mark.parametrize(
    "sys",
    [builtin_system(name) for name in QUADRATIC_BUILTINS] + [anti_system(name) for name in ASSOCIATIVE_TYPE_BUILTINS],
    ids=lambda sys: sys.name,
)
def test_dual_matches_the_jacobi_expansion(sys):
    assert consequences(koszul_dual(sys), 3).rref.rows == _jacobi_dual(sys).rows


@settings(max_examples=100, deadline=None)
@given(degree3_systems())
def test_dual_matches_the_jacobi_expansion_on_random_presentations(sys):
    assert consequences(koszul_dual(sys), 3).rref.rows == _jacobi_dual(sys).rows


def test_dual_sas_explicit_identity():
    dual = koszul_dual(builtin_system("sas"))
    assert consequences(dual, 3).contains_expr(parse_expr("((x1 x2) x3) - (x2 (x3 x1))"))
    assert len(dual.identities) == 6


def test_cas_dual_is_the_associator_cycle():
    assert _same(koszul_dual(builtin_system("cas")), builtin_system("cas-dual"))


# the cube identity of power associativity, and its linearization
_CUBE = parse_system("cube", "((x1 x1) x1) = (x1 (x1 x1))")
_CUBE_LINEAR = parse_system(
    "cube-linear",
    "((x1 x2) x3) + ((x1 x3) x2) + ((x2 x1) x3) + ((x2 x3) x1) + ((x3 x1) x2) + ((x3 x2) x1)"
    " - (x1 (x2 x3)) - (x1 (x3 x2)) - (x2 (x1 x3)) - (x2 (x3 x1)) - (x3 (x1 x2)) - (x3 (x2 x1)) = 0",
)


def test_dual_reads_an_identity_through_its_linearization():
    dual = koszul_dual(_CUBE)
    assert dual.identities == koszul_dual(_CUBE_LINEAR).identities
    assert len(dual.identities) == 11
    assert koszulity_residual(_CUBE, dual, 5) == koszulity_residual(_CUBE_LINEAR, dual, 5)


# relations that span all twelve degree-3 monomials
_FULL = parse_system("full", "((x1 x2) x3) = 0\n(x1 (x2 x3)) = 0")


def test_dual_of_the_full_relation_space_is_the_free_operad():
    free = koszul_dual(_FULL)
    assert free.identities == ()
    assert [multilinear_dim(free, n) for n in range(1, 6)] == [operads.free_magma_dim(n) for n in range(1, 6)]
    assert [multilinear_dim(_FULL, n) for n in range(1, 6)] == [1, 2, 0, 0, 0]
    assert not _same(free, _FULL)
    assert _same(koszul_dual(free), _FULL)
    assert koszulity_residual(_FULL, free, 5).is_zero()


def test_hilbert_of_the_empty_system_is_the_free_magma():
    series = hilbert(IdentitySystem("free", []), 6)
    assert series == _series(6, [(n, Q((-1) ** n * operads.free_magma_dim(n), math.factorial(n))) for n in range(1, 7)])


# ---------------------------------------------------------------------------
# implication and membership


def test_inclusion_chain():
    cas, sas, casd = builtin_system("cas"), builtin_system("sas"), builtin_system("cas-dual")
    for n in (3, 4):
        assert implies(cas, sas, n)
        assert implies(sas, casd, n)
    assert not implies(sas, builtin_system("as"), 3)
    assert not implies(sas, cas, 3)


def test_prove_zero_examples():
    sas = builtin_system("sas")
    assert prove_zero(parse_expr("[x1,[x2,[x3,[x4,x5]]]]"), sas)
    assert prove_zero(
        parse_expr("(x1 o (x2 o (x3 o (x4 o x5)))) - (x1 o (x2 o (x4 o (x3 o x5))))"), sas
    )
    assert not prove_zero(parse_expr("[[x1,x2],x3]"), sas)


def test_prove_zero_at_degree_8():
    """Degree-8 membership on the shape graph of sas reads the tables of the
    two shapes it touches, not all 17,297,280 monomials."""
    sas = builtin_system("sas")
    w1 = parse_expr("(((((((x1 x2) x3) x4) x5) x6) x7) x8)")
    w2 = parse_expr("(x8 (x7 (x6 (x5 (x4 (x3 (x2 x1)))))))")
    assert prove_zero(w1 - w2, sas, cap=8)
    assert not prove_zero(w1, sas, cap=8)


def test_prove_zero_monotone():
    # cyclic associative is contained in shift associative, so anything that
    # vanishes in the larger variety vanishes in the smaller one
    sas, cas = builtin_system("sas"), builtin_system("cas")
    for text in ("[x1,[x2,[x3,[x4,x5]]]]", "[x1,(x2 o (x3 o (x4 o x5)))]"):
        e = parse_expr(text)
        assert prove_zero(e, sas)
        assert prove_zero(e, cas)


def test_prove_zero_nonmultilinear():
    sas = builtin_system("sas")
    assert prove_zero(parse_expr("((x1 x1) x1) - (x1 (x1 x1))"), sas)


# ---------------------------------------------------------------------------
# niceness


@pytest.mark.parametrize(
    "name, circle, bracket",
    # for as, 12 - 9 = 3 = dim SJ(3) and 12 - 10 = 2 = dim Lie(3)
    [("as", 9, 10), ("com-as", 11, 12), ("a12", 9, 9), ("a23", 9, 9)],
)
def test_polarized_identity_dim_degree3(name, circle, bracket):
    sys = builtin_system(name)
    assert polarized_identity_dim(sys, "circle", 3) == circle
    assert polarized_identity_dim(sys, "bracket", 3) == bracket


def test_nice_indices():
    assert nice_index(builtin_system("sas"), 6) == 5
    assert nice_index(builtin_system("cas"), 6) == 4
    assert nice_index(builtin_system("com-as"), 6) == 3
    assert nice_index(builtin_system("as"), 6) is None


def test_nice_index_needs_coefficient_one():
    """A one-dimensional component whose monomials are congruent only up to
    sign is not nice: here degree 4 is the only one-dimensional degree and
    its functional takes both +1 and -1."""
    sys = _SIGNED
    assert [multilinear_dim(sys, n) for n in range(1, 7)] == [1, 2, 3, 1, 0, 0]
    (phi,) = consequences(sys, 4).rref.kernel()
    assert len(phi) == 120 and set(phi.values()) == {1, -1}
    assert nice_index(sys, 6) is None


@pytest.mark.parametrize(
    "sys",
    # cas-dual, not binomial from degree 3 on, has no graph degree to check
    [builtin_system(name) for name in BUILTIN_SYSTEM_NAMES if name != "cas-dual"]
    + [anti_system(name) for name in ASSOCIATIVE_TYPE_BUILTINS] + [_SIGNED, _SEEDED_CAS, _SIGN_TWISTED],
    ids=lambda sys: sys.name,
)
def test_graph_niceness_matches_the_kernel_rule(sys):
    """`ShapeGraph.is_nice` agrees with the rule on the one functional that
    vanishes on I(n), wherever degree n is a graph degree, and on the shape
    graph of its own patterns wherever it is a primal degree of dimension 1."""
    for n in range(3, 7):
        cons = consequences(sys, n)
        graph = cons.graph
        if graph is None and cons.space.dim - cons.dim == 1:
            graph = operads._shape_graph(n, operads._patterns(cons))
        if graph is not None:
            assert graph.is_nice() == _nice_by_kernel(cons), n


@pytest.mark.parametrize("sys, nice", [(builtin_system("com-as"), True), (_SIGN_TWISTED, False)], ids=["com-as", "sign"])
def test_primal_niceness_reads_the_sign_of_each_row(sys, nice):
    """A primal degree 3 of dimension 1, its RREF rows e_p - f(p) e_f: every
    f(p) = 1 for com-as, which is nice, while the sign-twisted system has a
    row e_p + e_f and is not."""
    cons = consequences(sys, 3)
    assert cons.graph is None and cons.space.dim - cons.dim == 1
    (f,) = cons.free()
    assert {row[f] for _, row in cons.rows()} == ({-1} if nice else {1, -1})
    assert _nice_by_kernel(cons) is nice
    assert operads._shape_graph(3, operads._patterns(cons)).is_nice() is nice
    assert (nice_index(sys, 3) == 3) is nice


def test_graph_niceness_needs_a_trivial_character():
    """One component over both degree-3 shapes, every transport +1, and K
    grown from the transpositions (1 2) and (2 3): H = S_3, so P(3) is one
    class.  Paired with the sign -1, K has chi = sgn, the monomials are
    congruent only up to sign, and the graph is not nice; with the sign
    points fixed, chi = 1 and it is.  The kernel rule agrees on both."""
    ident = (0, 1, 2)
    for sign, nice in (((4, 3), False), ((3, 4), True)):
        group = operads._Chain(5)
        for h in ((1, 0, 2), (0, 2, 1)):
            group.add(h + sign)
        assert group.order(3) == 6
        graph = operads.ShapeGraph(3, [operads._Component(1, [(1, ident, 1), (0, ident, 1)], group)])
        assert graph.rank == 11
        assert graph.is_nice() is nice
        assert _nice_by_kernel(ConsequenceSpace("chi", 3, graph)) is nice


# ---------------------------------------------------------------------------
# the shape graph's edges against the pattern matcher on labelled words


def _bind(pattern, word, out: list) -> bool:
    """Whether the shape pattern is a prefix of word; appends the subwords
    of word at the leaves of pattern, left to right, to out."""
    if pattern == 0:
        out.append(word)
        return True
    return not isinstance(word, int) and _bind(pattern[0], word[0], out) and _bind(pattern[1], word[1], out)


def _rewrite(word, patterns):
    """(w, x) for every pattern applied at every node of word, which is x w
    modulo the pattern; w is None for a monomial pattern."""
    for p, q, k, x in patterns:
        bound: list = []
        if _bind(p, word, bound):
            yield (None if q is None else build_word(q, [bound[i] for i in k])), x
    if not isinstance(word, int):
        left, right = word
        for w, x in _rewrite(left, patterns):
            yield (None if w is None else (w, right)), x
        for w, x in _rewrite(right, patterns):
            yield (None if w is None else (left, w)), x


def _edges_at_nodes(n: int, patterns) -> tuple[set, set]:
    """The degree-n edges (s, t, rho, x) and zero shapes of every pattern
    applied at every node of every shape, with subtrees bound to its leaves:
    the shape's leaves carry their positions, so a rewritten word's leaves
    are rho."""
    edges, zero = set(), set()
    for s, shape in enumerate(shapes(n)):
        for w, x in _rewrite(build_word(shape, range(n)), patterns):
            if w is None:
                zero.add(s)
            else:
                t, rho = shape_and_leaves(w)
                edges.add((s, _shape_rank(n)[t], rho, x))
    return edges, zero


@pytest.mark.parametrize(
    "sys",
    [builtin_system(name) for name in BUILTIN_SYSTEM_NAMES if name != "cas-dual"]
    + [anti_system(name) for name in ("a12", "a13", "a23")]
    + [_WEIGHTED, parse_system("monomial", "((x1 x2) x3) = 0")],
    ids=lambda sys: sys.name,
)
def test_step_edges_are_the_patterns_at_every_node(sys):
    """The step maps carry the edges and zero shapes of the patterns' degree
    up to exactly those of the patterns matched at every node, degree by
    degree to 7, with no edge twice."""
    below = operads._primal_below(sys, 8, None)
    patterns = operads._patterns(below)
    edges, zero = _edges_at_nodes(below.degree, patterns)
    assert len(edges) + len(zero) == len(patterns)
    for n in range(below.degree + 1, 8):
        edges, zero = operads._step_edges(n - 1, edges, zero)
        assert len(set(edges)) == len(edges), n
        assert (set(edges), zero) == _edges_at_nodes(n, patterns), n


def test_monomial_indices_fit_the_graph_tables():
    """`ShapeGraph._table` stores absolute monomial indices in array("i"),
    so every degree under the hard cap must index below 2**31."""
    assert operads.free_magma_dim(operads.HARD_DEGREE_CAP) < 2**31, (
        "ShapeGraph._table holds monomial indices in array('i'); widen it before raising HARD_DEGREE_CAP"
    )
