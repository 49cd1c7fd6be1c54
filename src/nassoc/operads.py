"""Degree-by-degree multilinear analysis of a variety.

The degree-n multilinear component of the free magma has dimension
n! * Catalan(n-1); monomials are indexed by (tree shape, permutation) with
shapes in Catalan order and permutations lexicographic.  Each degree n of
the consequence space I(n) of an identity system is built in one of two
ways, with the same answers.

A primal degree is built by elimination (`_primal_step`).  The degree-(m+1)
component is spanned by left/right multiplications by a fresh variable and
by substitutions x_i -> (x_i x_{m+1}) applied to the degree-m component,
closed under relabeling.  Because the degree-m space is already stable
under S_m, closing under the transpositions (j, m+1) suffices.  Each
generator followed by each transposition sends a monomial to a single
monomial, injectively, so it is an integer map from degree-m indices to
degree-(m+1) indices.  `_step_maps` builds these maps from shape and
permutation ranks, and the image of a relation row is the row with its
indices looked up.  The images of the rows of I(m), then the lifted
identities of degree m+1 (relabeled through `relabel_vec`), go into a
`SparseRREF`, so the cost grows with the rank of I(m).

A graph degree (`_shape_graph`) serves binomial systems, whose identities
all read w1 = +-w2: the algebras of associative type sigma, nine of the ten
built-ins.  When every row of the RREF of the highest primal degree m below
n has at most two entries, each row is a pattern P(sigma) = x Q(tau), or a
monomial P(sigma) = 0.  Such a row relates shapes by a permutation of leaf
positions that does not depend on the labels, and so does its image under
a step map, which acts on shapes (`_shape_steps`).  I(n) is the closure of
I(m) under the step maps, so it is a graph on the Catalan(n-1) shapes, its
edges the patterns carried up one degree at a time, whose components each
contribute n!/|H| classes to the quotient P(n), or none: see `ShapeGraph`.
The graph gives `dim` without touching the n! * Catalan(n-1)
monomials, and `multilinear_dim`, `hilbert` and `nice_index` read nothing
else.  Degree n does not need degree n - 1 built.

The rule: a degree with identities of its own is primal, and so is a degree
whose highest primal degree below is not binomial (has an RREF row of three
or more entries); every other degree is a graph degree.  The check runs on
the space, so a recombined or rescaled binomial presentation qualifies.  A
quotient of dimension d <= 1 always is binomial: for d = 0 every monomial is
zero, and for d = 1 the one functional f vanishing on I(m) spans the
annihilator, so the RREF row of each pivot p is e_p - f(p) e_f.

A `ConsequenceSpace` holds each degree as one ideal, the `SparseRREF` of a
primal degree or the `ShapeGraph` of a graph degree; both answer `rank`,
`reduce`, `free` and `pivot_rows` (the unique RREF's rows, by pivot).  A
graph degree answers per monomial through one table per shape, derived on
first use from its root's: the free position and sign of each labelling.
Its RREF, a dict per monomial, is built only on request and is all that is
charged for memory; a primal degree above it streams its rows instead.
Everything downstream (dimensions, Hilbert series, Koszulity residuals,
Koszul duals, implication between systems, membership proofs, k-niceness)
reduces to exact linear algebra on these spaces.
"""

from __future__ import annotations

import itertools
import math
import os
from array import array
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .errors import DegreeTooLarge, NotMultilinear, NotQuadratic
from .exact.linalg import SparseRREF, check_positions
from .exact.poly import canonical, ratio
from .exact.series import SeriesQ, compose_series
from .terms import (
    Expr,
    Identity,
    IdentitySystem,
    _shape_rank,
    bracket,
    build_word,
    catalan,
    circle,
    degree,
    formal_expand,
    multihomogeneous_components,
    polarize,
    shape_and_leaves,
    shapes,
)

DEFAULT_DEGREE_CAP = 6
HARD_DEGREE_CAP = 8


def resolve_degree_cap(cap: int | None = None) -> int:
    """Effective degree cap: explicit argument, else NASSOC_DEGREE_CAP, else 6,
    at most HARD_DEGREE_CAP.  Raises ValueError, naming the source, on a cap below 1."""
    if cap is None:
        env = os.environ.get("NASSOC_DEGREE_CAP")
        try:
            cap = int(env) if env else DEFAULT_DEGREE_CAP
        except ValueError:
            raise ValueError(f"NASSOC_DEGREE_CAP must be an integer, got {env!r}") from None
        if cap < 1:
            raise ValueError(f"NASSOC_DEGREE_CAP must be at least 1, got {env!r}")
    elif cap < 1:
        raise ValueError(f"the degree cap must be at least 1, got {cap}")
    return min(cap, HARD_DEGREE_CAP)


def refuse_degree(n: int, cap: int | None = None):
    """Raise DegreeTooLarge when degree n exceeds HARD_DEGREE_CAP or the effective cap.

    A caller that builds every degree up to n calls it first, so a refusal comes before any build."""
    cap = resolve_degree_cap(cap)
    if n > HARD_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {n} exceeds the hard cap {HARD_DEGREE_CAP}, which cannot be raised")
    if n > cap:
        raise DegreeTooLarge(f"degree {n} exceeds the cap {cap}; raise it explicitly or via NASSOC_DEGREE_CAP")


def free_magma_dim(n: int) -> int:
    """Dimension of the degree-n multilinear component with no relations."""
    return math.factorial(n) * catalan(n - 1)


# ---------------------------------------------------------------------------
# the ambient multilinear space


@lru_cache(maxsize=None)
def _perms_lex(n: int):
    return tuple(itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _perm_rank_map(n: int):
    return {p: i for i, p in enumerate(_perms_lex(n))}


class MultilinearSpace:
    """Degree-n multilinear component of the free magma with a fixed basis."""

    _cache: dict[int, "MultilinearSpace"] = {}

    def __new__(cls, n: int):
        if n in cls._cache:
            return cls._cache[n]
        self = super().__new__(cls)
        self.n = n
        self.shapes = shapes(n)
        self.nperms = math.factorial(n)
        self.dim = len(self.shapes) * self.nperms
        self._shape_rank = _shape_rank(n)
        cls._cache[n] = self
        return self

    def index_of_word(self, word) -> int:
        """Index of a multilinear word; KeyError for any other word."""
        shape, labs = shape_and_leaves(word)
        return self._shape_rank[shape] * self.nperms + _perm_rank_map(self.n)[labs]

    def word_at(self, index: int):
        srank, prank = divmod(index, self.nperms)
        return build_word(self.shapes[srank], _perms_lex(self.n)[prank])

    def expr_to_vec(self, expr: Expr) -> dict:
        """The index vector of a multilinear expression with rational
        coefficients, which Expr keeps canonical; TypeError for any other."""
        vec = {}
        for w, c in expr.terms.items():
            try:
                idx = self.index_of_word(w)
            except KeyError:
                raise NotMultilinear(f"word {w} is not multilinear of degree {self.n}") from None
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"expected rational coefficient, got {type(c).__name__}")
            vec[idx] = c
        return vec

    def vec_to_expr(self, vec: dict) -> Expr:
        return Expr({self.word_at(i): c for i, c in vec.items()})

    def relabel_vec(self, vec: dict, perm) -> dict:
        """vec with every variable x_i renamed x_perm[i-1]; perm is a tuple
        of 1..n.  Relabeling permutes monomials, so coefficients are reused."""
        nperms, perms, rank = self.nperms, _perms_lex(self.n), _perm_rank_map(self.n)
        out = {}
        for k, c in vec.items():
            srank, prank = divmod(k, nperms)
            out[srank * nperms + rank[tuple([perm[x - 1] for x in perms[prank]])]] = c
        return out


# ---------------------------------------------------------------------------
# consequence spaces


class ConsequenceSpace:
    """Degree-n component I(n) of the operadic ideal of a system.

    It holds I(n) as one `ideal`, the `SparseRREF` of a primal degree or
    the `ShapeGraph` of a graph degree (then also its `graph`, else None),
    and every reader forwards to the four both answer: `rank`, `reduce`,
    `free` and `pivot_rows`.  The unique RREF of a graph degree has the last
    members of the classes as its free positions, and the row e_p - w e_f
    for any other member p = w f of the class of f, e_p for a monomial in
    I(n).  `rref` of a graph degree inserts those rows into a `SparseRREF`,
    a dict per monomial, so it is charged at `BYTES_PER_COLUMN` first;
    `rows` streams them.  Every answer is in the form of `exact.poly.canonical`.
    """

    def __init__(self, system_name: str, degree: int, ideal: SparseRREF | ShapeGraph):
        self.system_name = system_name
        self.degree = degree
        self.space = MultilinearSpace(degree)
        self.ideal = ideal
        self.graph = ideal if isinstance(ideal, ShapeGraph) else None
        self._rref = None if self.graph is not None else ideal

    @property
    def rref(self) -> SparseRREF:
        if self._rref is None:
            _refuse_memory(self.degree)
            acc = SparseRREF(self.space.dim)
            for _, row in self.rows():
                acc.insert(row)
            self._rref = acc
        return self._rref

    @property
    def dim(self) -> int:
        return self.ideal.rank

    def reduce_vec(self, vec) -> dict:
        """Residual of vec modulo I(n), on the free positions."""
        return self.ideal.reduce(vec)

    def contains_vec(self, vec) -> bool:
        return not self.reduce_vec(vec)

    def contains_expr(self, expr: Expr) -> bool:
        return self.contains_vec(self.space.expr_to_vec(expr))

    def free(self) -> list[int]:
        """The free positions of the RREF, ascending."""
        return self.ideal.free()

    def rows(self):
        """(pivot, row) of the RREF of I(n), by pivot, one at a time."""
        return self.ideal.pivot_rows()

    def __repr__(self):
        return f"ConsequenceSpace({self.system_name!r}, degree={self.degree}, dim={self.dim})"


def _grown(shape) -> list:
    """shape with each of its leaves in turn, left to right, replaced by a product."""
    if shape == 0:
        return [(0, 0)]
    left, right = shape
    return [(g, right) for g in _grown(left)] + [(left, g) for g in _grown(right)]


@lru_cache(maxsize=None)
def _shape_steps(m: int) -> tuple:
    """How the generators grow the degree-m shapes: per shape, by rank, the
    degree-(m+1) shape ranks of w x, x w and of the shape with leaf a grown
    into (a, new), for a = 0..m-1."""
    rank = _shape_rank(m + 1)
    return tuple((rank[s, 0], rank[0, s], *map(rank.__getitem__, _grown(s))) for s in shapes(m))


def _step_maps(m: int) -> list[list[array]]:
    """Index maps from the degree-m to the degree-(m+1) multilinear basis.

    maps[g][j - 1] sends monomial k to the index of tau_j(g(k)).  The
    generators g are, in order, w -> w x_{m+1}, w -> x_{m+1} w and
    x_i -> x_i x_{m+1} for i = 1..m; tau_j swaps the labels j and m+1
    (tau_{m+1} is the identity).  Every map is injective.
    """
    new = m + 1
    rank, nperms = _perm_rank_map(new), math.factorial(new)
    perms = _perms_lex(m)
    # per generator: the column of `_shape_steps` of each source permutation,
    # and the image's labels
    gens = [([0] * len(perms), [p + (new,) for p in perms]), ([1] * len(perms), [(new,) + p for p in perms])]
    for i in range(1, m + 1):
        at = [p.index(i) for p in perms]
        gens.append(([2 + a for a in at], [p[: a + 1] + (new,) + p[a + 1 :] for p, a in zip(perms, at)]))

    steps, maps = _shape_steps(m), []
    for keys, labels in gens:
        per_tau = []
        for j in range(1, new + 1):
            swap = {x: x for x in range(1, new + 1)}
            swap[j], swap[new] = new, j
            pranks = [rank[tuple([swap[x] for x in q])] for q in labels]
            per_tau.append(
                array("i", [row[key] * nperms + r for row in steps for key, r in zip(keys, pranks)])
            )
        maps.append(per_tau)
    return maps


# ---------------------------------------------------------------------------
# binomial degrees on the shape graph


def _compose(a: tuple, b: tuple) -> tuple:
    """The permutation a . b of positions: (a . b)[i] = a[b[i]]."""
    return tuple(map(a.__getitem__, b))


def _inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _picker(g: tuple):
    """The map pi -> pi . g on label tuples: (pi . g)[j] = pi[g[j]]."""
    return itemgetter(*g) if len(g) > 1 else tuple


class _Chain:
    """A permutation group on the points 0..N-1, held as a stabilizer chain
    with base 0, 1, ..., N-1 and grown by Knuth's incremental Schreier-Sims
    ("Efficient representation of perm groups", Combinatorica 11, 1991).

    Level k holds the generators added there, which generate the group of
    level k, and a transversal: for each point j of the orbit of k under that
    group, an element mapping k to j, with its inverse.  The group of level
    k + 1 is the stabilizer of k in the group of level k.
    """

    def __init__(self, npoints: int):
        ident = tuple(range(npoints))
        self.gens: list[list[tuple]] = [[] for _ in range(npoints)]
        self.trans = [{k: (ident, ident)} for k in range(npoints)]

    def _sifts(self, p: tuple, k: int) -> bool:
        """Whether p, which fixes 0..k-1, lies in the group of level k."""
        for level in range(k, len(self.trans)):
            got = self.trans[level].get(p[level])
            if got is None:
                return False
            p = _compose(got[1], p)
        return True

    def add(self, p: tuple, k: int = 0):
        """Grow the group of level k (and of every level above) by p."""
        if self._sifts(p, k):
            return
        self.gens[k].append(p)
        for u, _ in list(self.trans[k].values()):
            self._reach(_compose(p, u), k)

    def _reach(self, p: tuple, k: int):
        # p lies in the group of level k: a new orbit point, or a Schreier
        # generator for the level above
        got = self.trans[k].get(p[k])
        if got is None:
            self.trans[k][p[k]] = (p, _inverse(p))
            for s in self.gens[k]:
                self._reach(_compose(s, p), k)
        else:
            self.add(_compose(got[1], p), k + 1)

    def order(self, levels: int) -> int:
        """The order of the projection onto the first `levels` base points'
        orbits: the product of those transversal sizes."""
        return math.prod(len(t) for t in self.trans[:levels])

    def elements(self) -> list[tuple]:
        """Every element, as the products u_0 . u_1 . ... of one transversal
        element per level."""
        out = [tuple(range(len(self.trans)))]
        for level in reversed(self.trans):
            out = [_compose(u, e) for u, _ in level.values() for e in out]
        return out


class _Component(NamedTuple):
    """A connected component of a shape graph.

    root is the rank of its highest shape.  members holds (s, g, e) for each
    of its shapes, root first, with (s, pi) = e (root, pi . g) for every
    labelling pi.  group is K, on the n positions and two sign points, or
    None when the component is zero in P(n).
    """

    root: int
    members: list
    group: _Chain | None


class ShapeGraph:
    """I(n) of a binomial system as a graph on the degree-n tree shapes.

    The patterns are (P, Q, k, x): the relation P(sigma) = x Q(tau) of
    degree m, where leaf j of Q carries the label of leaf k[j] of P; Q is
    None for a monomial P(sigma) = 0.  Each is an edge of degree m, or a
    zero shape P, and the step maps carry the edges and zero shapes up to
    degree n (`_step_edges`).  An edge (s, t, rho, x) states
    (s, pi) = x (t, pi . rho) for every labelling pi.  A depth-first search
    from the highest shape of each component gives every shape a transport
    (g, e), and every edge off the search tree a loop
    (h, y) = (g_s^-1 . rho . g_t, x e_t / e_s): the relation
    (r, sigma) = y (r, sigma . h) on the root r.  The loops generate K in
    S_n x Q^*; with every |y| = 1 it is kept as a `_Chain` on n + 2 points,
    the sign -1 swapping the last two.  H is the projection of K to S_n, and
    chi(h) the sign K pairs with h.

    A component is zero in P(n) when one of its shapes is zero, a loop has
    |y| != 1, or (id, -1) is in K.  Otherwise its classes are the cosets
    sigma H of root labellings, n!/|H| of them, and
    (s, pi) = e_s chi(h) (r, sigma) when pi . g_s = sigma . h.

    components are by root, ascending.  It answers the readers of a
    `SparseRREF`, without building one, per monomial from one table per
    shape derived on first use (`_table`): 5 bytes per labelling, not
    charged for memory; of a graph degree, only `ConsequenceSpace.rref` is.
    """

    def __init__(self, degree: int, components: list[_Component]):
        self.degree = degree
        self.components = components
        self._home = {s: (comp, g, e) for comp in components for s, g, e in comp.members}
        self._tables: dict[int, tuple | None] = {}
        self.ncols = len(self._home) * math.factorial(degree)

    @property
    def rank(self) -> int:
        """The dimension of I(n): all but n!/|H| monomials per live component."""
        nf = math.factorial(self.degree)
        return self.ncols - sum(nf // c.group.order(self.degree) for c in self.components if c.group is not None)

    def is_nice(self) -> bool:
        """Every degree-n monomial is +1 times every other in P(n), which is
        not zero: one component, with H = S_n, chi = 1 (every generator of K
        fixes the sign points) and every transport +1."""
        if len(self.components) != 1:
            return False
        (comp,) = self.components
        n = self.degree
        return (
            comp.group is not None
            and all(h[n] == n for level in comp.group.gens for h in level)
            and comp.group.order(n) == math.factorial(n)
            and all(e == 1 for _, _, e in comp.members)
        )

    def _table(self, s: int) -> tuple | None:
        """(free, e, sign) of shape s, derived on first use, or None when its
        component is zero in P(n): labelling q of s, by rank, is e * sign[q]
        times the monomial free[q], the last member of its class.

        The last members of the classes all lie in the root, the highest
        shape of the component.  The root's table visits its labellings in
        descending lex order: the first one not yet in a class is the last
        member of a new class, and its H-images fill the rest of that class.
        Any other shape reads the root's table at pi_q . g_s.
        """
        if s not in self._tables:
            comp, g, e = self._home[s]
            n = self.degree
            perms, rank = _perms_lex(n), _perm_rank_map(n)
            if comp.group is None:
                self._tables[s] = None
            elif s == comp.root:
                elements = [(_picker(h[:n]), -1 if h[n] > n else 1) for h in comp.group.elements()]
                free = array("i", [-1]) * len(perms)
                sign = array("b", bytes(len(perms)))
                for q in range(len(perms) - 1, -1, -1):
                    if free[q] < 0:
                        pi = perms[q]
                        for take, chi in elements:
                            r = rank[take(pi)]
                            free[r], sign[r] = s * len(perms) + q, chi
                self._tables[s] = free, 1, sign
            else:
                free, _, sign = self._table(comp.root)
                labels = list(map(rank.__getitem__, map(_picker(g), perms)))
                free = array("i", map(free.__getitem__, labels))
                self._tables[s] = free, e, array("b", map(sign.__getitem__, labels))
        return self._tables[s]

    def free(self) -> list[int]:
        """The last members of the classes, ascending: the fixed points of
        the root tables."""
        nf = math.factorial(self.degree)
        live = (c for c in self.components if c.group is not None)
        return [f for c in live for p, f in enumerate(self._table(c.root)[0], c.root * nf) if f == p]

    def pivot_rows(self):
        """(pivot, row) of the RREF of I(n), by pivot, one at a time."""
        nf = math.factorial(self.degree)
        for s in range(len(self._home)):
            table = self._table(s)
            if table is None:
                for p in range(s * nf, (s + 1) * nf):
                    yield p, {p: 1}
                continue
            free, e, sign = table
            for p, (f, x) in enumerate(zip(free, sign), s * nf):
                if f != p:
                    yield p, {p: 1, f: -(e * x)}

    def reduce(self, vec) -> dict:
        """The residual of vec modulo I(n), on the free positions."""
        check_positions(vec, self.ncols)
        nf, tables = math.factorial(self.degree), self._tables
        out: dict = {}
        for k, c in vec.items():
            s, q = divmod(k, nf)
            if c and (got := tables.get(s) or self._table(s)):
                free, e, sign = got
                f = free[q]
                out[f] = out.get(f, 0) + c * (e * sign[q])  # e * sign first: one Fraction product
        return {f: canonical(c) for f, c in out.items() if c}


def _loop_group(n: int, loops, transport) -> _Chain | None:
    """K from the loops (s, t, rho, x) of a component, or None when it makes
    the component zero."""
    group = _Chain(n + 2)
    seen = set()
    for s, t, rho, x in loops:
        (gs, es), (gt, et) = transport[s], transport[t]
        y = ratio(x * et, es)
        if y not in (1, -1):
            return None
        h = _compose(_inverse(gs), _compose(rho, gt)) + ((n, n + 1) if y == 1 else (n + 1, n))
        if h not in seen:
            seen.add(h)
            group.add(h)
            if len(group.trans[n]) == 2:  # (id, -1) is in K
                return None
    return group


def _patterns(source: ConsequenceSpace) -> list[tuple]:
    """The patterns (P, Q, k, x) of the rows of a binomial RREF, distinct,
    in pivot order (see `ShapeGraph`)."""
    space, perms = source.space, _perms_lex(source.degree)
    out = {}
    for p, row in source.rows():
        ps, sigma = divmod(p, space.nperms)
        f = max(row)
        if f == p:
            out[space.shapes[ps], None, None, 0] = None
            continue
        qs, tau = divmod(f, space.nperms)
        leaf = {label: i for i, label in enumerate(perms[sigma])}
        out[space.shapes[ps], space.shapes[qs], tuple(leaf[label] for label in perms[tau]), -row[f]] = None
    return list(out)


def _step_edges(m: int, edges, zero) -> tuple[list, set]:
    """The degree-(m+1) edges and zero shapes from those of degree m, under
    the step maps.  A generator acts on a label: x_i -> x_i x_{m+1} grows
    the leaf a of s that carries x_i and the leaf rho^-1(a) of t that
    carries it too, and shifts rho past the new leaf."""
    steps, out = _shape_steps(m), {}
    for s, t, rho, x in edges:
        ss, st = steps[s], steps[t]
        out[ss[0], st[0], rho + (m,), x] = None
        out[ss[1], st[1], (0, *[r + 1 for r in rho]), x] = None
        for a, b in enumerate(_inverse(rho)):
            shifted = [r + (r > a) for r in rho]
            out[ss[2 + a], st[2 + b], (*shifted[: b + 1], a + 1, *shifted[b + 1 :]), x] = None
    return list(out), {z for s in zero for z in steps[s]}


def _shape_graph(n: int, patterns) -> ShapeGraph:
    """The shape graph of degree n from the patterns of a binomial degree m
    below it (see `ShapeGraph`): their edges and zero shapes, carried up by
    `_step_edges` one degree at a time.  Its cost grows with the number of
    shapes and the loops sifted, not with n!."""
    m = degree(patterns[0][0]) if patterns else n
    rank = _shape_rank(m)
    # (s, t, rho, x): (s, pi) = x (t, pi . rho) for every labelling pi
    edges = [(rank[p], rank[q], k, x) for p, q, k, x in patterns if q is not None]
    zero = {rank[p] for p, q, _, _ in patterns if q is None}
    for d in range(m, n):
        edges, zero = _step_edges(d, edges, zero)
    nshapes = catalan(n - 1)
    adj: list[list[int]] = [[] for _ in range(nshapes)]
    for i, (s, t, _, _) in enumerate(edges):
        adj[s].append(i)
        adj[t].append(i)
    ident = tuple(range(n))
    transport: list = [None] * nshapes
    components = []
    for root in range(nshapes - 1, -1, -1):
        if transport[root] is not None:
            continue
        transport[root] = (ident, 1)
        members, tree, stack = [root], set(), [root]
        while stack:
            u = stack.pop()
            g, e = transport[u]
            for i in adj[u]:
                s, t, rho, x = edges[i]
                v = t if u == s else s
                if transport[v] is None:
                    if u == s:
                        transport[v] = (_compose(_inverse(rho), g), ratio(e, x))
                    else:
                        transport[v] = (_compose(rho, g), canonical(x * e))
                    tree.add(i)
                    members.append(v)
                    stack.append(v)
        group = None
        if zero.isdisjoint(members):
            loops = sorted({i for u in members for i in adj[u]} - tree)
            group = _loop_group(n, [edges[i] for i in loops], transport)
        components.append(_Component(root, [(s, *transport[s]) for s in members], group))
    return ShapeGraph(n, components[::-1])


# Peak memory of a primal consequence build per ambient column.  It was
# measured on the degree-7 sas build when rows held only Fractions (364 MiB
# over 665,280 columns); with integer rows that build peaks at 293 MiB
# (about 462 bytes per column).  Both constants were measured on builds whose
# rows stay sparse.  They are not a bound for a build whose rows fill in:
# cas-dual, whose degree-5 rows are dense, is estimated at 17 MB for degree 6
# (30,240 columns) and passed 900 MiB there without finishing.  It also
# charges the one reader that builds dict rows on a graph degree, `rref`,
# which grew the peak by 347-350 bytes per column at degree 7 on sas, a13
# and as.  The graph build and its tables are not charged: the build grows
# with the Catalan(n-1) shapes, and a table holds 5 bytes per labelling of
# each shape a query reads and of its root.
BYTES_PER_COLUMN = 573


def consequence_memory_estimate(n: int) -> int:
    """Estimated peak bytes of a primal build of degree n, or of the dict
    rows of a graph degree n, from sparse builds: a primal build whose rows
    fill in can need many times more."""
    return free_magma_dim(n) * BYTES_PER_COLUMN


def _refuse_memory(n: int):
    need = consequence_memory_estimate(n)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise DegreeTooLarge(f"degree {n} needs about {need / 2**30:.1f} GiB; this machine has {have / 2**30:.1f} GiB")


_consequence_cache: dict[tuple, ConsequenceSpace] = {}


def consequences(sys: IdentitySystem, n: int, cap: int | None = None) -> ConsequenceSpace:
    """Degree-n component of the operadic ideal generated by the system.

    Degree n is primal when it has identities of its own, or when the
    highest primal degree below it has an RREF row of three or more
    entries.  Any other degree is a graph degree, its patterns read off the
    RREF of the highest primal degree below it (none when there is none):
    that degree's rows span it, and their images under the step maps span
    every degree up to the next one with identities."""
    refuse_degree(n, cap)
    if n < 1:
        raise ValueError("degree must be positive")
    if not sys.is_multilinear():
        raise NotMultilinear(
            f"system {sys.name!r} has non-multilinear identities; multilinearize first"
        )
    key = (sys.key(), n)
    if key in _consequence_cache:
        return _consequence_cache[key]
    idents = [ident for ident in sys.identities if ident.degree == n]
    below = None if idents else _primal_below(sys, n, cap)
    if not idents and (below is None or _binomial(below.ideal)):
        space = ConsequenceSpace(sys.name, n, _shape_graph(n, _patterns(below) if below else ()))
    else:
        prev = consequences(sys, n - 1, cap).ideal if n > 1 else None
        _refuse_memory(n)
        space = ConsequenceSpace(sys.name, n, _primal_step(prev, n, _lifted(idents, n)))
    _consequence_cache[key] = space
    return space


def _primal_below(sys: IdentitySystem, n: int, cap: int | None) -> ConsequenceSpace | None:
    """The highest primal degree below n, or None when there is none: the
    highest degree with identities, or above it the first degree whose RREF
    has rows of at most two entries, or n - 1."""
    m = max((ident.degree for ident in sys.identities if ident.degree < n), default=None)
    if m is None:
        return None
    space = consequences(sys, m, cap)
    while not _binomial(space.ideal) and m < n - 1:
        m += 1
        space = consequences(sys, m, cap)
    return space


def _binomial(ideal: SparseRREF | ShapeGraph) -> bool:
    """Whether every RREF row has at most two entries: the test that a
    primal degree is binomial."""
    return all(len(row) <= 2 for _, row in ideal.pivot_rows())


def _lifted(idents, m: int):
    """The degree-m identities under every relabeling, as index vectors."""
    space = MultilinearSpace(m)
    for ident in idents:
        vec = space.expr_to_vec(ident.expr)
        for perm in _perms_lex(m):
            yield space.relabel_vec(vec, perm)


def _primal_step(prev: SparseRREF | ShapeGraph | None, m: int, lifted) -> SparseRREF:
    """I(m) by elimination: the images of the rows of I(m-1), streamed from
    prev in pivot order, under the step maps, then the lifted identities."""
    acc = SparseRREF(MultilinearSpace(m).dim)
    if prev is not None and prev.rank:
        maps = _step_maps(m - 1)
        for _, row in prev.pivot_rows():
            for per_tau in maps:
                for mp in per_tau:
                    acc.insert({mp[k]: c for k, c in row.items()})
    for vec in lifted:
        acc.insert(vec)
    return acc


def multilinear_dim(sys: IdentitySystem, n: int, cap: int | None = None) -> int:
    cons = consequences(sys, n, cap)
    return cons.space.dim - cons.dim


def hilbert(sys: IdentitySystem, order: int, cap: int | None = None) -> SeriesQ:
    """Signed exponential series: coefficient of t^n is (-1)^n dim(n)/n!."""
    if order < 1:
        raise ValueError(f"series order must be at least 1, got {order}")
    refuse_degree(order, cap)
    coeffs = []
    for n in range(1, order + 1):
        d = multilinear_dim(sys, n, cap)
        coeffs.append(Fraction((-1) ** n * d, math.factorial(n)))
    return SeriesQ(order, coeffs)


def _check_quadratic(sys: IdentitySystem):
    for ident in sys.identities:
        if ident.degree != 3 or not ident.is_multilinear():
            raise NotQuadratic(f"system {sys.name!r} is not binary quadratic")


def koszulity_residual(sysP: IdentitySystem, sysQ: IdentitySystem, order: int, cap: int | None = None) -> SeriesQ:
    """compose(H_P, H_Q) - t; identically zero is consistent with Koszulity."""
    _check_quadratic(sysP)
    _check_quadratic(sysQ)
    f = hilbert(sysP, order, cap)
    g = hilbert(sysQ, order, cap)
    return compose_series(f, g) - SeriesQ.identity(order)


# ---------------------------------------------------------------------------
# quadratic presentations and Koszul duals


class OperadPresentation:
    """Binary quadratic presentation: an S3-stable relation subspace in degree 3."""

    def __init__(self, rref: SparseRREF, name: str = "presentation"):
        self.name = name
        self.space = MultilinearSpace(3)
        self.rref = rref
        if not self._is_s3_stable():
            raise NotQuadratic(f"relation space of {name!r} is not S3-stable")

    @staticmethod
    def of_system(sys: IdentitySystem, cap: int | None = None) -> "OperadPresentation":
        _check_quadratic(sys)
        cons = consequences(sys, 3, cap)
        return OperadPresentation(cons.rref, sys.name)

    def _is_s3_stable(self) -> bool:
        return all(
            self.rref.contains(self.space.relabel_vec(row, perm))
            for row in self.rref.basis()
            for perm in _perms_lex(3)
        )

    @property
    def dim(self) -> int:
        return self.rref.rank

    def to_identity_system(self, name: str | None = None) -> IdentitySystem:
        rows = [self.space.vec_to_expr(row) for row in self.rref.basis()]
        return IdentitySystem(name or self.name, [Identity(r) for r in rows])

    def same_space(self, other: "OperadPresentation") -> bool:
        if self.dim != other.dim:
            return False
        return all(other.rref.contains(row) for row in self.rref.basis())

    def __eq__(self, other):
        return isinstance(other, OperadPresentation) and self.same_space(other)

    def __repr__(self):
        return f"OperadPresentation({self.name!r}, dim={self.dim})"


def koszul_dual(pres: OperadPresentation) -> OperadPresentation:
    """Dual presentation: the orthogonal complement of the relations under
    the Ginzburg-Kapranov pairing (Ginzburg-Kapranov, "Koszul duality for
    operads", Duke Math. J. 76, 1994; Loday-Vallette, "Algebraic Operads",
    2012, section 7.6).

    The pairing on the twelve degree-3 monomials is diagonal, <e_k, e_k> =
    eps * sgn: eps is +1 on the shape ((x x) x) and -1 on (x (x x)), and sgn
    is the sign of the leaf permutation.  A vector v is orthogonal to the
    relations exactly when k -> eps * sgn * v[k] is a functional vanishing on
    them, so the dual's relations are the kernel of the RREF, sign-twisted.
    """
    sgn = [(-1) ** sum(a > b for a, b in itertools.combinations(p, 2)) for p in _perms_lex(3)]
    sign = [eps * s for eps in (1, -1) for s in sgn]  # by index: shape rank * 6 + permutation rank
    acc = SparseRREF(pres.space.dim)
    for phi in pres.rref.kernel():
        acc.insert({k: sign[k] * c for k, c in phi.items()})
    return OperadPresentation(acc, f"dual({pres.name})")


# ---------------------------------------------------------------------------
# implication, membership, niceness


def implies(sysA: IdentitySystem, sysB: IdentitySystem, n: int, cap: int | None = None) -> bool:
    """True when every algebra of sysA satisfies sysB's degree-n consequences,
    i.e. consequences(sysB, n) is contained in consequences(sysA, n)."""
    consA = consequences(sysA, n, cap)
    consB = consequences(sysB, n, cap)
    if consB.dim > consA.dim:
        return False
    return all(consA.contains_vec(row) for _, row in consB.rows())


def prove_zero(expr: Expr, sys: IdentitySystem, cap: int | None = None) -> bool:
    """True iff expr lies in the ideal of consequences of the system.

    Multilinear expressions are reduced directly; otherwise each
    multihomogeneous component is polarized first (equivalent over Q).
    """
    if expr.is_zero():
        return True
    if expr.is_multilinear():
        pieces = [expr]
    else:
        pieces = [polarize(comp)[0] for comp in multihomogeneous_components(expr)]
    for piece in pieces:
        n = max(piece.degrees())
        if not consequences(sys, n, cap).contains_expr(piece):
            return False
    return True


def polarized_identity_dim(sys: IdentitySystem, op: str, n: int, cap: int | None = None) -> int:
    """Dimension of the degree-n identity space of the polarized operation.

    Formal degree-n words in the anticommutator ("circle") or commutator
    ("bracket") alone are expanded into raw products and reduced modulo the
    variety's consequences; the kernel of that linear map is the space of
    identities the polarized operation satisfies.  The count includes the
    trivial identities coming from (anti)commutativity of the operation
    itself, so it is a reporting aid rather than a minimal presentation.
    """
    if op not in ("circle", "bracket"):
        raise ValueError("op must be 'circle' or 'bracket'")
    combine = circle if op == "circle" else bracket
    cons = consequences(sys, n, cap)
    space = cons.space
    images = SparseRREF(space.dim)
    for idx in range(space.dim):
        images.insert(cons.reduce_vec(space.expr_to_vec(formal_expand(space.word_at(idx), combine))))
    return space.dim - images.rank


def nice_index(sys: IdentitySystem, kmax: int, cap: int | None = None) -> int | None:
    """Smallest k in 3..kmax with a one-dimensional degree-k component in
    which every monomial is congruent to every other with coefficient +1
    (products of k elements do not depend on association or order).  The
    search starts at 3, the lowest degree where association is meaningful."""
    if kmax < 3:
        raise ValueError(f"kmax must be at least 3, where the search starts, got {kmax}")
    for k in range(3, kmax + 1):
        cons = consequences(sys, k, cap)
        if cons.graph is not None:
            if cons.graph.is_nice():
                return k
            continue
        if cons.space.dim - cons.dim != 1:
            continue
        # a one-dimensional quotient is binomial: every row is e_p - x e_f on
        # the one free position f, and every monomial is +1 times every other
        # exactly when every x is 1
        (f,) = cons.free()
        if all(row == {p: 1, f: -1} for p, row in cons.rows()):
            return k
    return None
