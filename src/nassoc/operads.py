"""Degree-by-degree multilinear analysis of a variety.

The degree-n multilinear component of the free magma has dimension
n! * Catalan(n-1); monomials are indexed by (tree shape, permutation) with
shapes in Catalan order and permutations lexicographic.  The consequence
space of an identity system is generated inductively: the degree-(m+1)
component is spanned by left/right multiplications by a fresh variable and
by substitutions x_i -> (x_i x_{m+1}) applied to the degree-m component,
closed under relabeling.  Because the degree-m space is already stable under
S_m, closing under the transpositions (j, m+1) suffices.

Each generator followed by each transposition sends a monomial to a single
monomial, injectively, so it is an integer map from degree-m indices to
degree-(m+1) indices.  `_step_maps` builds these maps from shape and
permutation ranks, and the image of a relation row is the row with its
indices looked up: no word trees, expressions or new coefficients are made.
Identities are lifted over S_m the same way, through `relabel_vec`.

Each degree is held in one of two representations, with the same answers.
A primal degree is built by elimination (`_primal_step`): it inserts the
images of the degree-(m-1) rows under every step map, then the lifted
identities, into a `SparseRREF`, so its cost grows with the rank of
I(m-1).  A congruence (`Congruence`) is a weighted partition of the
monomials: each monomial is +-1 (in general a nonzero rational) times the
element of its class in the quotient P(m), or zero there.  Binomial
systems, whose identities all read w1 = +-w2 (the algebras of associative
type sigma, nine of the ten built-ins), give congruences at every degree,
because a step map sends a monomial to one monomial.

The rule: a degree with no identities of its own is stepped as a
congruence (`_congruence_step`, a union-find with ratios over the images
of the classes) whenever the degree below is one; every other degree is
built primal, and afterwards is read as a congruence when every row of its
RREF has at most two entries.  The check runs on the space, not on the
identities, so a recombined or rescaled binomial presentation qualifies.
A quotient of dimension d <= 1 always is a congruence: for d = 0 every
monomial is zero, and for d = 1 the one functional f vanishing on I(m)
spans the annihilator, so the RREF row of each pivot p is e_p - f(p) e_f
at the one free position f.

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
from operator import add
from typing import NamedTuple

from .errors import DegreeTooLarge, NotMultilinear, NotQuadratic
from .exact.linalg import SparseRREF, check_positions
from .exact.poly import canonical, ratio
from .exact.series import SeriesQ, compose_series
from .terms import (
    Expr,
    Identity,
    IdentitySystem,
    bracket,
    build_word,
    catalan,
    circle,
    formal_expand,
    multihomogeneous_components,
    polarize,
    relabel_word,
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
        self._shape_rank = {s: i for i, s in enumerate(self.shapes)}
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


class Congruence(NamedTuple):
    """A consequence degree as a weighted partition of its monomials.

    Monomial k is w[k] times the class element a_cls[k] of the quotient, or
    zero there when cls[k] == -1 (and then w[k] == 0).  free[c] is the last
    (largest) member of class c, ascending in c, and w[free[c]] == 1, so a_c
    is that monomial.  w is an array of bytes when every weight is 0 or +-1,
    else a list of canonical rationals.
    """

    cls: array
    w: array | list
    free: list[int]


class ConsequenceSpace:
    """Degree-n component I(n) of the operadic ideal of a system.

    It holds I(n) in one of two forms, and answers the same from either.  A
    primal space holds the `SparseRREF` of I(n).  A `Congruence` holds two
    arrays over the monomials, a class and a weight each; a primal space
    whose RREF rows all have at most two entries gets them too.  The unique
    RREF of a congruence has the last members of the classes as its free
    positions and the row e_p - w[p] e_f for any other member p of the
    class of f, e_p for a monomial in I(n).

    `dim`, `reduce_vec`, `contains_vec`, `free`, `kernel` and `basis` read
    the arrays when there are any, and each gives what `SparseRREF` would,
    every rational in the form of `exact.poly.canonical`: the weights are
    kept in that form, so only a residual, a sum, needs normalizing.
    `rref` builds the `SparseRREF` of a congruence on first use, its rows
    and `where` filled in without elimination.
    """

    def __init__(
        self, system_name: str, degree: int, rref: SparseRREF | None = None, congruence: Congruence | None = None
    ):
        self.system_name = system_name
        self.degree = degree
        self.space = MultilinearSpace(degree)
        self._rref = rref
        self.congruence = congruence if rref is None else _congruence_of(rref)

    def _congruence_rows(self):
        """(pivot, row) of the RREF of a congruence, by pivot, entries canonical."""
        cls, w, free = self.congruence
        for p, (c, x) in enumerate(zip(cls, w)):
            if c < 0:
                yield p, {p: 1}
            elif free[c] != p:
                yield p, {p: 1, free[c]: -x}

    @property
    def rref(self) -> SparseRREF:
        if self._rref is None:
            acc = SparseRREF(self.space.dim)
            for p, row in self._congruence_rows():
                acc.rows[p] = row
                for f in row:
                    if f != p:
                        acc.where.setdefault(f, set()).add(p)
            self._rref = acc
        return self._rref

    @property
    def dim(self) -> int:
        if self.congruence is None:
            return self.rref.rank
        return self.space.dim - len(self.congruence.free)

    def reduce_vec(self, vec) -> dict:
        """Residual of vec modulo I(n), on the free positions."""
        if self.congruence is None:
            return self.rref.reduce(vec)
        check_positions(vec, self.space.dim)
        cls, w, free = self.congruence
        out: dict = {}
        for k, c in vec.items():
            if (cl := cls[k]) >= 0 and c:
                out[free[cl]] = out.get(free[cl], 0) + c * w[k]
        return {f: canonical(c) for f, c in out.items() if c}

    def contains_vec(self, vec) -> bool:
        return not self.reduce_vec(vec)

    def contains_expr(self, expr: Expr) -> bool:
        return self.contains_vec(self.space.expr_to_vec(expr))

    def free(self) -> list[int]:
        """The free positions of the RREF, ascending."""
        return list(self.congruence.free) if self.congruence is not None else self.rref.free()

    def kernel(self) -> list[dict]:
        """The functionals that vanish on I(n), one per free position f,
        ascending, each 1 at f (as `SparseRREF.kernel`).  For a congruence,
        the functional of a class is its weights."""
        if self.congruence is None:
            return self.rref.kernel()
        cls, w, free = self.congruence
        out: list[dict] = [{} for _ in free]
        for k, c in enumerate(cls):
            if c >= 0:
                out[c][k] = w[k]
        return out

    def basis(self) -> list[dict]:
        """The RREF rows, by pivot (as `SparseRREF.basis`)."""
        if self.congruence is None:
            return self.rref.basis()
        return [row for _, row in self._congruence_rows()]

    def __repr__(self):
        return f"ConsequenceSpace({self.system_name!r}, degree={self.degree}, dim={self.dim})"


def _gather(values: list, index) -> array | list:
    """[values[i] for i in index], as bytes when every value is 0 or +-1 (the
    weights of every built-in system), else as a list."""
    picked = map(values.__getitem__, index)
    return array("b", picked) if all(x in (-1, 0, 1) for x in values) else list(picked)


def _congruence_of(rref: SparseRREF) -> Congruence | None:
    """The congruence of a subspace whose RREF rows have at most two
    entries, else None."""
    rows = rref.rows
    if any(len(row) > 2 for row in rows.values()):
        return None
    free = rref.free()
    cls = array("i", [-1]) * rref.ncols
    w = [0] * rref.ncols
    for c, f in enumerate(free):
        cls[f], w[f] = c, 1
    for p, row in rows.items():
        for f, x in row.items():
            if f != p:
                cls[p], w[p] = cls[f], -x
    return Congruence(cls, _gather(w, range(rref.ncols)), free)


_step_maps_cache: dict[int, list[list[array]]] = {}


def _step_maps(m: int) -> list[list[array]]:
    """Index maps from the degree-m to the degree-(m+1) multilinear basis.

    maps[g][j - 1] sends monomial k to the index of tau_j(g(k)).  The
    generators g are, in order, w -> w x_{m+1}, w -> x_{m+1} w and
    x_i -> x_i x_{m+1} for i = 1..m; tau_j swaps the labels j and m+1
    (tau_{m+1} is the identity).  Every map is injective.

    The maps depend on m alone.  Those below the default cap (m <
    DEFAULT_DEGREE_CAP, 0.3 MB in all) are built once per process and
    shared, so callers must not mutate them; larger ones (192 MB at m = 7)
    are built per call, so they do not stay resident.
    """
    if m in _step_maps_cache:
        return _step_maps_cache[m]
    new = m + 1
    src, dst = MultilinearSpace(m), MultilinearSpace(new)
    rank, nperms = _perm_rank_map(new), dst.nperms
    perms = _perms_lex(m)
    dshape = dst._shape_rank

    def grown(s, pos):
        # shape s with its pos-th leaf (left to right) replaced by a product
        labels = {i: 0 for i in range(m)}
        labels[pos] = (0, 0)
        return dshape[relabel_word(build_word(s, range(m)), labels)]

    # per generator: shape ranks of the images, indexed [source shape][key],
    # and per source permutation the key and the image's labels
    gens = [
        ([[dshape[(s, 0)]] for s in src.shapes], [0] * len(perms), [p + (new,) for p in perms]),
        ([[dshape[(0, s)]] for s in src.shapes], [0] * len(perms), [(new,) + p for p in perms]),
    ]
    grown_table = [[grown(s, pos) for pos in range(m)] for s in src.shapes]
    for i in range(1, m + 1):
        keys = [p.index(i) for p in perms]
        gens.append((grown_table, keys, [p[: a + 1] + (new,) + p[a + 1 :] for p, a in zip(perms, keys)]))

    maps = []
    for table, keys, labels in gens:
        per_tau = []
        for j in range(1, new + 1):
            swap = {x: x for x in range(1, new + 1)}
            swap[j], swap[new] = new, j
            pranks = [rank[tuple([swap[x] for x in q])] for q in labels]
            per_tau.append(
                array("i", [row[a] * nperms + r for row in table for a, r in zip(keys, pranks)])
            )
        maps.append(per_tau)
    if m < DEFAULT_DEGREE_CAP:
        _step_maps_cache[m] = maps
    return maps


# Peak memory of a primal consequence build per ambient column.  It was
# measured on the degree-7 sas build when rows held only Fractions (364 MiB
# over 665,280 columns); with integer rows that build peaks at 293 MiB
# (about 462 bytes per column).  Both constants were measured on builds whose
# rows stay sparse.  They are not a bound for a build whose rows fill in:
# cas-dual, whose degree-5 rows are dense, is estimated at 17 MB for degree 6
# (30,240 columns) and passed 900 MiB there without finishing.
BYTES_PER_COLUMN = 573
# The same for a congruence step: the first-hit array, the pairs set, the
# step maps, the union-find and the two output arrays.  Whole-process peaks
# of the degree-7 builds (Python 3.11.7) were 35.1 MiB for sas, 35.7 for
# a12, 46.2 for as, 62.5 for a13, 77.9 for a132 and 86.1 for a13-anti, the
# largest: 136 bytes per column.  With a margin of about 40 %, 192.  At
# degree 8 the same builds peak at 27-73 bytes per column.
CONGRUENCE_BYTES_PER_COLUMN = 192


def consequence_memory_estimate(n: int, congruence: bool) -> int:
    """Estimated peak bytes of building degree n as a congruence or primal, from
    sparse builds: a primal build whose rows fill in can need many times more."""
    return free_magma_dim(n) * (CONGRUENCE_BYTES_PER_COLUMN if congruence else BYTES_PER_COLUMN)


_consequence_cache: dict[tuple, ConsequenceSpace] = {}


def consequences(sys: IdentitySystem, n: int, cap: int | None = None) -> ConsequenceSpace:
    """Degree-n component of the operadic ideal generated by the system."""
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

    by_degree: dict[int, list[Identity]] = {}
    for ident in sys.identities:
        by_degree.setdefault(ident.degree, []).append(ident)

    start = 1
    prev: ConsequenceSpace | None = None
    # reuse the highest cached lower degree
    for m in range(n - 1, 0, -1):
        got = _consequence_cache.get((sys.key(), m))
        if got is not None:
            prev = got
            start = m + 1
            break

    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for m in range(start, n + 1):
        idents = by_degree.get(m, ())
        congruence = prev is not None and prev.congruence is not None and not idents
        need = consequence_memory_estimate(m, congruence)
        if need > have:
            raise DegreeTooLarge(
                f"degree {m} needs about {need / 2**30:.1f} GiB; this machine has {have / 2**30:.1f} GiB"
            )
        if congruence:
            prev = ConsequenceSpace(sys.name, m, congruence=_congruence_step(prev.congruence, m))
        else:
            acc = _primal_step(prev.rref if prev is not None else None, m, _lifted(idents, m))
            prev = ConsequenceSpace(sys.name, m, rref=acc)
        _consequence_cache[(sys.key(), m)] = prev
    return prev


def _lifted(idents, m: int):
    """The degree-m identities under every relabeling, as index vectors."""
    space = MultilinearSpace(m)
    for ident in idents:
        vec = space.expr_to_vec(ident.expr)
        for perm in _perms_lex(m):
            yield space.relabel_vec(vec, perm)


def _primal_step(prev: SparseRREF | None, m: int, lifted) -> SparseRREF:
    """I(m) by elimination: the images of prev's rows under the step maps,
    then the lifted identities."""
    acc = SparseRREF(MultilinearSpace(m).dim)
    if prev is not None and prev.rank:
        maps = _step_maps(m - 1)
        rows = prev.rows  # read in pivot order, as basis() would, without copying
        for row in (rows[p] for p in sorted(rows)):
            for per_tau in maps:
                for mp in per_tau:
                    acc.insert({mp[k]: c for k, c in row.items()})
    for vec in lifted:
        acc.insert(vec)
    return acc


def _first_hits(maps, cid: list[int], ncols: int):
    """Every hit of the step maps on the ncols degree-m monomials, as the key
    g * ncid + cid[k] of map g and source column k, where the column ids
    cid are 0..ncid-1.

    Returns the key of each monomial's first hit, in map order, and the
    distinct pairs (first key a, key b of a later hit), each as the int
    a * nkeys + b with nkeys = len(maps) * ncid: an int takes half the
    memory of a tuple.  Maps are injective, so a hit with the first key is
    the first hit itself, and is left out.
    """
    ncid = max(cid) + 1
    nkeys = len(maps) * ncid
    first = array("q", [-1]) * ncols
    # later maps write first, so each monomial keeps its first hit; map()
    # runs the writes without a Python-level loop, and any() drains it
    for g in range(len(maps) - 1, -1, -1):
        any(map(first.__setitem__, maps[g], map((g * ncid).__add__, cid)))
    if min(first) < 0:
        raise AssertionError(f"the step maps miss {first.count(-1)} of {ncols} monomials")
    pairs = set()
    for g, mp in enumerate(maps):
        pairs.update(map(add, map(nkeys.__mul__, map(first.__getitem__, mp)), map((g * ncid).__add__, cid)))
    pairs.difference_update(a * (nkeys + 1) for a in set(first))
    return first, pairs


def _congruence_step(prev: Congruence, m: int) -> Congruence:
    """I(m), spanned by the images of I(m-1) = prev under the step maps.

    Map g sends the class element a_c of degree m-1 to a node (g, c) of
    the quotient P(m), so the degree-m monomial j = g(k) is w[k] (g, cls[k])
    there, and is 0 when k is.  Two hits on j equate their two values.  A
    union-find over the nodes, each node a ratio times its root, solves
    these relations; a root is 0 when two paths give it different ratios or
    a zero hit reaches it.  Each monomial takes the root and ratio of its
    first hit.  A functional vanishes on I(m) exactly when its values on the
    nodes satisfy these relations, so the roots that are not 0 give a basis
    of P(m), found without elimination.
    """
    nclasses = len(prev.free)
    ids: dict[tuple, int] = {}
    cid = [ids.setdefault(pair, len(ids)) for pair in zip(prev.cls, prev.w)]
    maps = [mp for per_tau in _step_maps(m - 1) for mp in per_tau]
    first, pairs = _first_hits(maps, cid, MultilinearSpace(m).dim)
    # the node (-1 for a zero hit) and the weight of each hit key
    key_node = [g * nclasses + c if c >= 0 else -1 for g in range(len(maps)) for c, _ in ids]
    key_w = [x for _ in maps for _, x in ids]

    parent = list(range(len(maps) * nclasses))
    ratios = [1] * len(parent)  # node x is ratios[x] times node parent[x]
    zero = bytearray(len(parent))

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        r = 1
        for y in reversed(path):
            r = ratios[y] * r
            parent[y], ratios[y] = x, r
        return x, r

    for pair in pairs:
        a, b = divmod(pair, len(key_node))
        na, nb = key_node[a], key_node[b]
        if na < 0 or nb < 0:
            if na >= 0 or nb >= 0:
                zero[find(max(na, nb))[0]] = 1
            continue
        (ra, ya), (rb, yb) = find(na), find(nb)
        u, v = key_w[a] * ya, key_w[b] * yb  # the monomial is u ra = v rb
        if ra == rb:
            if u != v:
                zero[ra] = 1
        else:
            parent[ra], ratios[ra] = rb, ratio(v, u)
            zero[rb] |= zero[ra]

    # the root (-1 when zero) and the weight against it of each first key
    key_root = [-1] * len(key_node)
    for key in set(first):
        if (n := key_node[key]) >= 0:
            r, y = find(n)
            if not zero[r]:
                key_root[key], key_w[key] = r, key_w[key] * y
    # number the classes by their last members and give those weight 1
    last = dict(zip(map(key_root.__getitem__, first), range(len(first))))
    last.pop(-1, None)
    order = sorted(last, key=last.__getitem__)
    number = {r: c for c, r in enumerate(order)}
    scale = {r: key_w[first[last[r]]] for r in order}
    key_cls = [number[r] if r >= 0 else -1 for r in key_root]
    key_w = [ratio(x, scale[r]) if r >= 0 else 0 for r, x in zip(key_root, key_w)]
    cls = array("i", map(key_cls.__getitem__, first))
    return Congruence(cls, _gather(key_w, first), [last[r] for r in order])


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
    return all(consA.contains_vec(row) for row in consB.basis())


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
        if cons.space.dim - cons.dim != 1:
            continue
        # the one functional vanishing on the consequences takes the same
        # value on every monomial exactly when all monomials are congruent,
        # and that value is its 1 at the free position
        (phi,) = cons.kernel()
        if len(phi) == cons.space.dim and all(x == 1 for x in phi.values()):
            return k
    return None
