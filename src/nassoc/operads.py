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

Each degree is built on one of two sides, and both leave the same RREF.
The primal side (`_primal_step`) eliminates: it inserts the images of the
degree-(m-1) rows under every step map, then the lifted identities, so its
cost grows with the rank of I(m-1).  The dual side (`_dual_step`) works
with the functionals that vanish on I(m-1): a basis of them has
d = dim P(m-1) elements, P(m-1) being the quotient by I(m-1), since
P(m-1)* is the annihilator of I(m-1) (Loday & Vallette, Algebraic
Operads).  A degree-m functional vanishes on I(m) exactly when its
composite with every step map is a combination of them and it kills the
lifted identities, a linear system in (m+1)*m*d unknowns.
`SparseRREF.kernel_of` turns the degree-m functionals it finds back into
the unique RREF of I(m), so `rows` and `where`, and every consumer of
them, do not depend on the side.  A degree
is built on the dual side when d <= DUAL_MAX_QUOTIENT, which by measurement
is 1: degree 2 of every system, `com-as` from degree 2 on, `cas` from
degree 5 on, and `sas` and `a123` from degree 6 on.

Everything downstream (dimensions, Hilbert series, Koszulity residuals,
Koszul duals, implication between systems, membership proofs, k-niceness)
reduces to exact linear algebra on these spaces.
"""

from __future__ import annotations

import math
import os
from array import array
from fractions import Fraction
from functools import lru_cache

from .errors import DegreeTooLarge, NotMultilinear, NotQuadratic
from .exact.linalg import SparseRREF
from .exact.poly import canonical
from .exact.series import SeriesQ, compose_series
from .terms import (
    Expr,
    Identity,
    IdentitySystem,
    build_word,
    multihomogeneous_components,
    polarize,
    relabel_word,
    shape_and_leaves,
    shapes,
)

DEFAULT_DEGREE_CAP = 6
HARD_DEGREE_CAP = 8


def resolve_degree_cap(cap: int | None = None) -> int:
    """Effective degree cap: explicit argument, else NASSOC_DEGREE_CAP, else 6."""
    if cap is None:
        env = os.environ.get("NASSOC_DEGREE_CAP")
        try:
            cap = int(env) if env else DEFAULT_DEGREE_CAP
        except ValueError:
            raise ValueError(f"NASSOC_DEGREE_CAP must be an integer, got {env!r}") from None
    return min(cap, HARD_DEGREE_CAP)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def free_magma_dim(n: int) -> int:
    """Dimension of the degree-n multilinear component with no relations."""
    return math.factorial(n) * catalan(n - 1)


# ---------------------------------------------------------------------------
# the ambient multilinear space


@lru_cache(maxsize=None)
def _perms_lex(n: int):
    import itertools

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

    def expr_to_vec(self, expr: Expr) -> dict[int, Fraction]:
        vec: dict[int, Fraction] = {}
        for w, c in expr.terms.items():
            try:
                idx = self.index_of_word(w)
            except KeyError:
                raise NotMultilinear(f"word {w} is not multilinear of degree {self.n}") from None
            vec[idx] = Fraction(c)
        return vec

    def vec_to_expr(self, vec: dict[int, Fraction]) -> Expr:
        return Expr({self.word_at(i): c for i, c in vec.items()})

    def relabel_vec(self, vec: dict[int, Fraction], perm) -> dict[int, Fraction]:
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
    """Echelonized degree-n component of the operadic ideal of a system."""

    def __init__(self, system_name: str, degree: int, rref: SparseRREF):
        self.system_name = system_name
        self.degree = degree
        self.space = MultilinearSpace(degree)
        self.rref = rref

    @property
    def dim(self) -> int:
        return self.rref.rank

    def contains_vec(self, vec) -> bool:
        return self.rref.contains(vec)

    def contains_expr(self, expr: Expr) -> bool:
        return self.contains_vec(self.space.expr_to_vec(expr))

    def reduce_vec(self, vec):
        return self.rref.reduce(vec)

    def __repr__(self):
        return f"ConsequenceSpace({self.system_name!r}, degree={self.degree}, dim={self.dim})"


@lru_cache(maxsize=None)
def _step_maps(m: int) -> list[list[array]]:
    """Index maps from the degree-m to the degree-(m+1) multilinear basis.

    maps[g][j - 1] sends monomial k to the index of tau_j(g(k)).  The
    generators g are, in order, w -> w x_{m+1}, w -> x_{m+1} w and
    x_i -> x_i x_{m+1} for i = 1..m; tau_j swaps the labels j and m+1
    (tau_{m+1} is the identity).  Every map is injective.

    The maps depend on m alone, so they are built once per process and
    every caller shares the same lists: callers must not mutate them.
    """
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
    return maps


# Peak memory of a consequence build per ambient column.  It was measured on
# the degree-7 sas build when rows held only Fractions (364 MiB over 665,280
# columns); with integer rows that build peaks at 293 MiB (about 462 bytes
# per column), so the constant is kept as a safe upper bound.
BYTES_PER_COLUMN = 573


def consequence_memory_estimate(n: int) -> int:
    """Estimated peak bytes of building the degree-n consequence space."""
    return free_magma_dim(n) * BYTES_PER_COLUMN


# Build degree m on the dual side when the quotient one degree below has at
# most this dimension.  One step on each side, raw, min of 3, dual time over
# primal time (Python 3.11.7, 2 CPUs): d = 1 wins everywhere (sas 6 0.32,
# cas 5 0.34, cas 6 0.23, com-as 6 0.18); d = 2 loses at degree 4 (cas 1.4)
# and d = 6 at degree 4 (sas 4.4, as 5.7); d = 12 at degree 5 is mixed (sas
# 0.93, a12 1.17); d = 24 loses (as 5 5.7).
DUAL_MAX_QUOTIENT = 1

_consequence_cache: dict[tuple, ConsequenceSpace] = {}


def consequences(sys: IdentitySystem, n: int, cap: int | None = None) -> ConsequenceSpace:
    """Degree-n component of the operadic ideal generated by the system."""
    cap = resolve_degree_cap(cap)
    if n > cap:
        raise DegreeTooLarge(
            f"degree {n} exceeds the cap {cap}; raise it explicitly or via NASSOC_DEGREE_CAP"
        )
    if n < 1:
        raise ValueError("degree must be positive")
    if not sys.is_multilinear():
        raise NotMultilinear(
            f"system {sys.name!r} has non-multilinear identities; multilinearize first"
        )
    key = (sys.key(), n)
    if key in _consequence_cache:
        return _consequence_cache[key]
    need = consequence_memory_estimate(n)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise DegreeTooLarge(
            f"degree {n} needs about {need / 2**30:.1f} GiB; this machine has {have / 2**30:.1f} GiB"
        )

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

    for m in range(start, n + 1):
        lifted = _lifted(by_degree.get(m, ()), m)
        if prev is not None and prev.space.dim - prev.dim <= DUAL_MAX_QUOTIENT:
            acc = _dual_step(prev.rref, m, lifted)
        else:
            acc = _primal_step(prev.rref if prev is not None else None, m, lifted)
        prev = ConsequenceSpace(sys.name, m, acc)
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
    distinct pairs (first key, key of a later hit).  Maps are injective, so
    a hit with the first key is the first hit itself, and is left out.
    """
    ncid = max(cid) + 1
    first = array("q", [-1]) * ncols
    # later maps write first, so each monomial keeps its first hit; map()
    # runs the writes without a Python-level loop, and any() drains it
    for g in range(len(maps) - 1, -1, -1):
        any(map(first.__setitem__, maps[g], map((g * ncid).__add__, cid)))
    if min(first) < 0:
        raise AssertionError(f"the step maps miss {first.count(-1)} of {ncols} monomials")
    pairs = set()
    for g, mp in enumerate(maps):
        pairs.update(zip(map(first.__getitem__, mp), map((g * ncid).__add__, cid)))
    return first, {(a, b) for a, b in pairs if a != b}


def _dual_step(prev: SparseRREF, m: int, lifted) -> SparseRREF:
    """I(m) from the functionals Phi that vanish on I(m-1) = prev.

    A functional f of degree m vanishes on I(m) exactly when f o A lies in
    the span of Phi for every step map A, say f o A = a_A . Phi, and f
    vanishes on the lifted identities.  Every degree-m monomial j is hit by
    some map, so f is fixed by the unknowns a: f(j) = a_g0 . Phi[:, k0] at
    the first hit (g0, k0) of j, and each later hit (g, k) of j asks
    a_g . Phi[:, k] = a_g0 . Phi[:, k0].  The solutions a give the
    functionals of degree m, whose annihilator is I(m).
    """
    phi = prev.kernel()
    d = len(phi)
    # intern the columns of Phi: a hit is (map, column id), not (map, position)
    ids: dict[tuple, int] = {}
    cid = [ids.setdefault(tuple(canonical(f.get(k, 0)) for f in phi), len(ids)) for k in range(prev.ncols)]
    distinct = list(ids)
    maps = [mp for per_tau in _step_maps(m - 1) for mp in per_tau]
    first, pairs = _first_hits(maps, cid, MultilinearSpace(m).dim)

    def unknowns(key, sign):
        g, c = divmod(key, len(distinct))
        return {g * d + i: sign * x for i, x in enumerate(distinct[c]) if x}

    solve = SparseRREF(len(maps) * d)
    for a, b in pairs:
        solve.insert(unknowns(b, 1) | unknowns(a, -1))
    for vec in lifted:
        row: dict[int, int | Fraction] = {}
        for j, c in vec.items():
            for u, x in unknowns(first[j], c).items():
                row[u] = row.get(u, 0) + x
        solve.insert(row)
    sols = solve.kernel()
    # Phi_m[:, j] = a_g0 . Phi[:, k0] for each solution a
    value = {}
    for key in set(first):
        part = unknowns(key, 1).items()
        value[key] = tuple(canonical(sum(a.get(u, 0) * x for u, x in part)) for a in sols)
    return SparseRREF.kernel_of([value[key] for key in first])


def multilinear_dim(sys: IdentitySystem, n: int, cap: int | None = None) -> int:
    cons = consequences(sys, n, cap)
    return cons.space.dim - cons.dim


def hilbert(sys: IdentitySystem, order: int, cap: int | None = None) -> SeriesQ:
    """Signed exponential series: coefficient of t^n is (-1)^n dim(n)/n!."""
    if order < 1:
        raise ValueError(f"series order must be at least 1, got {order}")
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

    def __init__(self, rref: SparseRREF, name: str = "presentation", check_stable: bool = True):
        self.name = name
        self.space = MultilinearSpace(3)
        self.rref = rref
        if check_stable and not self._is_s3_stable():
            raise NotQuadratic(f"relation space of {name!r} is not S3-stable")

    @staticmethod
    def of_system(sys: IdentitySystem, cap: int | None = None) -> "OperadPresentation":
        _check_quadratic(sys)
        cons = consequences(sys, 3, cap)
        return OperadPresentation(cons.rref, sys.name, check_stable=False)

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


def koszul_dual(pres: OperadPresentation | IdentitySystem) -> OperadPresentation:
    """Dual presentation via the Lie-admissibility expansion on tensor products.

    With (x (x) u)(y (x) v) := xy (x) uv, expand the Jacobi cyclic sum
    J = [[a(x)u, b(x)v], c(x)w] + [[b(x)v, c(x)w], a(x)u] + [[c(x)w, a(x)u], b(x)v],
    reduce each first-factor word modulo the relation space, and collect
    J = sum_beta beta (x) E_beta over a basis beta of the quotient.  The dual's
    relation space is the span of the E_beta.  The unhalved commutator is used;
    the halving constants only rescale each E_beta.
    """
    if isinstance(pres, IdentitySystem):
        pres = OperadPresentation.of_system(pres)
    space = pres.space

    def pair_terms(x, y, z, u, v, w):
        # [[x⊗u, y⊗v], z⊗w] expanded: four signed (S-word, U-word) pairs
        return [
            (1, ((x, y), z), ((u, v), w)),
            (-1, ((y, x), z), ((v, u), w)),
            (-1, (z, (x, y)), (w, (u, v))),
            (1, (z, (y, x)), (w, (v, u))),
        ]

    collected: dict[int, dict[int, Fraction]] = {}
    cycles = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    for x, y, z in cycles:
        for sign, sword, uword in pair_terms(x, y, z, x, y, z):
            svec = {space.index_of_word(sword): Fraction(sign)}
            residual = pres.rref.reduce(svec)
            uidx = space.index_of_word(uword)
            for beta, lam in residual.items():
                bucket = collected.setdefault(beta, {})
                bucket[uidx] = bucket.get(uidx, Fraction(0)) + lam
    acc = SparseRREF(space.dim)
    for beta in sorted(collected):
        acc.insert(collected[beta])
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
    return all(consA.contains_vec(row) for row in consB.rref.basis())


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


def _formal_expand(word, combine) -> Expr:
    """A word in the polarized operation combine, expanded into raw products."""
    if isinstance(word, int):
        return Expr.var(word)
    return combine(_formal_expand(word[0], combine), _formal_expand(word[1], combine))


def polarized_identity_dim(sys: IdentitySystem, op: str, n: int, cap: int | None = None) -> int:
    """Dimension of the degree-n identity space of the polarized operation.

    Formal degree-n words in the anticommutator ("circle") or commutator
    ("bracket") alone are expanded into raw products and reduced modulo the
    variety's consequences; the kernel of that linear map is the space of
    identities the polarized operation satisfies.  The count includes the
    trivial identities coming from (anti)commutativity of the operation
    itself, so it is a reporting aid rather than a minimal presentation.
    """
    from .terms import bracket, circle

    if op not in ("circle", "bracket"):
        raise ValueError("op must be 'circle' or 'bracket'")
    combine = circle if op == "circle" else bracket
    cons = consequences(sys, n, cap)
    space = cons.space
    images = SparseRREF(space.dim)
    for idx in range(space.dim):
        images.insert(cons.reduce_vec(space.expr_to_vec(_formal_expand(space.word_at(idx), combine))))
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
        (phi,) = cons.rref.kernel()
        if len(phi) == cons.space.dim and all(x == 1 for x in phi.values()):
            return k
    return None
