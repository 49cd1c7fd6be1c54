"""Structure theory for structure-constant algebras.

Covers derivation algebras, power/solvability chains, subalgebra
restriction, the Peirce split at an idempotent, and the semisimple-plus-
radical decomposition.  It also holds the one basis change of the package:
`constants_in_basis` rewrites structure constants in a new basis over
whatever field its inputs lie in, so `change_basis` (a rational matrix on a
table or family) and `moduli.transform` (a basis over Q(t)) both call it.

Derivations, the two splits and the fingerprint need a parameter-free
algebra, whose constants and element coordinates are already rationals (an
int when integral, else a Fraction), so they enter the linear algebra as
they are; only the family-uniform power chains and subalgebra restriction
split a family's PolyQ coordinates into one rational vector per parameter
monomial.  Every rational returned is in that form too
(`exact.poly.canonical`), and a quotient of two goes through
`exact.poly.ratio`, as int / int is a float.  The linear algebra is exact
over Q, and over Q(t) for the basis change, and runs on the sparse
elimination of `exact.linalg`: a subspace of Q^n is kept as its dense RREF
row list, read off a `SparseRREF` by `_rref_rows`, so its dimension is the
length of that list; ranks come from `span`.  A vector in the span of an
RREF basis has its coordinates in that basis at the basis's pivots, since
each row is 1 at its own pivot and 0 at the others; `express` serves the
spanning sets that are not in RREF.  The radical candidate is the kernel
of the trace form tau(x,y) = trace(L_{x o y}) on the anticommutator
algebra; the semisimple part is rebuilt by lifting orthogonal primitive
idempotents from the quotient with the cubic iteration e <- 3e^2 - 2e^3.
Because the trace recipe is a heuristic imported from the commutative
setting, every split is post-verified and the flags are part of the result.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import astuple, dataclass, field
from fractions import Fraction

from . import exprparse
from .algebras import AlgebraStructure, _json_field, _json_kind, _json_strings, check_identity
from .algebras import _product, _refuse_above, _shape_values, _sparse
from .errors import (
    NonSplitOperator,
    NotIdempotent,
    ParametricNotSupported,
    VerificationFailed,
)
from .exact.linalg import express, nullspace, solve_right, span
from .exact.poly import PolyQ, as_fraction, canonical, ratio
from .systems import builtin_system
from .terms import catalan, shapes


# ---------------------------------------------------------------------------
# rational subspaces, each kept as its RREF row list


def _identity_rows(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _rref_rows(acc):
    """The RREF row list of a SparseRREF subspace, as dense rows."""
    return [[row.get(i, 0) for i in range(acc.ncols)] for row in acc.basis()]


def _monomial_parts(A: AlgebraStructure, x):
    """(monomial, rational vector) pairs that sum to x as monomial * vector.

    A parameter-free x is the single pair (1, x); a family element has one
    pair per parameter monomial that occurs in its coordinates.
    """
    if not A.parameters:
        return [(1, list(x))]
    coords = [c.on_vars(A.parameters) for c in x]
    monomials = sorted({e for c in coords for e in c.terms})
    return [
        (PolyQ(A.parameters, {mono: 1}), [c.terms.get(mono, 0) for c in coords])
        for mono in monomials
    ]


def product_span_vectors(A: AlgebraStructure, S1, S2):
    """Rational vectors, one per parameter monomial of each product u v.

    Their span contains the specialization of every product at every
    parameter value, which is the right hull for family-uniform chains.
    """
    return [vec for u in S1 for v in S2 for _, vec in _monomial_parts(A, A.mul(u, v))]


# ---------------------------------------------------------------------------
# powers, solvability, nilpotency


@dataclass
class PowersReport:
    power_dims: list[int]  # dims of A^1, A^2, ...
    derived_dims: list[int]  # dims of A^(1), A^(2), ...
    is_nilpotent: bool
    is_solvable: bool
    nilpotency_class: int | None

    def __str__(self):
        cls = self.nilpotency_class if self.nilpotency_class is not None else "-"
        return (
            f"powers {self.power_dims} derived {self.derived_dims} "
            f"nilpotent={self.is_nilpotent} solvable={self.is_solvable} class={cls}"
        )


def _descending_chain(A: AlgebraStructure, next_vectors, limit: int | None = None) -> list[list]:
    """[S_1 = A, S_2, ...] as RREF row lists, S_{k+1} the span of next_vectors(chain).

    The chain stops at a member of dimension 0 or of the dimension of the
    one before, or at limit members.  Each member lies in the one before,
    so without a limit it stops within dim + 1 members.
    """
    chain = [_identity_rows(A.dim)]
    while limit is None or len(chain) < limit:
        nxt = _rref_rows(span(next_vectors(chain), A.dim))
        chain.append(nxt)
        if not nxt or len(nxt) == len(chain[-2]):
            break
    return chain


def power_subspaces(A: AlgebraStructure, limit: int | None = None) -> list[list]:
    """[A^1, A^2, ...] as RREF row lists, A^k the span of every A^i A^(k-i)."""

    def next_power(chain):
        k = len(chain) + 1
        return [vec for i in range(1, k) for vec in product_span_vectors(A, chain[i - 1], chain[k - i - 1])]

    return _descending_chain(A, next_power, limit)


def powers_and_nilpotency(A: AlgebraStructure) -> PowersReport:
    chain = power_subspaces(A)
    power_dims = [len(s) for s in chain]
    nilpotent = power_dims[-1] == 0
    ncls = None
    if nilpotent:
        ncls = max(k for k, s in enumerate(chain, start=1) if s) if power_dims[0] > 0 else 0
    derived = _descending_chain(A, lambda chain: product_span_vectors(A, chain[-1], chain[-1]))
    solvable = not derived[-1]
    return PowersReport(power_dims, [len(s) for s in derived], nilpotent, solvable, ncls)


def restrict_to_subspace(A: AlgebraStructure, sub, name: str) -> AlgebraStructure:
    """Algebra structure induced on a multiplicatively closed subspace,
    given by its RREF rows, which become the new basis."""
    r = len(sub)
    if r == 0:
        raise ValueError("cannot restrict to the zero subspace")
    acc = span(sub, A.dim)
    pivots = [p for p, _ in acc.pivot_rows()]
    constants = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            coords = [0] * r
            for mono, vec in _monomial_parts(A, A.mul(sub[i], sub[j])):
                if not acc.contains(dict(enumerate(vec))):
                    raise VerificationFailed(
                        f"subspace of {A.name} is not closed under multiplication"
                    )
                for t, p in enumerate(pivots):
                    if vec[p]:
                        coords[t] = coords[t] + mono * vec[p]
            constants[i][j] = coords
    labels = tuple(f"f{i+1}" for i in range(r))
    return AlgebraStructure(name, r, constants, A.parameters, labels)


def power_subalgebra(A: AlgebraStructure, k: int) -> tuple[AlgebraStructure, list]:
    chain = power_subspaces(A, limit=max(k, 2))
    sub = chain[k - 1] if k <= len(chain) else chain[-1]
    if not sub:
        raise ValueError(f"power {k} of {A.name} is the zero subspace")
    return restrict_to_subspace(A, sub, f"{A.name}^{k}"), sub


def subalgebra_identity_check(A: AlgebraStructure, k: int, sys, mode: str = "multilinear"):
    restricted, _ = power_subalgebra(A, k)
    return check_identity(restricted, sys, mode)


# ---------------------------------------------------------------------------
# derivations


@dataclass
class DerivationAlgebra:
    dim: int
    matrices: list  # list of n x n rational matrices, D(e_i) = sum_k D[k][i] e_k


def derivation_equations(c):
    """Nonzero rows of D(e_i e_j) = D(e_i) e_j + e_i D(e_j) over Q or Q(t).

    c[i][j][k] is the e_k coordinate of e_i e_j; int 0 is either field's zero.
    The unknown D[k][i], the e_k coordinate of D(e_i), is column k * n + i.
    """
    n = len(c)
    rows = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [0] * (n * n)
                for l in range(n):
                    if c[i][j][l]:
                        row[m * n + l] = row[m * n + l] + c[i][j][l]
                for k in range(n):
                    if c[k][j][m]:
                        row[k * n + i] = row[k * n + i] - c[k][j][m]
                    if c[i][k][m]:
                        row[k * n + j] = row[k * n + j] - c[i][k][m]
                if any(row):
                    rows.append(row)
    return rows


def derivation_algebra(A: AlgebraStructure) -> DerivationAlgebra:
    """Exact solution space of D(xy) = D(x)y + x D(y) on basis pairs."""
    if A.is_parametric():
        raise ParametricNotSupported(
            f"derivations of {A.name} need specialized parameters; call specialize() first"
        )
    n = A.dim
    kernel = nullspace(derivation_equations(A.constants), ncols=n * n)
    mats = []
    for v in kernel:
        mats.append([[v[k * n + i] for i in range(n)] for k in range(n)])
    return DerivationAlgebra(len(mats), mats)


def is_leibniz_derivation(A: AlgebraStructure, M, n: int, bracketing="all") -> bool:
    """Check D(prod_f(a_1..a_n)) = sum_i prod_f(a_1,..,D(a_i),..,a_n) on basis tuples.

    bracketing: a tree shape with n leaves, or "all" for every arrangement;
    D(e_i) = sum_k M[k][i] e_k.  With the values of a bracketing read off
    `_shape_values`, the left side at the tuple idx is the sum of c D(e_m)
    over the nonzero (m, c) of its value, and the right side the sum over
    positions p and the nonzero M[j][idx[p]] of M[j][idx[p]] times the value
    at idx with j at position p.  Raises DegreeTooLarge, before any work,
    past MAX_CHECK_EVALUATIONS word evaluations: each bracketing on each of
    the dim ** n basis tuples, once for the left side and once per position.
    """
    if n < 1:
        raise ValueError(f"Leibniz order must be at least 1, got {n}")
    bracketings = catalan(n - 1) if bracketing == "all" else 1
    _refuse_above(f"Leibniz check of order {n} on {A.name}", bracketings * A.dim**n * (n + 1))
    # image[i] is D(e_i), sparse
    image = [[(k, A.lift(M[k][i])) for k in range(A.dim) if M[k][i]] for i in range(A.dim)]
    memo = {}
    for shape in shapes(n) if bracketing == "all" else (bracketing,):
        values = _shape_values(shape, A.table, A.dim, memo)
        for idx in itertools.product(range(A.dim), repeat=n):
            diff = {}
            for m, c in values.get(idx, ()):
                for k, d in image[m]:
                    diff[k] = diff.get(k, 0) + c * d
            for p, i in enumerate(idx):
                for j, d in image[i]:
                    for k, c in values.get(idx[:p] + (j,) + idx[p + 1 :], ()):
                        diff[k] = diff.get(k, 0) - d * c
            if any(diff.values()):
                return False
    return True


# ---------------------------------------------------------------------------
# Peirce decomposition


@dataclass
class PeirceSplit:
    a0: list
    a_half: list
    a1: list
    a_half_zero: bool
    a0_ideal: bool
    a1_ideal: bool
    cross_products_zero: bool

    def dims(self):
        return (len(self.a0), len(self.a_half), len(self.a1))


def _lplus_matrix(A: AlgebraStructure, z):
    """Matrix of x -> (zx + xz)/2; column m is the image of e_{m+1}."""
    n = A.dim
    half = Fraction(1, 2)
    cols = []
    for m in range(1, n + 1):
        b = A.basis_element(m)
        cols.append(A.scale(half, A.add(A.mul(z, b), A.mul(b, z))))
    return [[cols[m][k] for m in range(n)] for k in range(n)]


def _is_ideal(A: AlgebraStructure, vectors) -> bool:
    """Whether the span of independent rational vectors absorbs products
    with every basis element on either side."""
    prods = []
    for u in vectors:
        for i in range(1, A.dim + 1):
            b = A.basis_element(i)
            prods += [A.mul(u, b), A.mul(b, u)]
    return span(list(vectors) + prods, A.dim).rank == len(vectors)


def peirce(A: AlgebraStructure, e) -> PeirceSplit:
    """Eigenspace split of x -> (xe + ex)/2 at an exact idempotent e, given by its coordinates."""
    if A.is_parametric():
        raise ParametricNotSupported(f"specialize {A.name} before the Peirce split")
    e = tuple(e)
    try:
        e = A.element(e)
    except ValueError:
        if len(e) != A.dim:
            raise
        raise ParametricNotSupported("element must have rational coordinates") from None
    if A.mul(e, e) != e:
        raise NotIdempotent("e*e differs from e")
    n = A.dim
    L = _lplus_matrix(A, e)
    spaces = {}
    for lam in (0, Fraction(1, 2), 1):
        m = [[L[k][i] - (lam if k == i else 0) for i in range(n)] for k in range(n)]
        spaces[lam] = nullspace(m, ncols=n)
    total = sum(len(v) for v in spaces.values())
    if total != n:
        raise NonSplitOperator(
            f"Peirce operator spectrum escapes {{0, 1/2, 1}} (caught {total} of {n} dimensions)"
        )
    a0, a_half, a1 = spaces[0], spaces[Fraction(1, 2)], spaces[1]

    cross_zero = True
    for u in a0:
        for v in a1:
            if any(A.mul(u, v)) or any(A.mul(v, u)):
                cross_zero = False
    return PeirceSplit(
        a0=a0,
        a_half=a_half,
        a1=a1,
        a_half_zero=not a_half,
        a0_ideal=_is_ideal(A, a0),
        a1_ideal=_is_ideal(A, a1),
        cross_products_zero=cross_zero,
    )


# ---------------------------------------------------------------------------
# semisimple + radical split


@dataclass
class WedderburnSplit:
    s_basis: list  # orthogonal idempotents spanning the semisimple part
    r_basis: list
    flags: dict[str, bool] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(self.flags.values())

    def dims(self):
        return (len(self.s_basis), len(self.r_basis))


def trace_form_gram(A: AlgebraStructure):
    """Gram matrix of tau(x, y) = trace(L_{x o y}) on the basis, where
    L_z x = (zx + xz)/2 and x o y = (xy + yx)/2, read off the structure
    constants c[i][j][k].  The trace is linear in z: trace(L_{e_k}) = t_k / 2
    with t_k = sum_m (c[k][m][m] + c[m][k][m]), so tau(e_i, e_j) =
    1/4 sum_k (c[i][j][k] + c[j][i][k]) t_k."""
    n, c = A.dim, A.constants
    t = [sum(c[k][m][m] + c[m][k][m] for m in range(n)) for k in range(n)]
    quarter = Fraction(1, 4)
    return [
        [canonical(quarter * sum((c[i][j][k] + c[j][i][k]) * t[k] for k in range(n))) for j in range(n)]
        for i in range(n)
    ]


def _min_poly(mulfn, unit, u):
    """Monic minimal polynomial coefficients (ascending) of u relative to unit."""
    powers = [unit]
    while True:
        nxt = mulfn(powers[-1], u)
        coeffs = express(powers, nxt)
        if coeffs is not None:
            # x^d - sum c_k x^k = 0
            return [-c for c in coeffs] + [1]
        powers.append(nxt)


def _rational_roots(coeffs):
    """Distinct rational roots, canonical and ascending, of a polynomial with
    rational coefficients."""
    from math import gcd

    mult = 1
    for c in coeffs:
        mult = mult * c.denominator // gcd(mult, c.denominator)
    ints = [int(c * mult) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    low = 0
    while ints[low] == 0:
        low += 1
    roots = set()
    if low > 0:
        roots.add(0)
    a0, an = abs(ints[low]), abs(ints[-1])

    def divisors(m):
        out = []
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.append(d)
                out.append(m // d)
            d += 1
        return sorted(set(out))

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                val = Fraction(0)
                for c in reversed(ints):
                    val = val * cand + c
                if val == 0:
                    roots.add(canonical(cand))
    return sorted(roots)


def _primitive_idempotents(qmul, sub, unit_elem, name: str) -> list:
    """Primitive orthogonal idempotents of a split semisimple commutative
    associative algebra (product qmul) on the subspace sub with unit unit_elem."""
    if len(sub) == 1:
        base = sub[0]
        c = express(sub, qmul(base, base))[0]
        if c == 0:
            raise VerificationFailed("one-dimensional quotient piece is nilpotent")
        return [[ratio(x, c) for x in base]]
    candidates = [list(b) for b in sub]
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            candidates.append([a + b for a, b in zip(candidates[i], candidates[j])])
    for u in candidates:
        coeffs = _min_poly(qmul, unit_elem, u)
        roots = _rational_roots(coeffs)
        if len(roots) != len(coeffs) - 1:
            continue
        if len(roots) < 2:
            continue
        out = []
        for lam in roots:
            proj = list(unit_elem)
            for mu in roots:
                if mu == lam:
                    continue
                shifted = [a - mu * b for a, b in zip(u, unit_elem)]
                proj = [ratio(x, lam - mu) for x in qmul(proj, shifted)]
            piece = _rref_rows(span([qmul(proj, b) for b in sub], len(unit_elem)))
            out.extend(_primitive_idempotents(qmul, piece, proj, name))
        return out
    raise VerificationFailed(
        f"semisimple quotient of {name} does not split over Q (irrational idempotent data)"
    )


def wedderburn(A: AlgebraStructure) -> WedderburnSplit:
    """Split A into lifted orthogonal idempotents plus the trace-form radical.

    Raises VerificationFailed when the construction cannot be completed (for
    example when the semisimple quotient does not split over Q); otherwise
    post-verification results are returned in the flags.
    """
    if A.is_parametric():
        raise ParametricNotSupported(f"specialize {A.name} before the Wedderburn split")
    n = A.dim
    rad = span(nullspace(trace_form_gram(A), ncols=n), n)
    radical = _rref_rows(rad)
    flags: dict[str, bool] = {}

    # radical must be an ideal for the quotient to make sense
    flags["radical_is_ideal"] = _is_ideal(A, radical)
    if radical:
        restricted = restrict_to_subspace(A, radical, f"rad({A.name})")
        flags["radical_nilpotent"] = powers_and_nilpotency(restricted).is_nilpotent
    else:
        flags["radical_nilpotent"] = True

    s_dim = n - len(radical)
    if s_dim == 0:
        split = WedderburnSplit([], radical, flags)
        flags["sum_is_direct"] = True
        flags["idempotents_orthonormal"] = True
        flags["s_commutative_associative"] = True
        return split
    if not flags["radical_is_ideal"]:
        raise VerificationFailed(f"trace-form kernel of {A.name} is not an ideal")

    # quotient algebra on the non-pivot coordinates: the radical rows and the
    # free unit vectors form a basis of Q^n, and a vector's quotient
    # coordinates, its coefficients on the free unit vectors, are its
    # residual modulo the radical read at the free positions
    eye = _identity_rows(n)
    free = rad.free()
    free_units = [eye[i] for i in free]

    def project(vec):
        res = rad.reduce(dict(enumerate(vec)))
        return [res.get(i, 0) for i in free]

    qconsts = [[None] * s_dim for _ in range(s_dim)]
    for a in range(s_dim):
        for b in range(s_dim):
            qconsts[a][b] = project(A.mul(free_units[a], free_units[b]))
    Q = AlgebraStructure(f"{A.name}/rad", s_dim, qconsts)
    if not check_identity(Q, builtin_system("com-as")).holds:
        raise VerificationFailed(f"quotient of {A.name} by the trace kernel is not commutative associative")

    # unit of the quotient: sum_j unit_j e_j e_i = e_i for every i
    q_eye = _identity_rows(s_dim)
    unit = express(
        [[x for ei in q_eye for x in Q.mul(ej, ei)] for ej in q_eye],
        [x for ei in q_eye for x in ei],
    )
    if unit is None:
        raise VerificationFailed(f"quotient of {A.name} has no unit; trace kernel is not the radical")

    prim = _primitive_idempotents(Q.mul, q_eye, unit, A.name)

    # lift the idempotents into shrinking Peirce-zero ideals
    lifted = []
    ideal = eye
    for qbar in prim:
        sol = express([project(v) for v in ideal], qbar)
        if sol is None:
            raise VerificationFailed("idempotent has no preimage in the Peirce ideal")
        x = tuple(A.lift(sum(sol[t] * ideal[t][i] for t in range(len(ideal)))) for i in range(n))
        for _ in range(2 * n + 4):
            sq = A.mul(x, x)
            if sq == x:
                break
            cube_l = A.mul(sq, x)
            cube_r = A.mul(x, sq)
            if cube_l != cube_r:
                raise VerificationFailed("cubic idempotent iteration left the associative subalgebra")
            x = A.add(A.scale(3, sq), A.scale(-2, cube_l))
        else:
            raise VerificationFailed("idempotent lifting did not converge")
        lifted.append(list(x))
        # shrink to the joint Peirce-zero ideal
        rows = [A.add(A.mul(v, x), A.mul(x, v)) for v in ideal]
        columns = [[rows[t][i] for t in range(len(ideal))] for i in range(n)]
        kern = nullspace(columns, ncols=len(ideal)) if ideal else []
        ideal = _rref_rows(
            span([[sum(coeffs[t] * ideal[t][i] for t in range(len(ideal))) for i in range(n)] for coeffs in kern], n)
        )

    # post-verification
    ortho = True
    for i, u in enumerate(lifted):
        for j, v in enumerate(lifted):
            if A.mul(u, v) != (tuple(u) if i == j else A.zero_element()):
                ortho = False
    flags["idempotents_orthonormal"] = ortho
    flags["sum_is_direct"] = len(radical) + len(lifted) == n == span(radical + lifted, n).rank
    if lifted:
        s_alg = restrict_to_subspace(A, _rref_rows(span(lifted, n)), f"ss({A.name})")
        flags["s_commutative_associative"] = check_identity(s_alg, builtin_system("com-as")).holds
    else:
        flags["s_commutative_associative"] = True
    return WedderburnSplit(lifted, radical, flags)


# ---------------------------------------------------------------------------
# cocycle construction and fingerprints


@dataclass
class CocycleSpec:
    """Symmetric bilinear map given on basis pairs i <= j (1-based)."""

    dim: int
    entries: dict  # (i, j) with i <= j -> coordinate tuple

    def value(self, i: int, j: int):
        return self.entries.get((i, j) if i <= j else (j, i))

    @staticmethod
    def from_json_dict(dim: int, data) -> "CocycleSpec":
        """The map of a theta file: an object whose "entries" send keys "i,j"
        (1 <= i <= j <= dim) to lists of dim coefficients, and whose optional
        "parameters" list the names they may use.  ValueError names a
        malformed field."""
        where = "the theta file"
        if data.__class__ is not dict:
            raise ValueError(f"{where} must be a JSON object, got {_json_kind(data)}")
        env = {p: PolyQ.var(p) for p in _json_strings(data, "parameters", where)}
        entries = {}
        for key, vec in _json_field(data, "entries", dict, where).items():
            match = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", key, re.ASCII)
            if not (match and 1 <= int(match[1]) <= int(match[2]) <= dim):
                raise ValueError(f"key {key!r} of field 'entries' of {where} must read i,j with 1 <= i <= j <= {dim}")
            if vec.__class__ is not list or len(vec) != dim:
                got = f"a list of {len(vec)}" if vec.__class__ is list else _json_kind(vec)
                raise ValueError(f"entry {key!r} of {where} must be a list of {dim} coefficients, got {got}")
            entries[(int(match[1]), int(match[2]))] = tuple(exprparse.evaluate(s, env, PolyQ.const) for s in vec)
        return CocycleSpec(dim, entries)


def algebra_from_cocycle(L: AlgebraStructure, theta: CocycleSpec, name: str | None = None) -> AlgebraStructure:
    """Product x*y = theta(x,y) + [x,y] on an anticommutative algebra L."""
    n = L.dim
    if theta.dim != n:
        raise ValueError("cocycle dimension mismatch")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if L.constants[i][j][k] != -L.constants[j][i][k]:
                    raise ValueError(f"{L.name} is not anticommutative")
    params = list(L.parameters)
    for vec in theta.entries.values():
        for c in vec:
            if isinstance(c, PolyQ):
                params += [v for v in c.used_vars() if v not in params]
    constants = []
    for i in range(n):
        row = []
        for j in range(n):
            sym = theta.value(i + 1, j + 1)
            vec = []
            for k in range(n):
                val = L.constants[i][j][k]
                if sym is not None:
                    val = val + sym[k]
                vec.append(val)
            row.append(vec)
        constants.append(row)
    return AlgebraStructure(name or f"cocycle({L.name})", n, constants, params, L.basis)


@dataclass
class Fingerprint:
    dim: int
    dim_a2: int
    dim_a3: int
    dim_annihilator: int
    dim_der: int
    dim_der_plus: int
    nilpotency_class: int | None
    commutative: bool
    associative: bool
    shift_associative: bool
    cyclic_associative: bool

    def as_tuple(self):
        return astuple(self)


def annihilator_dim(A: AlgebraStructure) -> int:
    if A.is_parametric():
        raise ParametricNotSupported("specialize parameters before computing the annihilator")
    n = A.dim
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([A.constants[i][j][k] for i in range(n)])
            rows.append([A.constants[j][i][k] for i in range(n)])
    return n - span(rows, n).rank


def fingerprint(A: AlgebraStructure) -> Fingerprint:
    from .algebras import plus_algebra

    if A.is_parametric():
        raise ParametricNotSupported("specialize parameters before fingerprinting")
    powers = powers_and_nilpotency(A)
    dims = powers.power_dims
    dim_a2 = dims[1]
    dim_a3 = dims[2] if len(dims) > 2 else dim_a2
    commutative = A.table == tuple(zip(*A.table))  # e_i e_j = e_j e_i for all i, j
    return Fingerprint(
        dim=A.dim,
        dim_a2=dim_a2,
        dim_a3=dim_a3,
        dim_annihilator=annihilator_dim(A),
        dim_der=derivation_algebra(A).dim,
        dim_der_plus=derivation_algebra(plus_algebra(A)).dim,
        nilpotency_class=powers.nilpotency_class,
        commutative=commutative,
        associative=check_identity(A, builtin_system("as")).holds,
        shift_associative=check_identity(A, builtin_system("sas")).holds,
        cyclic_associative=check_identity(A, builtin_system("cas")).holds,
    )


def constants_in_basis(table, columns):
    """Structure constants in the basis E_i = sum_a columns[i][a] e_a.

    table[a][b] lists the nonzero (k, c) of e_a e_b, as `AlgebraStructure.table`
    does.  The constants and the columns may lie in Q, Q[parameters]
    (PolyQ constants) or Q(t) (RatFunT): the products E_i E_j are formed
    by `_product`, and their coordinates X in the new basis solve
    M X = products, M the matrix whose columns are the E_i.  The rank of M
    is checked first, so that a PolyQ product is never taken as a pivot.
    Raises ValueError("matrix is singular") when the columns are dependent.
    """
    n = len(columns)
    matrix = [[col[r] for col in columns] for r in range(n)]
    if span(matrix, n).rank < n:
        raise ValueError("matrix is singular")
    sparse = [_sparse(col) for col in columns]
    products = []
    for ci in sparse:
        for cj in sparse:
            out = _product(ci, cj, table)
            products.append([out.get(k, 0) for k in range(n)])
    solved = solve_right(matrix, products)
    return [solved[i * n : (i + 1) * n] for i in range(n)]


def change_basis(A: AlgebraStructure, matrix) -> AlgebraStructure:
    """Structure constants in the basis E_i = sum_j matrix[j][i] e_j.

    The entries must be rationals: a float raises TypeError.
    """
    n = A.dim
    columns = [[canonical(as_fraction(matrix[r][i])) for r in range(n)] for i in range(n)]
    constants = constants_in_basis(A.table, columns)
    return AlgebraStructure(f"{A.name}~", n, constants, A.parameters, A.basis)
