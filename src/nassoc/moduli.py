"""Geometric classification support.

A degeneration A -> B is certified by an invertible parametrized basis
E_i(t): the structure constants of A rewritten in that basis must be
rational functions of t whose limits at t = 0 exist and equal B's constants.
The rewriting is `structure.constants_in_basis`, the basis change that
`structure.change_basis` also runs, here over Q(t).
All limits are taken symbolically; a pole surviving exact cancellation is a
hard failure.  Families A(alpha) degenerate through an additional parameter
substitution alpha := f(t); `corpus.run_certificate` checks such a family
certificate once per sampled rational alpha, specializing a parametrized
target at each.

Orbit dimensions follow the derivation count: a single n-dimensional
algebra has orbit dimension n^2 - dim Der; a one-parameter family's orbit
closure gains one dimension on top of the generic orbit dimension.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import exprparse
from .algebras import AlgebraStructure, _json_kind, _json_strings
from .errors import ParametricNotSupported, PoleAtZero, ShapeMismatch, SingularForAllT
from .exact.linalg import span
from .exact.ratfun import RatFunT
from .structure import (
    constants_in_basis,
    derivation_algebra,
    derivation_equations,
    power_subspaces,
    powers_and_nilpotency,
)


@dataclass
class ParamBasis:
    """Columns are the coordinates of E_1..E_n in the reference basis."""

    columns: list  # list of columns, each a list of RatFunT
    subst: dict = field(default_factory=dict)  # parameter name -> RatFunT

    @property
    def dim(self) -> int:
        return len(self.columns)

    @staticmethod
    def from_strings(columns, subst=None, env=None) -> "ParamBasis":
        """The basis from a list of columns, each a list of coefficient strings
        in t, and subst, an object from parameter names to such strings.

        Raises ValueError when columns is not a list of lists or subst is not
        an object, as a string would otherwise be read character by character.
        """
        if columns.__class__ is not list or any(col.__class__ is not list for col in columns):
            raise ValueError(f"a basis is a list of columns, each a list of entries, got {columns!r}")
        if subst is not None and subst.__class__ is not dict:
            raise ValueError(f"a substitution is an object from parameter names to values, got {subst!r}")
        base_env = {"t": RatFunT.t()}
        if env:
            base_env.update(env)
        cols = [
            [exprparse.evaluate(entry, base_env, RatFunT.const) for entry in col] for col in columns
        ]
        sub = {
            name: exprparse.evaluate(text, base_env, RatFunT.const)
            for name, text in (subst or {}).items()
        }
        return ParamBasis(cols, sub)


def transform(A: AlgebraStructure, basis: ParamBasis):
    """Structure constants of A in the parametrized basis, as RatFunT entries.

    Raises SingularForAllT when the basis matrix is singular over Q(t),
    and requires basis.subst to cover all parameters of A.
    """
    n = A.dim
    if basis.dim != n:
        raise ValueError("basis dimension does not match the algebra")
    for i, col in enumerate(basis.columns, 1):
        if len(col) != n:
            raise ValueError(f"basis column {i} has {len(col)} entries, expected {n}")
    for p in A.parameters:
        if p not in basis.subst:
            raise ParametricNotSupported(f"no substitution supplied for parameter {p!r}")
    # rational entries enter Q(t) here, so the constants come back as RatFunT; a float is refused
    columns = [[c if isinstance(c, RatFunT) else RatFunT(c) for c in col] for col in basis.columns]
    table = A.table
    if A.parameters:
        table = [[[(k, v) for k, c in terms if (v := c.eval(basis.subst))] for terms in row] for row in table]
    try:
        return constants_in_basis(table, columns)
    except ValueError:
        raise SingularForAllT("parametrized basis matrix is singular for every t") from None


@dataclass
class CertificateEntry:
    i: int
    j: int
    k: int
    value: str  # c'_ij^k(t)
    limit: Fraction | None
    expected: Fraction
    ok: bool


@dataclass
class DegenerationCertificate:
    source: str
    target: str
    verdict: bool
    entries: list[CertificateEntry]

    def failures(self):
        return [e for e in self.entries if not e.ok]


def degeneration_check(A: AlgebraStructure, basis: ParamBasis, B: AlgebraStructure) -> DegenerationCertificate:
    """Verify that the parametrized basis certifies A -> B."""
    if B.is_parametric():
        raise ParametricNotSupported("degeneration target must be parameter-free")
    if A.dim != B.dim:
        raise ValueError("source and target dimensions differ")
    n = A.dim
    transformed = transform(A, basis)
    entries = []
    verdict = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = transformed[i][j][k]
                expected = B.constants[i][j][k]
                try:
                    lim = c.value_at_zero()
                    ok = lim == expected
                except PoleAtZero:
                    lim = None
                    ok = False
                if not ok:
                    verdict = False
                entries.append(CertificateEntry(i + 1, j + 1, k + 1, str(c), lim, expected, ok))
    return DegenerationCertificate(A.name, B.name, verdict, entries)


# ---------------------------------------------------------------------------
# orbit dimensions and necessary conditions


def generic_derivation_dim(A: AlgebraStructure) -> int:
    """Derivation dimension at generic parameter values (rank over Q(alpha), alpha as t)."""
    if len(A.parameters) > 1:
        raise ParametricNotSupported("generic derivations support one parameter")
    n, c = A.dim, A.constants
    if A.parameters:
        env = {A.parameters[0]: RatFunT.t()}
        c = [[[p.eval(env) for p in vec] for vec in row] for row in c]
    return n * n - span(derivation_equations(c), n * n).rank


def orbit_dim(A: AlgebraStructure) -> int:
    """n^2 - dim Der(A); for a parametric family, the dimension of the union
    of the family's orbits (one extra dimension per free parameter)."""
    return A.dim * A.dim - generic_derivation_dim(A) + len(A.parameters)


@dataclass
class NecessaryReport:
    proper: bool
    der_condition: bool
    square_condition: bool
    nilpotency_condition: bool
    details: dict

    @property
    def possible(self) -> bool:
        return self.proper and self.der_condition and self.square_condition and self.nilpotency_condition


def degeneration_necessary(A: AlgebraStructure, B: AlgebraStructure) -> NecessaryReport:
    """Advisory necessary conditions for a proper degeneration A -> B."""
    same = A.dim == B.dim and A.constants == B.constants
    derA = derivation_algebra(A).dim
    derB = derivation_algebra(B).dim
    powA, powB = powers_and_nilpotency(A), powers_and_nilpotency(B)
    a2A, a2B = powA.power_dims[1], powB.power_dims[1]
    nilpA, nilpB = powA.is_nilpotent, powB.is_nilpotent
    return NecessaryReport(
        proper=not same,
        der_condition=derA < derB,
        square_condition=a2A >= a2B,
        nilpotency_condition=(not nilpA) or nilpB,
        details={
            "dim_der": (derA, derB),
            "dim_square": (a2A, a2B),
            "nilpotent": (nilpA, nilpB),
        },
    )


# ---------------------------------------------------------------------------
# closed sets


@dataclass
class ClosedSetSpec:
    containments: list[str] = field(default_factory=list)
    equations: list[str] = field(default_factory=list)

    @staticmethod
    def from_dict(data) -> "ClosedSetSpec":
        """The spec of a JSON object with optional string lists "contain" and
        "equations"; ValueError names a malformed field."""
        if data.__class__ is not dict:
            raise ValueError(f"a closed set must be a JSON object, got {_json_kind(data)}")
        containments = _json_strings(data, "contain", "the closed set")
        for text in containments:
            _parse_containment(text)
        return ClosedSetSpec(containments, _json_strings(data, "equations", "the closed set"))


def _parse_containment(text: str):
    # "Ap*Aq<=Ar" with A_i the span of e_i..e_n, i >= 1
    match = re.fullmatch(r"A([1-9]\d*)\*A([1-9]\d*)<=A([1-9]\d*)", text.replace(" ", ""), re.ASCII)
    if not match:
        raise ValueError(f"field 'contain' of the closed set must list containments Ap*Aq<=Ar, got {text!r}")
    return tuple(int(g) for g in match.groups())


def closed_set_membership(spec: ClosedSetSpec, A: AlgebraStructure) -> bool:
    """Evaluate containment shorthands and polynomial equations at A's constants."""
    if A.is_parametric():
        raise ParametricNotSupported("specialize parameters before membership tests")
    n, c = A.dim, A.constants
    for text in spec.containments:
        p, q, r = _parse_containment(text)
        for i in range(p, n + 1):
            for j in range(q, n + 1):
                for k in range(1, r):
                    if c[i - 1][j - 1][k - 1] != 0:
                        return False
    # Fraction values, so that / and negative powers in the equations stay exact
    env = {
        f"c[{i}][{j}][{k}]": Fraction(c[i - 1][j - 1][k - 1])
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    }
    for eq in spec.equations:
        if "=" in eq:
            lhs, rhs = eq.split("=", 1)
            lv = exprparse.evaluate(lhs, env, Fraction)
            rv = exprparse.evaluate(rhs, env, Fraction)
            if lv != rv:
                return False
        else:
            if exprparse.evaluate(eq, env, Fraction) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# the pencil invariant for 3-dimensional 2-step nilpotent algebras


def pencil_invariant(A: AlgebraStructure) -> Fraction:
    """Normalized determinant of the symmetric product part.

    Applies to 3-dimensional 2-step nilpotent algebras whose square is one
    dimensional with a nonzero antisymmetric product part.  Writing products
    into the square's generator z as S (symmetric) and K (antisymmetric)
    2x2 forms on a complement, rescaling z normalizes K to the standard
    antisymmetric unit and det(S) becomes a basis-change invariant.
    """
    if A.dim != 3:
        raise ShapeMismatch("pencil invariant needs a 3-dimensional algebra")
    if A.is_parametric():
        raise ParametricNotSupported("specialize parameters first")
    chain = power_subspaces(A, limit=3)
    square = chain[1]
    if len(square) != 1:
        raise ShapeMismatch("the square must be one-dimensional")
    cube = chain[2] if len(chain) > 2 else square
    if cube:
        raise ShapeMismatch("the algebra must be 2-step nilpotent")
    z = square[0]
    pivot = next(i for i, x in enumerate(z) if x)
    comp = [i for i in range(3) if i != pivot]
    u = A.basis_element(comp[0] + 1)
    v = A.basis_element(comp[1] + 1)

    def coeff(x, y):
        prod = A.mul(x, y)
        lam = Fraction(prod[pivot], z[pivot])  # int / int would be a float
        if any(prod[i] != lam * z[i] for i in range(3)):
            raise ShapeMismatch("products leave the one-dimensional square")
        return lam

    s11 = coeff(u, u)
    s22 = coeff(v, v)
    uv = coeff(u, v)
    vu = coeff(v, u)
    k = Fraction(uv - vu, 2)
    s12 = Fraction(uv + vu, 2)
    if k == 0:
        raise ShapeMismatch("the antisymmetric product part vanishes")
    return (s11 * s22 - s12 * s12) / (k * k)


# ---------------------------------------------------------------------------
# randomized evidence helpers (seeded, deterministic)


def random_invertible_matrix(n: int, rng: random.Random):
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if span(m, n).rank == n:
            return m


# ---------------------------------------------------------------------------
# certificate repair: diagonal monomial bases t^k e_i


def monomial_certificate_search(A: AlgebraStructure, B: AlgebraStructure, max_exp: int = 6):
    """Exponent vectors (k_1..k_n) such that E_i = t^{k_i} e_i certifies A -> B.

    In such a basis the transformed constants are t^{k_i + k_j - k_k} c_ij^k
    in closed form, so the search is pure integer feasibility.
    """
    if A.is_parametric() or B.is_parametric():
        raise ParametricNotSupported("specialize parameters before the search")
    n = A.dim
    if B.dim != n:
        raise ValueError("dimension mismatch")
    cA, cB = A.constants, B.constants

    def fits(a, b, d):
        # t^d a tends to b: d > 0 sends a to 0, d = 0 keeps it, d < 0 is a pole
        if a == 0:
            return b == 0
        return d > 0 and b == 0 or d == 0 and a == b

    cells = list(itertools.product(range(n), repeat=3))
    return [
        ks
        for ks in itertools.product(range(max_exp + 1), repeat=n)
        if all(fits(cA[i][j][k], cB[i][j][k], ks[i] + ks[j] - ks[k]) for i, j, k in cells)
    ]
