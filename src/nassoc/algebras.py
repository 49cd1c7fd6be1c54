"""Finite-dimensional algebras given by structure constants.

The scalars are chosen once, when the algebra is built: a table without
parameters holds rational constants, each an int when integral and a
Fraction otherwise (`exact.poly.canonical`), and a table that declares
parameters holds multivariate polynomials over Q (PolyQ) in those names,
whose coefficients follow the same rule, so a whole family like
e2*e2 = alpha*e3 is a single algebra value and identity checks verify the
family at once.  An element is the tuple of its coordinates in the same
scalars, so x == y and not any(x) compare elements, and the arithmetic
below uses only +, *, == and truthiness, so one code path serves both; the
results of add, scale and mul are lifted back into canonical form, as a
sum of non-integral Fractions can be integral.

Identity checking has two modes: "multilinear" evaluates every identity
(multilinearized first when needed) on all basis tuples, which is complete
in characteristic zero; "symbolic" substitutes generic elements
g{v} = sum_i g{v}_i e_i and checks polynomial vanishing, which is valid over
any infinite field and also covers non-multilinear identities directly.

Every product of the package runs through one routine, `_product`, on a
sparse table: the nonzero (k, c) of each product e_i e_j.  `mul`, Leibniz
checks and the basis change `structure.constants_in_basis` use the one the
algebra builds with it, both identity-check modes an integer twin of it
(below).

Both modes run one scan, `_scan`, compiled once per call without forming
an element: each word becomes its tree shape and leaf labels.  The values
of a shape are built sparsely, once per call and shared by every word and
identity of it: a dict from each tuple of basis indices at its leaves where
the bracketed product is nonzero to that product, which is formed only from
two nonzero factors.  The scan visits in ascending order the monomials (the
products of the g{v}_i at the leaves; the basis tuples, for a multilinear
identity) where some word has two nonzero factors, and adds the words in
order there; at every other tuple each word is zero.  Multilinear mode
stops at the first nonzero coordinate, so the first counterexample, printed
value included, is that of a plain evaluation of every word on every tuple.
Symbolic mode takes the least nonzero coordinate over all monomials and
prints it from a second, plain evaluation of the identity: generic elements
from `generic_element`, words through `mul`, `add` and `scale` in PolyQ
arithmetic, so the order of the variables in a printed value is PolyQ's
alone.  The mode chooses only the parts scanned and the report.  Both modes
raise DegreeTooLarge, before any evaluation, for a request past
MAX_CHECK_EVALUATIONS.

The scan runs in int arithmetic on one integer table per check: the
constants times D, the lcm of their denominators, and for a family the
parameters replaced by one integer point, X ** ((B + 1) ** j) for parameter
j (Kronecker substitution), with X past Cauchy's bound on the roots of every
coordinate, so a coordinate is zero at X exactly when it is zero as a
polynomial; `check_identity` gives the proof.  A "holds" stays a proof, and
a failing part is scanned again in the algebra's own scalars, so its report
is that of a scan in them.  The integer form of a table is built on its
first check and kept on the algebra.  A family whose point would pass
MAX_POINT_EXPONENT, many parameters at a high degree, is scanned in PolyQ.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import add

from . import exprparse
from .errors import DegreeTooLarge, ParameterClash
from .exact.poly import PolyQ, as_fraction, canonical
from .terms import Identity, IdentitySystem, degree, multilinearize, shape_and_leaves, shape_of

# check_identity refuses a request of more word evaluations than this (words
# times the basis tuples at their leaves), as dim ** degree grows fast
MAX_CHECK_EVALUATIONS = 10**6
# check_identity substitutes X ** ((B + 1) ** j) for parameter j of a family
# (see its docstring) while (B + 1) ** (parameters used) is at most this
MAX_POINT_EXPONENT = 4096


def _rational(c) -> int | Fraction:
    """Lift a scalar into a parameter-free algebra: an int when integral, else a Fraction."""
    if c.__class__ is int:
        return c
    if isinstance(c, PolyQ):
        if c.used_vars():
            raise ValueError(f"undeclared parameter {c.used_vars()[0]!r} in constants")
        return c.constant_value()
    return canonical(as_fraction(c))


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


def _json_kind(value) -> str:
    return _JSON_KINDS.get(value.__class__, "null")


def _json_field(data: dict, key: str, kind, where: str, default=None):
    """data[key] when it is of the JSON type kind, else default when absent; ValueError names the field."""
    if key not in data:
        if default is None:
            raise ValueError(f"{where} has no field {key!r}")
        return default
    value = data[key]
    if value.__class__ is not kind:
        raise ValueError(f"field {key!r} of {where} must be {_JSON_KINDS[kind]}, got {_json_kind(value)}")
    return value


def _json_strings(data: dict, key: str, where: str) -> list:
    """The optional list of strings data[key], empty when absent."""
    values = _json_field(data, key, list, where, [])
    for v in values:
        if v.__class__ is not str:
            raise ValueError(f"field {key!r} of {where} must list strings, got {_json_kind(v)}")
    return values


class AlgebraStructure:
    """Algebra on an ordered basis with structure constants in Q or Q[parameters]."""

    def __init__(self, name: str, dim: int, constants, parameters=(), basis=None):
        """constants[i][j] is the coordinate list of e_{i+1} e_{j+1}.

        Scalars are rationals when there are no parameters, an int when
        integral and a Fraction otherwise, and PolyQ when there are; self.lift
        turns a rational or polynomial input into one.  Raises ValueError on
        a repeated parameter name or basis label.
        """
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.name = name
        self.dim = dim
        self.parameters = tuple(parameters)
        if len(set(self.parameters)) != len(self.parameters):
            repeated = next(p for p in self.parameters if self.parameters.count(p) > 1)
            raise ValueError(f"parameter {repeated!r} is repeated")
        self.basis = tuple(basis) if basis else tuple(f"e{i+1}" for i in range(dim))
        if len(self.basis) != dim:
            raise ValueError("basis label count does not match the dimension")
        if len(set(self.basis)) != dim:
            repeated = next(b for b in self.basis if self.basis.count(b) > 1)
            raise ValueError(f"basis label {repeated!r} is repeated")
        self.lift = PolyQ.lift if self.parameters else _rational
        self.constants = tuple(
            tuple(tuple(self.lift(c) for c in constants[i][j]) for j in range(dim))
            for i in range(dim)
        )
        for i in range(dim):
            for j in range(dim):
                if len(self.constants[i][j]) != dim:
                    raise ValueError("structure constant vectors must have length dim")
                if not self.parameters:
                    continue
                for p in self.constants[i][j]:
                    for v in p.used_vars():
                        if v not in self.parameters:
                            raise ValueError(f"undeclared parameter {v!r} in constants")
        # table[i][j] lists the nonzero (k, c) of e_i e_j, k ascending, all indices 0-based
        self.table = tuple(
            tuple(tuple((k, c) for k, c in enumerate(vec) if c) for vec in row) for row in self.constants
        )
        self._integer = None  # the table over one denominator, built by the first identity check

    # -- elements ---------------------------------------------------------

    def zero_element(self) -> tuple:
        return (self.lift(0),) * self.dim

    def basis_element(self, i: int) -> tuple:
        """1-indexed basis vector."""
        coords = [self.lift(0)] * self.dim
        coords[i - 1] = self.lift(1)
        return tuple(coords)

    def element(self, coords) -> tuple:
        """Coordinates from outside the program, lifted into the algebra's scalars.

        Raises ValueError when their number is not the dimension.
        """
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate vector has the wrong length")
        return tuple(map(self.lift, coords))

    def add(self, x, y) -> tuple:
        return tuple(self.lift(a + b) for a, b in zip(x, y))

    def scale(self, c, x) -> tuple:
        return tuple(self.lift(c * a) for a in x)

    def mul(self, x, y) -> tuple:
        """The product of two coordinate sequences of length dim, lifted into canonical form;
        a coordinate that `_product` reaches keeps its sum, also when it cancels."""
        out = _product(_sparse(x), _sparse(y), self.table)
        return tuple(self.lift(out.get(k, 0)) for k in range(self.dim))

    # -- parameters ---------------------------------------------------------

    def specialize(self, values: dict) -> "AlgebraStructure":
        """Substitute rational or PolyQ values for (some) parameters.

        Raises ValueError when a name is not a parameter of the algebra, and
        TypeError when a value is neither rational nor a PolyQ, a float say.
        """
        unknown = sorted(set(values) - set(self.parameters))
        if unknown:
            raise ValueError(f"{self.name} has no parameter {', '.join(map(repr, unknown))}")
        env = {k: v if isinstance(v, PolyQ) else canonical(as_fraction(v)) for k, v in values.items()}
        remaining = tuple(p for p in self.parameters if p not in env)
        constants = [
            [[c.subs(env) for c in vec] for vec in row] for row in self.constants
        ] if env else self.constants
        suffix = ",".join(f"{k}={env[k]}" for k in sorted(env))
        name = f"{self.name}[{suffix}]" if suffix else self.name
        return AlgebraStructure(name, self.dim, constants, remaining, self.basis)

    def with_parameters(self, extra) -> "AlgebraStructure":
        params = list(self.parameters)
        for p in extra:
            if p in params:
                raise ParameterClash(f"parameter {p!r} already declared")
            params.append(p)
        return AlgebraStructure(self.name, self.dim, self.constants, params, self.basis)

    def is_parametric(self) -> bool:
        return bool(self.parameters)

    def generic_names(self, prefix: str) -> list[str]:
        """The coordinate names prefix_1..prefix_n of a generic element.

        Raises ParameterClash when one of them is already a parameter.
        """
        names = [f"{prefix}_{i+1}" for i in range(self.dim)]
        for nm in names:
            if nm in self.parameters:
                raise ParameterClash(f"generated coordinate {nm!r} collides with a parameter")
        return names

    def generic_element(self, prefix: str) -> tuple["AlgebraStructure", tuple]:
        """Extend the parameter ring by fresh coordinates prefix_1..prefix_n."""
        names = self.generic_names(prefix)
        ext = self.with_parameters(names)
        return ext, ext.element([PolyQ.var(nm) for nm in names])

    # -- display -------------------------------------------------------------

    def products_str(self):
        b = self.basis
        return [
            f"{b[i]} {b[j]} = " + " + ".join(b[k] if c == 1 else f"({c})*{b[k]}" for k, c in terms)
            for i, row in enumerate(self.table)
            for j, terms in enumerate(row)
            if terms
        ]

    def __repr__(self):
        return f"AlgebraStructure({self.name!r}, dim={self.dim}, params={list(self.parameters)})"

    # -- JSON interchange -----------------------------------------------------

    def to_json_dict(self) -> dict:
        b = self.basis
        products = [
            {"left": b[i], "right": b[j], "value": [[str(c), b[k]] for k, c in terms]}
            for i, row in enumerate(self.table)
            for j, terms in enumerate(row)
            if terms
        ]
        return {
            "name": self.name,
            "dim": self.dim,
            "basis": list(self.basis),
            "parameters": list(self.parameters),
            "products": products,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(data: dict) -> "AlgebraStructure":
        """Raises ValueError, naming the field, on a document of the wrong shape,
        a repeated basis label or parameter, an unknown label or a product given twice."""
        if data.__class__ is not dict:
            raise ValueError(f"an algebra must be a JSON object, got {_json_kind(data)}")
        dim = _json_field(data, "dim", int, "the algebra")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        basis = _json_strings(data, "basis", "the algebra") or [f"e{i+1}" for i in range(dim)]
        if len(basis) != dim:
            raise ValueError("basis label count does not match the dimension")
        params = tuple(_json_strings(data, "parameters", "the algebra"))
        index = {label: i for i, label in enumerate(basis)}

        def at(label):
            if label not in index:
                raise ValueError(f"unknown basis label {label!r}")
            return index[label]

        env = {p: PolyQ.var(p) for p in params}
        constants = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        given = set()
        for n, prod in enumerate(_json_field(data, "products", list, "the algebra", []), 1):
            where = f"product {n}"
            if prod.__class__ is not dict:
                raise ValueError(f"{where} must be a JSON object, got {_json_kind(prod)}")
            left, right = (_json_field(prod, side, str, where) for side in ("left", "right"))
            pair = (at(left), at(right))
            if pair in given:
                raise ValueError(f"product {left} {right} is given twice")
            given.add(pair)
            vec = constants[pair[0]][pair[1]] = [0] * dim
            for term in _json_field(prod, "value", list, where):
                if term.__class__ is not list or len(term) != 2 or term[1].__class__ is not str:
                    raise ValueError(f"field 'value' of {where} must list [coefficient, label] pairs, got {json.dumps(term)}")
                vec[at(term[1])] += exprparse.evaluate(term[0], env, PolyQ.const)
        name = _json_field(data, "name", str, "the algebra", "algebra")
        return AlgebraStructure(name, dim, constants, params, basis)

    @staticmethod
    def from_json(text: str) -> "AlgebraStructure":
        return AlgebraStructure.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# identity checking


@dataclass
class Counterexample:
    identity: str
    tuple_labels: tuple
    coordinate: str
    value: str
    mode: str

    def __str__(self):
        at = ", ".join(self.tuple_labels)
        return f"{self.identity} fails at ({at}): coefficient of {self.coordinate} is {self.value}"


@dataclass
class CheckResult:
    holds: bool
    counterexample: Counterexample | None = None

    def __bool__(self):
        return self.holds


def _sparse(x) -> list:
    """The nonzero (i, c) of a coordinate sequence, i ascending."""
    return [(i, c) for i, c in enumerate(x) if c]


def _product(left, right, table) -> dict:
    """{k: sum} of the product of two sparse values, lists of nonzero (i, c) with i ascending.

    The additions run in the order of a dense product (left index, right
    index, output coordinate), which keeps the variable order of PolyQ sums,
    and with it every printed value, independent of which products are
    skipped.  Every coordinate that a term reaches is a key, also when its
    sum cancels (a cancelled PolyQ sum keeps its variable tuple).
    """
    out = {}
    for a, ca in left:
        row = table[a]
        for b, cb in right:
            coef = ca * cb
            for k, c in row[b]:
                out[k] = out.get(k, 0) + coef * c
    return out


def _nonzero(out: dict) -> tuple:
    """The nonzero (k, c) of a _product, k ascending: the sparse value of a word."""
    return tuple(sorted((k, v) for k, v in out.items() if v))


def _shape_values(shape, table, dim: int, values: dict) -> dict:
    """{idx: nonzero (k, c)} of the product of basis vectors idx bracketed as shape.

    Only the leaf-index tuples idx where the product is nonzero are keys, in
    itertools.product order, and a product is formed only from two nonzero
    factors.  values caches the result by shape for the whole call.
    """
    got = values.get(shape)
    if got is None:
        if shape == 0:
            got = {(i,): ((i, 1),) for i in range(dim)}
        else:
            right = _shape_values(shape[1], table, dim, values).items()
            got = {}
            for li, lv in _shape_values(shape[0], table, dim, values).items():
                for ri, rv in right:
                    prod = _nonzero(_product(lv, rv, table))
                    if prod:
                        got[li + ri] = prod
        values[shape] = got
    return got


def _scan(table, n: int, terms, values: dict, tops: dict, first: bool) -> tuple | None:
    """(monomial, k, sum) of the least nonzero coordinate k of the identity with the
    (word, coefficient) terms, or None when it holds on the n-dimensional table.

    With first, k is taken at the first failing monomial, else over all.  A
    monomial is encoded as the sorted tuple of (v - 1) * n + i over the
    leaves of a word, variable v at basis index i, which sorts as the
    (v, i) pairs do: for a multilinear identity it lists a basis tuple, in
    itertools.product order.  Each word is keyed by monomial at the leaf
    tuples where both its factors are nonzero, or, for a bare variable or a
    shape whose values are built as a factor, where it is nonzero.  At each
    monomial, in ascending order, the words add in the order of terms, and a
    top product is formed there, kept in tops for a shape that several words
    of the call share.
    """
    by_mono = defaultdict(list)
    for w, coef in terms:
        shape, labels = shape_and_leaves(w)
        if shape == 0 or shape in values:  # read the word off its own values
            left, right = _shape_values(shape, table, n, values), {(): None}
        else:
            left, right = (_shape_values(s, table, n, values) for s in shape)
        memo, right, offsets = tops.get(shape), right.items(), [(v - 1) * n for v in labels]
        for li, lv in left.items():
            for ri, rv in right:
                idx = li + ri
                key = tuple(sorted(map(add, offsets, idx)))
                by_mono[key].append((coef, lv, rv, memo, None if memo is None else idx))
    least, found = n, None
    for mono in sorted(by_mono):
        acc = {}
        for coef, lv, rv, memo, idx in by_mono[mono]:
            if rv is None:
                value = lv
            elif memo is None:
                value = _nonzero(_product(lv, rv, table))
            else:
                value = memo.get(idx)
                if value is None:
                    value = memo[idx] = _nonzero(_product(lv, rv, table))
            for k, c in value:
                acc[k] = acc.get(k, 0) + coef * c
        for k, total in acc.items():
            if k < least and total:
                least, found = k, (mono, k, total)
        if found and (first or least == 0):
            break
    return found


def _word_value(A: AlgebraStructure, word, values) -> tuple:
    """The element value of word; values maps each variable, and then each subword evaluated, to its element."""
    got = values.get(word)
    if got is None:
        got = values[word] = A.mul(_word_value(A, word[0], values), _word_value(A, word[1], values))
    return got


def _generic_value(A: AlgebraStructure, ident: Identity, k: int) -> PolyQ:
    """Coordinate k of ident at generic elements g1..g{nvars}, in PolyQ arithmetic."""
    ext, values = A, {}
    for v in range(1, ident.nvars + 1):
        ext, values[v] = ext.generic_element(f"g{v}")
    acc = ext.zero_element()
    for w, c in ident.expr.sorted_terms():
        acc = ext.add(acc, ext.scale(c, _word_value(ext, w, values)))
    return acc[k]


@dataclass
class _IntegerForm:
    """An algebra's table over one denominator, its parameters still free.

    scale is D, the lcm of the denominators of the coefficients of every
    constant; used lists the parameters that occur in the table, in declared
    order; degree is e, the largest total degree of a constant; entries[i][j]
    lists the (k, p) of D * e_i e_j, p the (monomial, int) terms of the
    constant, a monomial the (index into used, exponent) pairs of its
    variables; norm is C, the largest sum over k of the l1 norms of the p of
    one e_i e_j.  tables caches the integer tables of `_integer_check`, by
    (B, X); a table without parameters in it keeps only its one integer
    table, at (0, 0), and no entries.
    """

    scale: int
    used: tuple
    degree: int
    norm: int
    entries: tuple
    tables: dict


def _integer_form(A: AlgebraStructure) -> _IntegerForm:
    """The _IntegerForm of A, built on its first check and kept on A."""
    form = A._integer
    if form is None and not A.parameters and all(c.__class__ is int for row in A.table for t in row for _, c in t):
        A._integer = form = _IntegerForm(1, (), 0, 0, (), {(0, 0): A.table})  # its own integer table
    if form is None:

        def monomials(c):
            if not A.parameters:
                return [((), c)]
            return [(tuple((v, e) for v, e in zip(c.vars, exps) if e), coef) for exps, coef in c.terms.items()]

        cells = [[[(k, monomials(c)) for k, c in terms] for terms in row] for row in A.table]
        flat = [term for row in cells for terms in row for _, p in terms for term in p]
        occurs = {v for mono, _ in flat for v, _ in mono}
        used = tuple(v for v in A.parameters if v in occurs)
        index = {v: j for j, v in enumerate(used)}
        scale = lcm(*(c.denominator for _, c in flat))

        def integral(p):
            return tuple(
                (tuple((index[v], e) for v, e in mono), c.numerator * (scale // c.denominator)) for mono, c in p
            )

        entries = tuple(tuple(tuple((k, integral(p)) for k, p in terms) for terms in row) for row in cells)
        top = max((sum(e for _, e in mono) for mono, _ in flat), default=0)
        norm = max((sum(abs(c) for _, p in terms for _, c in p) for row in entries for terms in row), default=0)
        tables = {}
        if not used:  # one integer table serves every check: keep it alone
            tables[0, 0] = _at_point(entries, 0, 0, 0)
            entries = ()
        A._integer = form = _IntegerForm(scale, used, top, norm, entries, tables)
    return form


def _at_point(entries, m: int, bound: int, point: int) -> tuple:
    """The int table of entries over m parameters, parameter j at point ** ((bound + 1) ** j)."""
    weights = [(bound + 1) ** j for j in range(m)]

    def value(p):
        return sum(c * point ** sum(e * weights[j] for j, e in mono) for mono, c in p)

    return tuple(tuple(tuple((k, value(p)) for k, p in terms) for terms in row) for row in entries)


def _integer_terms(ident: Identity, scale: int, degrees: dict) -> list:
    """The (word, int) terms of ident times the lcm of its denominators, each word
    w also times scale ** (top - degrees[w]), top the largest degree of ident."""
    terms = ident.expr.sorted_terms()
    den = lcm(*(c.denominator for _, c in terms))
    if scale == den == 1:
        return terms
    top = max(degrees[w] for w, _ in terms)
    return [(w, c.numerator * (den // c.denominator) * scale ** (top - degrees[w])) for w, c in terms]


def _integer_check(A: AlgebraStructure, parts, degrees: dict) -> tuple:
    """(table, terms of each part) for `_scan`: A's table over one denominator at one
    integer point, and each part over one denominator (see `check_identity`);
    degrees maps each word of the parts to its degree.

    A's own table and terms instead when the point would be too large:
    (B + 1) ** (parameters used) above MAX_POINT_EXPONENT.
    """
    form = _integer_form(A)
    scaled = [_integer_terms(part, form.scale, degrees) for part in parts]
    bound = point = 0
    if form.used:
        bound = (max(degrees.values()) - 1) * form.degree
        if (bound + 1) ** len(form.used) > MAX_POINT_EXPONENT:
            return A.table, [part.expr.sorted_terms() for part in parts]
        point = 2 + max(
            sum(abs(c) * factorial(degrees[w]) * form.norm ** (degrees[w] - 1) for w, c in terms) for terms in scaled
        )
    table = form.tables.get((bound, point))
    if table is None:
        table = form.tables[bound, point] = _at_point(form.entries, len(form.used), bound, point)
    return table, scaled


def check_identity(A: AlgebraStructure, sys: IdentitySystem, mode: str = "multilinear") -> CheckResult:
    """Check every identity of the system on A; parameters stay symbolic.

    Multilinear mode scans the multilinear parts of each identity and
    reports the first nonzero coordinate at the first failing basis tuple.
    Symbolic mode scans each identity as given, at generic elements g1, g2,
    ..., and reports its least nonzero coordinate, a polynomial evaluated in
    PolyQ arithmetic.  Both run `_scan` on one integer table, with one set of
    sparse shape values and top products for the whole call (see the module
    docstring), and a failing part is scanned again on A's own table for its
    report, so the report is that of a scan in A's scalars.

    The integer table is a proof, not a sample.  Let D be the lcm of the
    denominators of A's constants and every identity part be scaled by the
    lcm of its coefficients' denominators, each word w also by
    D ** (d - deg w), d the part's largest degree.  On the table D * c every
    word comes out as D ** (deg w - 1) times its value, so every scanned
    coordinate is the same nonzero multiple of the one in A's scalars: a
    polynomial P with integer coefficients in the m parameters that occur.
    It has total degree at most B = (d_max - 1) * e, e the largest total
    degree of a constant, so the Kronecker substitution of X ** ((B + 1) ** j)
    for parameter j maps its monomials to distinct powers of X: P(X) is a
    polynomial in X with the coefficients of P.  With C the largest sum over
    k of the l1 norms of D * c_ijk, a word of degree d at a basis tuple has
    coordinates of l1 norm at most C ** (d - 1), and at most d! leaf tuples
    meet in one monomial, so |P|_1 <= H = sum over w of |coefficient| *
    deg(w)! * C ** (deg w - 1).  By Cauchy's bound a nonzero integer
    polynomial whose coefficients are at most H in size has no root of
    modulus H + 1 or more, so at X = H + 2 the integer P(X) is zero exactly
    when P is, and the scan finds the same (monomial, k) as in A's scalars.
    A rational table (m = 0) needs no X.  When (B + 1) ** m exceeds
    MAX_POINT_EXPONENT, the integers would be too long, and the scan runs on
    A's own table.

    Raises DegreeTooLarge, before evaluating anything, when the check could
    make more than MAX_CHECK_EVALUATIONS word evaluations, dim ** degree for
    each word of each part: the count takes every basis tuple at the leaves,
    so it bounds the work from above.  Raises ParameterClash when a generated
    coordinate g{v}_i is a parameter of A.
    """
    if mode == "multilinear":
        parts = [lin for ident in sys.identities for lin in multilinearize(ident)]
    elif mode == "symbolic":
        parts = sys.identities
    else:
        raise ValueError("mode must be 'multilinear' or 'symbolic'")
    degrees = {w: degree(w) for part in parts for w in part.expr.terms}
    _refuse_above(
        f"{mode} check of {sys.name} on {A.name}",
        sum(A.dim ** max(map(degrees.get, part.expr.terms)) * len(part.expr.terms) for part in parts),
    )
    table, scanned = _integer_check(A, parts, degrees)
    # the factor values of every word come first, so a word whose shape is
    # also a factor reads them instead of forming its top products again
    values, shared = {}, Counter(shape_of(w) for part in parts for w in part.expr.terms)
    for shape in shared:
        for factor in shape or ():  # a bare variable, shape 0, has none
            _shape_values(factor, table, A.dim, values)
    tops = {shape: {} for shape, words in shared.items() if words > 1 and shape not in values}
    for part, terms in zip(parts, scanned):
        generic = tuple(f"g{v}" for v in range(1, part.nvars + 1))
        if mode == "symbolic":
            for g in generic:
                A.generic_names(g)  # raises ParameterClash on a parameter named g{v}_i
        found = _scan(table, A.dim, terms, values, tops, mode == "multilinear")
        if found:
            own = part.expr.sorted_terms()
            if mode == "multilinear" and (table is not A.table or terms != own):
                found = _scan(A.table, A.dim, own, {}, {}, True)
            mono, k, total = found
            if mode == "multilinear":
                at, value = tuple(A.basis[e % A.dim] for e in mono), A.lift(total)
            else:
                at, value = generic, _generic_value(A, part, k)
            return CheckResult(False, Counterexample(str(part), at, A.basis[k], str(value), mode))
    return CheckResult(True)


def _refuse_above(what: str, count: int):
    """Raise DegreeTooLarge when what, a check, needs more than MAX_CHECK_EVALUATIONS word evaluations."""
    if count > MAX_CHECK_EVALUATIONS:
        raise DegreeTooLarge(f"{what} needs {count} word evaluations, more than {MAX_CHECK_EVALUATIONS}")


# ---------------------------------------------------------------------------
# constructions


def plus_algebra(A: AlgebraStructure) -> AlgebraStructure:
    """Anticommutator algebra: constants (c + c^T)/2 in the first two indices."""
    return scalar_mutation(A, Fraction(1, 2), Fraction(1, 2), f"{A.name}^+")


def minus_algebra(A: AlgebraStructure) -> AlgebraStructure:
    """Commutator algebra: constants (c - c^T)/2."""
    return scalar_mutation(A, Fraction(1, 2), Fraction(-1, 2), f"{A.name}^-")


def _table_from_product(A: AlgebraStructure, product, name: str) -> AlgebraStructure:
    constants = [
        [product(A.basis_element(i + 1), A.basis_element(j + 1)) for j in range(A.dim)]
        for i in range(A.dim)
    ]
    return AlgebraStructure(name, A.dim, constants, A.parameters, A.basis)


def mutation(A: AlgebraStructure, p, q) -> AlgebraStructure:
    """(p,q)-mutation: x*y = (xp)y - (yq)x."""

    def star(x, y):
        return A.add(A.mul(A.mul(x, p), y), A.scale(-1, A.mul(A.mul(y, q), x)))

    return _table_from_product(A, star, f"mut({A.name})")


def kantor_square(A: AlgebraStructure, p) -> AlgebraStructure:
    """p-Kantor square: x*y = p(xy) - (px)y - x(py)."""

    def star(x, y):
        t = A.mul(p, A.mul(x, y))
        t = A.add(t, A.scale(-1, A.mul(A.mul(p, x), y)))
        t = A.add(t, A.scale(-1, A.mul(x, A.mul(p, y))))
        return t

    return _table_from_product(A, star, f"kantor({A.name})")


def scalar_mutation(A: AlgebraStructure, alpha, beta, name: str | None = None) -> AlgebraStructure:
    """x*y = alpha*xy + beta*yx, with alpha and beta rational or polynomial."""
    params = list(A.parameters)
    for scalar in (alpha, beta):
        if isinstance(scalar, PolyQ):
            params += [p for p in scalar.used_vars() if p not in params]
    c, n = A.constants, A.dim
    constants = [
        [[alpha * c[i][j][k] + beta * c[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)
    ]
    return AlgebraStructure(name or f"smut({A.name})", A.dim, constants, params, A.basis)


def unital_hull(A: AlgebraStructure) -> AlgebraStructure:
    """Adjoin a unit: dimension n+1 with basis (1, e1, ..., en), the unit
    labelled 1, or 1_, 1__, ... when A already has that label."""
    n = A.dim
    constants = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    constants[0][0][0] = 1
    for i in range(1, n + 1):
        constants[0][i][i] = constants[i][0][i] = 1
        for j in range(1, n + 1):
            constants[i][j] = [0, *A.constants[i - 1][j - 1]]
    one = "1"
    while one in A.basis:
        one += "_"
    basis = (one,) + A.basis
    return AlgebraStructure(f"hull({A.name})", n + 1, constants, A.parameters, basis)


def sum_algebra(A: AlgebraStructure, B: AlgebraStructure) -> AlgebraStructure:
    """The product x(.+*)y = x.y + x*y on the common underlying space."""
    if A.dim != B.dim or A.parameters != B.parameters:
        raise ValueError("sum product needs matching dimension and parameters")
    constants = [
        [
            [A.constants[i][j][k] + B.constants[i][j][k] for k in range(A.dim)]
            for j in range(A.dim)
        ]
        for i in range(A.dim)
    ]
    return AlgebraStructure(f"({A.name})+({B.name})", A.dim, constants, A.parameters, A.basis)


def compatible_check(A: AlgebraStructure, B: AlgebraStructure, sys: IdentitySystem) -> CheckResult:
    """Compatibility of two products on one space.

    The pair is compatible for the variety when every combination aA + bB
    of the two products satisfies the identities.  The check runs once, on
    A + u*B with u a fresh parameter kept symbolic.  A multilinear identity
    of degree d evaluates on A + u*B to a polynomial in u of degree d - 1
    whose coefficients are the pure A part, the pure B part and every mixed
    part, so it vanishes exactly when all of them do, at every degree.
    """
    if A.dim != B.dim or A.parameters != B.parameters:
        raise ValueError("compatible products must share dimension and parameters")
    u = "u"
    while u in A.parameters:
        u += "_"
    uvar = PolyQ.var(u)
    n = A.dim
    constants = [
        [[A.constants[i][j][k] + uvar * B.constants[i][j][k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    combined = AlgebraStructure(f"({A.name})+{u}({B.name})", n, constants, A.parameters + (u,), A.basis)
    return check_identity(combined, sys)
