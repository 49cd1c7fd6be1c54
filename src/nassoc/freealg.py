"""Free-algebra bases and normal forms for the shift and cyclic associative
varieties.

Both free algebras have the same low-degree skeleton: all words of degree
<= 2, an explicit family of right-normed monomials in one middle degree
(degree 3 and 4 for the shift associative case, degree 3 for the cyclic
case), and from there on a single sorted right-normed anticommutator word
x_{i1} o (x_{i2} o (...)) per nondecreasing index tuple.

Normal forms route every multihomogeneous component, of every degree,
through exact linear algebra: take its multilinear part from
`terms.multilinear_parts` (the component itself when it is multilinear
already, so no word is rebuilt), reduce modulo the consequence space, read
off the coordinates of the residual in the basis of the quotient, and
specialize the fresh variables back.  The
coordinates in a basis are unique, so the rewriting is sound by
construction (the difference always lies in the consequence ideal) and
idempotent.

The coordinate work is done on integer multilinear index vectors, once per
degree: each degree's quotient keeps the index vector of every basis label
over one shared denominator (2^(n-1) where the labels are circle words),
maps a vector over a denominator to its label coordinates and expands
coordinates back to an integer vector and its denominator.  Past the
one-off inverse that builds a quotient, Fractions appear only in the
coordinates, each of which divides once.  `NormalForm.expr`, the expansion
into raw words, is only for output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeTooLarge
from .exact.linalg import inverse
from .exact.poly import canonical, ratio, signed_sum
from .operads import HARD_DEGREE_CAP, ConsequenceSpace, consequences, refuse_degree
from .systems import builtin_system
from .terms import (
    Expr,
    circle,
    degree as word_degree,
    formal_expand,
    leaves,
    multilinear_parts,
    relabel_word,
    word_key,
    word_str,
)

# free_basis refuses requests with more labels than this: the list is built
# in memory, about 120 bytes per degree-3 label, so 10^6 labels take ~0.12 GB
MAX_BASIS_LABELS = 10**6

# right-normed degree-4 basis patterns: x_a(x_b(x_c x_d)) with (a,b,c,d) the
# listed position patterns applied to a nondecreasing index tuple (i,j,k,l)
_B4_PATTERNS = (
    (1, 2, 3, 4),
    (1, 2, 4, 3),
    (1, 3, 2, 4),
    (1, 3, 4, 2),
    (1, 4, 2, 3),
    (1, 4, 3, 2),
    (2, 1, 3, 4),
    (2, 1, 4, 3),
    (2, 3, 4, 1),
    (2, 4, 3, 1),
    (3, 2, 4, 1),
    (4, 2, 3, 1),
)


def right_normed_word(labels) -> object:
    """x_{a}(x_{b}(... x_{z})) as a raw Word."""
    labels = tuple(labels)
    if len(labels) == 1:
        return labels[0]
    return (labels[0], right_normed_word(labels[1:]))


@dataclass(frozen=True)
class CircleWord:
    """Right-normed anticommutator word x_{i1} o (x_{i2} o (...))."""

    indices: tuple[int, ...]

    @property
    def expr(self) -> Expr:
        """The word expanded into raw products, a o w = 1/2 (a w) + 1/2 (w a)."""
        return formal_expand(right_normed_word(self.indices), circle)

    def __str__(self):
        text = f"x{self.indices[-1]}"
        for i in reversed(self.indices[:-1]):
            text = f"(x{i} o {text})"
        return text


def label_expr(label) -> Expr:
    if isinstance(label, CircleWord):
        return label.expr
    return Expr.from_word(label)


def label_str(label) -> str:
    if isinstance(label, CircleWord):
        return str(label)
    return word_str(label)


def _circle_degree_start(variety: str) -> int:
    return 5 if variety == "sas" else 4


def free_basis(variety: str, n: int, k: int, multilinear: bool = False):
    """Basis monomials of the free algebra at degree n on k ordered generators.

    Returns a list of labels (raw Words, or CircleWords from the degree where
    the sorted anticommutator words take over).  With multilinear=True only
    monomials using each of x1..xn exactly once are kept.
    """
    if variety not in ("sas", "cas"):
        raise ValueError("variety must be 'sas' or 'cas'")
    if n < 1 or k < 1:
        raise ValueError("degree and generator count must be positive")
    if n > HARD_DEGREE_CAP + 2:
        # enumeration is cheap but keep an upper sanity bound
        raise DegreeTooLarge(f"degree {n} basis enumeration refused")
    if multilinear:
        k = min(k, n)  # multilinear labels use x1..xn only
    if n >= _circle_degree_start(variety):
        count = math.comb(k + n - 1, n)
    else:  # the words enumerated, a bound on the labels kept
        count = len(_B4_PATTERNS) * math.comb(k + 3, 4) if n == 4 else k**n
    if count > MAX_BASIS_LABELS:
        raise DegreeTooLarge(
            f"degree {n} on {k} generators enumerates {count} labels, more than {MAX_BASIS_LABELS}"
        )
    gens = range(1, k + 1)
    labels: list = []
    if n >= _circle_degree_start(variety):
        for tup in itertools.combinations_with_replacement(gens, n):
            labels.append(CircleWord(tup))
    elif n == 1:
        labels = list(gens)
    elif n == 2:
        labels = [(i, j) for i in gens for j in gens]
    elif n == 3:
        if variety == "sas":
            labels = [(i, (j, l)) for i in gens for j in gens for l in gens]
        else:
            labels = [(i, (j, l)) for i in gens for j in gens for l in gens if i <= min(j, l)]
    else:  # n == 4, sas only
        for tup in itertools.combinations_with_replacement(gens, 4):
            seen = set()
            for pat in _B4_PATTERNS:
                w = right_normed_word(tuple(tup[p - 1] for p in pat))
                if w not in seen:
                    seen.add(w)
                    labels.append(w)
    if multilinear:
        target = tuple(range(1, n + 1))

        def lin(label):
            idx = label.indices if isinstance(label, CircleWord) else leaves(label)
            return tuple(sorted(idx)) == target

        labels = [lab for lab in labels if lin(lab)]
    return labels


# ---------------------------------------------------------------------------
# normal forms


@dataclass
class NormalForm:
    """Linear combination of basis labels, with its raw-word expansion."""

    terms: list  # list of (rational, label)

    @property
    def expr(self) -> Expr:
        return Expr((w, lc * c) for c, label in self.terms for w, lc in label_expr(label).terms.items())

    def __str__(self):
        parts = []
        for c, label in self.terms:
            body = label_str(label) if abs(c) == 1 else f"{abs(c)} * {label_str(label)}"
            parts.append(("-" if c < 0 else "+", body))
        return signed_sum(parts)


def _times(x, m: int) -> int:
    """x * m as an int, for a rational x whose denominator divides m."""
    return x.numerator * (m // x.denominator)


@dataclass(frozen=True)
class _Quotient:
    """Coordinates in the multilinear quotient of one degree.

    `vecs` holds the multilinear index vector of each basis label as an
    integer vector over the one denominator `den`, the lcm of the labels'
    denominators.  `inv` is an integer matrix over the denominator `inv_den`:
    inv / inv_den inverts the square matrix whose rows are the labels'
    residuals on the free (non-pivot) columns of the consequence space, so a
    residual r has the label coordinates sum over col of
    r[col] * inv[free[col]] / inv_den.
    """

    cons: ConsequenceSpace
    free: dict  # free column -> its position
    labels: list
    vecs: list
    den: int
    inv: list
    inv_den: int

    def coords(self, vec, den=1) -> list:
        """Label coordinates of the multilinear vector vec / den modulo the
        consequences; integer vec and den stay in int up to one division
        per coordinate."""
        out = [0] * len(self.labels)
        for col, r in self.cons.reduce_vec(vec).items():
            for i, x in enumerate(self.inv[self.free[col]]):
                out[i] += r * x
        d = den * self.inv_den
        return [ratio(canonical(c), d) for c in out]

    def expand(self, coords) -> tuple[dict, int]:
        """(w, d): the integer vector w with w / d the multilinear vector sum
        of coords[i] * vecs[i] / den, for rational coords."""
        b = math.lcm(*(c.denominator for c in coords))
        out: dict = {}
        for c, vec in zip(coords, self.vecs):
            if c:
                m = _times(c, b)
                for k, x in vec.items():
                    out[k] = out.get(k, 0) + m * x
        return {k: x for k, x in out.items() if x}, b * self.den


_quotient_cache: dict[tuple[str, int], _Quotient] = {}


def _quotient(variety: str, n: int, cap) -> _Quotient:
    key = (variety, n)
    if key in _quotient_cache:
        return _quotient_cache[key]
    cons = consequences(builtin_system(variety), n, cap)
    space = cons.space
    free = {col: j for j, col in enumerate(cons.free())}
    labels = free_basis(variety, n, n, multilinear=True)
    if len(labels) != len(free):
        raise AssertionError(f"{len(labels)} basis labels for a {len(free)}-dimensional quotient")
    vecs = [space.expr_to_vec(label_expr(label)) for label in labels]
    matrix = []
    for vec in vecs:
        row = [0] * len(free)
        for col, c in cons.reduce_vec(vec).items():
            row[free[col]] = c
        matrix.append(row)
    try:
        inv = inverse(matrix)
    except ValueError:
        raise AssertionError("basis monomials are not independent modulo consequences") from None
    den = math.lcm(*(x.denominator for vec in vecs for x in vec.values()))
    inv_den = math.lcm(*(x.denominator for row in inv for x in row))
    _quotient_cache[key] = _Quotient(
        cons,
        free,
        labels,
        vecs=[{k: _times(x, den) for k, x in vec.items()} for vec in vecs],
        den=den,
        inv=[[_times(x, inv_den) for x in row] for row in inv],
        inv_den=inv_den,
    )
    return _quotient_cache[key]


def _label_key(label):
    return label.indices if isinstance(label, CircleWord) else word_key(label)


def _component_normal_form(variety: str, lin: Expr, spec: dict, factor: int, cap) -> list:
    """The normal form of one multihomogeneous component from its multilinear
    part lin, specialization map spec and factor (`multilinear_parts`)."""
    q = _quotient(variety, len(spec), cap)
    coords = q.coords(q.cons.space.expr_to_vec(lin))
    # specialize the slots back; distinct labels may land on the same word
    out: dict = {}
    for c, label in zip(coords, q.labels):
        if isinstance(label, CircleWord):
            label = CircleWord(tuple(sorted(spec[s] for s in label.indices)))
        else:
            label = relabel_word(label, spec)
        out[label] = out.get(label, 0) + c
    ordered = sorted(out.items(), key=lambda kv: _label_key(kv[0]))
    return [(ratio(canonical(c), factor), lab) for lab, c in ordered if c != 0]


def normal_form(expr: Expr, variety: str, cap: int | None = None) -> NormalForm:
    """Normal form in the free-algebra basis of the given variety."""
    if variety not in ("sas", "cas"):
        raise ValueError("variety must be 'sas' or 'cas'")
    refuse_degree(max(map(word_degree, expr.terms), default=0), cap)
    if not all(isinstance(c, (int, Fraction)) for c in expr.terms.values()):
        raise TypeError("normal forms require rational coefficients")
    # components have distinct multidegrees, so their labels never collide
    terms: list = []
    for lin, spec, factor in multilinear_parts(expr):
        terms.extend(_component_normal_form(variety, lin, spec, factor, cap))
    return NormalForm(terms)


def sas_normal_form(expr: Expr, cap: int | None = None) -> NormalForm:
    return normal_form(expr, "sas", cap)


def cas_normal_form(expr: Expr, cap: int | None = None) -> NormalForm:
    return normal_form(expr, "cas", cap)
