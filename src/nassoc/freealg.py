"""Free-algebra bases and normal forms for the shift and cyclic associative
varieties.

Both free algebras have the same low-degree skeleton: all words of degree
<= 2, an explicit family of right-normed monomials in one middle degree
(degree 3 and 4 for the shift associative case, degree 3 for the cyclic
case), and from there on a single sorted right-normed anticommutator word
x_{i1} o (x_{i2} o (...)) per nondecreasing index tuple.

Normal forms route every multihomogeneous component through exact linear
algebra: polarize to the multilinear component, reduce modulo the
consequence space with pivots steered away from the basis monomials, and
specialize the fresh variables back.  This keeps the rewriting sound by
construction (the difference always lies in the consequence ideal) and
idempotent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeTooLarge
from .exact.linalg import SparseRREF
from .exact.poly import signed_sum
from .operads import MultilinearSpace, consequences, resolve_degree_cap
from .systems import builtin_system
from .terms import (
    Expr,
    build_word,
    circle,
    degree as word_degree,
    leaves,
    multihomogeneous_components,
    polarize,
    shape_of,
    word_key,
    word_str,
)

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
        out = Expr.var(self.indices[-1])
        for i in reversed(self.indices[:-1]):
            out = circle(Expr.var(i), out)
        return out

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
    if n > resolve_degree_cap(None) + 2:
        # enumeration is cheap but keep an upper sanity bound
        raise DegreeTooLarge(f"degree {n} basis enumeration refused")
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

    terms: list  # list of (Fraction, label)

    @property
    def expr(self) -> Expr:
        out = Expr.zero()
        for c, label in self.terms:
            out = out + label_expr(label).scale(c)
        return out

    def __str__(self):
        parts = []
        for c, label in self.terms:
            body = label_str(label) if abs(c) == 1 else f"{abs(c)} * {label_str(label)}"
            parts.append(("-" if c < 0 else "+", body))
        return signed_sum(parts)


def _multilinear_basis_labels(variety: str, n: int):
    """Basis labels of the multilinear slot component (variables 1..n)."""
    return free_basis(variety, n, n, multilinear=True)


_steered_cache: dict[tuple, tuple[SparseRREF, list[int]]] = {}


def _steered_rref(variety: str, n: int, cap):
    """Consequence RREF whose pivots avoid the multilinear basis columns."""
    key = (variety, n)
    if key in _steered_cache:
        return _steered_cache[key]
    sys = builtin_system(variety)
    cons = consequences(sys, n, cap)
    space = cons.space
    basis_cols = []
    for label in _multilinear_basis_labels(variety, n):
        if isinstance(label, CircleWord):
            continue  # handled through the one-dimensional reduction path
        basis_cols.append(space.index_of_word(label))
    taken = set(basis_cols)
    others = [i for i in range(space.dim) if i not in taken]
    order = others + basis_cols
    steered = SparseRREF(space.dim, order=order)
    for row in cons.rref.basis():
        steered.insert(row)
    if steered.rank != cons.dim:
        raise AssertionError("steered reduction lost rank")
    pivots = set(steered.pivot_positions())
    if any(c in pivots for c in basis_cols):
        raise AssertionError("basis monomials are not independent modulo consequences")
    _steered_cache[key] = (steered, basis_cols)
    return _steered_cache[key]


def _one_dim_data(variety: str, n: int, cap):
    """(consequence space, free column, coefficient of the sorted circle word)."""
    sys = builtin_system(variety)
    cons = consequences(sys, n, cap)
    space = cons.space
    if space.dim - cons.dim != 1:
        raise AssertionError(f"degree {n} component of {variety} is not one-dimensional")
    cw = CircleWord(tuple(range(1, n + 1)))
    residual = cons.reduce_vec(space.expr_to_vec(cw.expr))
    if len(residual) != 1:
        raise AssertionError("circle word did not reduce to a single monomial")
    ((free_col, mu),) = residual.items()
    if mu == 0:
        raise AssertionError("circle word vanishes modulo consequences")
    return cons, free_col, mu


def _component_normal_form(variety: str, comp: Expr, cap) -> list:
    n = next(iter(comp.degrees()))
    if n <= 2:
        return [(c, w) for w, c in comp.sorted_terms()]
    lin, spec, factor = polarize(comp)
    space = MultilinearSpace(n)
    vec = space.expr_to_vec(lin)
    if n >= _circle_degree_start(variety):
        cons, free_col, mu = _one_dim_data(variety, n, cap)
        residual = cons.reduce_vec(vec)
        if not residual:
            return []
        lam = residual.get(free_col)
        if lam is None or len(residual) != 1:
            raise AssertionError("reduction left support outside the free column")
        coeff = lam / mu / factor
        tup = tuple(sorted(spec[s] for s in range(1, n + 1)))
        return [(coeff, CircleWord(tup))]
    steered, basis_cols = _steered_rref(variety, n, cap)
    residual = steered.reduce(vec)
    out: dict[object, Fraction] = {}
    for col, c in residual.items():
        word = space.word_at(col)
        specialized = tuple(spec[s] for s in leaves(word))
        label = build_word(shape_of(word), specialized)
        out[label] = out.get(label, Fraction(0)) + c / factor
    return [(c, w) for w, c in sorted(out.items(), key=lambda kv: word_key(kv[0])) if c != 0]


def normal_form(expr: Expr, variety: str, cap: int | None = None) -> NormalForm:
    """Normal form in the free-algebra basis of the given variety."""
    if variety not in ("sas", "cas"):
        raise ValueError("variety must be 'sas' or 'cas'")
    cap_val = resolve_degree_cap(cap)
    for w in expr.terms:
        if word_degree(w) > cap_val:
            raise DegreeTooLarge(f"word of degree {word_degree(w)} exceeds the cap {cap_val}")
        if not isinstance(expr.terms[w], Fraction):
            raise TypeError("normal forms require rational coefficients")
    terms: list = []
    for comp in multihomogeneous_components(expr):
        terms.extend(_component_normal_form(variety, comp, cap))
    # merge duplicate circle-word labels across components (cannot collide with words)
    merged: dict = {}
    order: list = []
    for c, label in terms:
        if label in merged:
            merged[label] += c
        else:
            merged[label] = c
            order.append(label)
    return NormalForm([(merged[lab], lab) for lab in order if merged[lab] != 0])


def sas_normal_form(expr: Expr, cap: int | None = None) -> NormalForm:
    return normal_form(expr, "sas", cap)


def cas_normal_form(expr: Expr, cap: int | None = None) -> NormalForm:
    return normal_form(expr, "cas", cap)
