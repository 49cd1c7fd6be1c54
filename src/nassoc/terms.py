"""Nonassociative words and identity expressions.

A Word is a full binary tree over generators x1, x2, ...; nested tuples
(left, right) are internal nodes and plain ints are leaves.  An Expr is a
rational linear combination of Words.  Identities are Exprs
normalized to "= 0" form with contiguously numbered variables.

Expr's constructor is the one place where sums of words are collected:
repeated words are added and zero sums dropped there, once, and every
operation (sum, product, scaling, relabelling, polarization) only streams
(word, coefficient) pairs into it.

`multilinear_parts` is the one path from an expression to multilinear
ones: it splits the expression by multidegree and fully polarizes each
component, once it has checked that the words it writes stay within
MAX_POLARIZED_TERMS.  Over Q a homogeneous identity and its full
linearization generate the same T-ideal, so identity checks
(`multilinearize`), consequence spaces, membership proofs and normal forms
all read identities and expressions through it.

The identity DSL is parsed here.  Products are explicitly parenthesized
binary products; [a,b], (a o b) and the ternary associator (a,b,c) are sugar
that expands immediately into raw products:

    [a,b]   -> 1/2 (ab) - 1/2 (ba)
    a o b   -> 1/2 (ab) + 1/2 (ba)
    (a,b,c) -> (ab)c - a(bc)
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .errors import DegreeTooLarge, IndexOutOfRange, NotHomogeneous, ParseError, UnbalancedParens
from .exact.poly import canonical, signed_sum

Word = object  # int leaf or (Word, Word) pair

# multilinear_parts refuses expressions whose polarization writes more words than this
MAX_POLARIZED_TERMS = 10**6


# ---------------------------------------------------------------------------
# words


def degree(word) -> int:
    if isinstance(word, int):
        return 1
    return degree(word[0]) + degree(word[1])


def leaves(word) -> tuple[int, ...]:
    if isinstance(word, int):
        return (word,)
    return leaves(word[0]) + leaves(word[1])


def shape_of(word):
    """Tree shape with all leaves replaced by 0."""
    if isinstance(word, int):
        return 0
    return (shape_of(word[0]), shape_of(word[1]))


def shape_and_leaves(word):
    """(shape_of(word), leaves(word)) from a single walk of the tree."""
    labs: list[int] = []
    return _shape_collect(word, labs.append), tuple(labs)


def _shape_collect(word, collect):
    if isinstance(word, int):
        collect(word)
        return 0
    return (_shape_collect(word[0], collect), _shape_collect(word[1], collect))


def build_word(shape, labels):
    """Attach leaf labels (left to right) to a shape."""
    it = iter(labels)
    out = _build_word(shape, it)
    try:
        next(it)
    except StopIteration:
        return out
    raise ValueError("too many labels for shape")


def _build_word(shape, it):
    if shape == 0:
        return next(it)
    return (_build_word(shape[0], it), _build_word(shape[1], it))


@lru_cache(maxsize=None)
def shapes(n: int) -> tuple:
    """All binary tree shapes with n leaves, left-subtree size descending."""
    if n == 1:
        return (0,)
    out = []
    for left_size in range(n - 1, 0, -1):
        for ls in shapes(left_size):
            for rs in shapes(n - left_size):
                out.append((ls, rs))
    return tuple(out)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def shape_at(n: int, k: int):
    """shapes(n)[k], unranked without listing shapes(n); IndexError unless 0 <= k < catalan(n - 1)."""
    if not 0 <= k < catalan(n - 1):
        raise IndexError(f"no shape {k} with {n} leaves")
    if n == 1:
        return 0
    for left_size in range(n - 1, 0, -1):
        rights = catalan(n - left_size - 1)
        block = catalan(left_size - 1) * rights
        if k < block:
            return (shape_at(left_size, k // rights), shape_at(n - left_size, k % rights))
        k -= block


@lru_cache(maxsize=None)
def _shape_rank(n: int):
    return {s: i for i, s in enumerate(shapes(n))}


def word_key(word):
    """Canonical sort key: degree, shape in Catalan order, then leaf labels."""
    shape, labs = shape_and_leaves(word)
    return (len(labs), _shape_rank(len(labs))[shape], labs)


def relabel_word(word, mapping):
    if isinstance(word, int):
        try:
            return mapping[word]
        except KeyError:
            raise IndexOutOfRange(f"variable x{word} not in permutation domain") from None
    return (relabel_word(word[0], mapping), relabel_word(word[1], mapping))


def word_str(word) -> str:
    if isinstance(word, int):
        return f"x{word}"
    return f"({word_str(word[0])} {word_str(word[1])})"


# ---------------------------------------------------------------------------
# expressions


class Expr:
    """Formal linear combination of Words with rational coefficients.

    Built from a dict or an iterable of (word, coefficient) pairs: repeated
    words are summed, zero sums dropped, and words keep the order in which
    they first appear (a word whose sum drops to zero appears anew).  A
    rational coefficient is kept canonical: an int when integral, else a
    Fraction (`exact.poly.canonical`).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        clean = {}
        if isinstance(terms, dict):
            terms = terms.items()
        for w, c in terms:
            acc = clean.get(w)
            if acc is not None:
                c = acc + c
            if c == 0:
                clean.pop(w, None)
            else:
                clean[w] = canonical(c)
        self.terms = clean

    @staticmethod
    def from_word(word, coeff=1) -> "Expr":
        return Expr({word: coeff})

    @staticmethod
    def var(i: int) -> "Expr":
        return Expr({i: 1})

    @staticmethod
    def zero() -> "Expr":
        return Expr()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Expr") -> "Expr":
        return Expr(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __neg__(self) -> "Expr":
        return Expr({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "Expr":
        return Expr((w, cc * c) for w, cc in self.terms.items())

    def __mul__(self, other: "Expr") -> "Expr":
        """Bilinear product: every word of self times every word of other."""
        right = other.terms.items()
        return Expr(((w1, w2), c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in right)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((w, str(c)) for w, c in self.terms.items()))

    def variables(self) -> tuple[int, ...]:
        vs = set()
        for w in self.terms:
            vs.update(leaves(w))
        return tuple(sorted(vs))

    def degrees(self) -> set[int]:
        return {degree(w) for w in self.terms}

    def is_multilinear(self) -> bool:
        """Every word uses the variables x1..xn exactly once each."""
        vs = self.variables()
        if not vs:
            return True
        n = len(vs)
        if vs != tuple(range(1, n + 1)):
            return False
        target = tuple(range(1, n + 1))
        return all(tuple(sorted(leaves(w))) == target for w in self.terms)

    def relabel(self, mapping) -> "Expr":
        return Expr((relabel_word(w, mapping), c) for w, c in self.terms.items())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))

    def __str__(self):
        parts = []
        for w, c in self.sorted_terms():
            body = word_str(w) if abs(c) == 1 else f"{abs(c)} * {word_str(w)}"
            parts.append(("-" if c < 0 else "+", body))
        return signed_sum(parts)

    def __repr__(self):
        return f"Expr({self})"


def bracket(a: Expr, b: Expr) -> Expr:
    """Commutator sugar: [a,b] = 1/2(ab - ba)."""
    return (a * b - b * a).scale(Fraction(1, 2))


def circle(a: Expr, b: Expr) -> Expr:
    """Anticommutator sugar: a o b = 1/2(ab + ba)."""
    return (a * b + b * a).scale(Fraction(1, 2))


def formal_expand(word, combine) -> Expr:
    """A word in the polarized operation combine (circle or bracket),
    expanded into raw products."""
    if isinstance(word, int):
        return Expr.var(word)
    return combine(formal_expand(word[0], combine), formal_expand(word[1], combine))


def associator(a: Expr, b: Expr, c: Expr) -> Expr:
    return (a * b) * c - a * (b * c)


# ---------------------------------------------------------------------------
# identities


class Identity:
    """An Expr understood as "expr = 0", variables renumbered contiguously."""

    __slots__ = ("expr", "nvars", "degree")

    def __init__(self, expr: Expr):
        if expr.is_zero():
            raise ValueError("the zero expression is not an identity")
        vs = expr.variables()
        if vs != tuple(range(1, len(vs) + 1)):
            mapping = {v: i for i, v in enumerate(vs, start=1)}
            expr = expr.relabel(mapping)
        self.expr = expr
        self.nvars = len(vs)
        degs = expr.degrees()
        self.degree = degs.pop() if len(degs) == 1 else None

    def __eq__(self, other):
        return isinstance(other, Identity) and self.expr == other.expr

    def __hash__(self):
        return hash(self.expr)

    def __str__(self):
        return f"{self.expr} = 0"

    def __repr__(self):
        return f"Identity({self})"


class IdentitySystem:
    """Named finite set of identities defining a variety; the empty system
    defines every algebra, the free magma."""

    __slots__ = ("name", "identities")

    def __init__(self, name: str, identities):
        identities = tuple(identities)
        for ident in identities:
            if ident.degree is not None and ident.nvars > ident.degree:
                raise ValueError("identity has more variables than its degree")
        self.name = name
        self.identities = identities

    def key(self):
        """Canonical cache key: the printed identities, sorted."""
        return tuple(sorted(str(i) for i in self.identities))

    def __eq__(self, other):
        return isinstance(other, IdentitySystem) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"IdentitySystem({self.name!r}, {len(self.identities)} identities)"


# ---------------------------------------------------------------------------
# identity DSL parser


_WORD_OPS = set("()[],=+-*/")


def _tokenize_dsl(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            break
        if ch == "x" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("var", int(text[i + 1 : j]), i))
            i = j
            continue
        if ch == "o" and (i + 1 == n or not (text[i + 1].isalnum())):
            tokens.append(("circ", "o", i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in _WORD_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} in identity text", i)
    return tokens


class _DslParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize_dsl(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("end", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, op: str):
        kind, val, at = self.next()
        if kind != "op" or val != op:
            if op in ")]":
                raise UnbalancedParens(f"expected {op!r}", at)
            raise ParseError(f"expected {op!r}", at)

    def parse_word(self) -> Expr:
        kind, val, at = self.next()
        if kind == "var":
            return Expr.var(val)
        if kind == "op" and val == "[":
            a = self.parse_word()
            self.expect(",")
            b = self.parse_word()
            self.expect("]")
            return bracket(a, b)
        if kind == "op" and val == "(":
            a = self.parse_word()
            k2, v2, _ = self.peek()
            if k2 == "circ":
                self.next()
                b = self.parse_word()
                self.expect(")")
                return circle(a, b)
            if k2 == "op" and v2 == ",":
                self.next()
                b = self.parse_word()
                self.expect(",")
                c = self.parse_word()
                self.expect(")")
                return associator(a, b, c)
            b = self.parse_word()
            self.expect(")")
            return a * b
        if kind == "op" and val == ")":
            raise UnbalancedParens("unmatched ')'", at)
        if kind == "op" and val == "]":
            raise UnbalancedParens("unmatched ']'", at)
        raise ParseError("expected a word", at)

    def parse_rational(self) -> int | Fraction:
        kind, val, at = self.next()
        if kind != "int":
            raise ParseError("expected an integer", at)
        num = val
        k2, v2, _ = self.peek()
        if k2 == "op" and v2 == "/":
            self.next()
            k3, v3, at3 = self.next()
            if k3 != "int":
                raise ParseError("expected a denominator", at3)
            if v3 == 0:
                raise ParseError("zero denominator", at3)
            return Fraction(num, v3)
        return num

    def parse_term(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "int":
            coeff = self.parse_rational()
            k2, v2, at2 = self.peek()
            if k2 == "op" and v2 == "*":
                self.next()
            else:
                raise ParseError("expected '*' after coefficient", at2)
            return self.parse_word().scale(coeff)
        return self.parse_word()

    def parse_sum(self) -> Expr:
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.next()
            if val == "-":
                sign = -1
        acc = self.parse_term().scale(sign)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                term = self.parse_term()
                acc = acc + term if val == "+" else acc - term
            else:
                return acc


def parse_expr(text: str) -> Expr:
    """Parse a DSL expression (no '=') into an Expr with sugar expanded."""
    parser = _DslParser(text)
    expr = parser.parse_sum()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ParseError("trailing input after expression", at)
    return expr


def parse_identity(text: str) -> Identity:
    """Parse "lhs = rhs" (or a bare expression meaning "= 0")."""
    parser = _DslParser(text)
    lhs = parser.parse_sum()
    kind, val, at = parser.peek()
    if kind == "op" and val == "=":
        parser.next()
        k2, v2, _ = parser.peek()
        if k2 == "int" and v2 == 0 and parser.pos + 1 == len(parser.tokens):
            parser.next()
            rhs = Expr.zero()
        else:
            rhs = parser.parse_sum()
        kind, _, at = parser.peek()
        if kind != "end":
            raise ParseError("trailing input after identity", at)
        return Identity(lhs - rhs)
    if kind != "end":
        raise ParseError("trailing input after expression", at)
    return Identity(lhs)


def parse_system(name: str, text: str) -> IdentitySystem:
    """Parse an identity-system file: one identity per line, '#' comments;
    ValueError for a file with none."""
    idents = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        idents.append(parse_identity(stripped))
    if not idents:
        raise ValueError("identity system must be nonempty")
    return IdentitySystem(name, idents)


# ---------------------------------------------------------------------------
# multilinearization


def multilinear_parts(expr: Expr) -> list[tuple[Expr, dict[int, int], int]]:
    """Full polarization of each multihomogeneous component of expr.

    The words are grouped by multidegree, and the components come in
    ascending order of it.  In a component where x_v occurs m_v times, the
    m_v slots after those of the smaller variables stand for x_v, and each
    word becomes the m_1! m_2! ... words that give the occurrences of each
    variable distinct slots.  A component comes back as (multilinear Expr on
    slots 1..n, specialization map slot -> var, factor): putting each slot's
    variable back recovers the component times the factor, the product of
    the m_v!.  A component already multilinear in x1..xn comes back
    unchanged, with the identity map and factor 1.

    Raises DegreeTooLarge, before it writes any word, when the words written,
    summed over every component, exceed MAX_POLARIZED_TERMS.
    """
    by_leaves: dict[tuple, list] = {}
    for w, c in expr.terms.items():
        shape, labs = shape_and_leaves(w)
        by_leaves.setdefault(tuple(sorted(labs)), []).append((w, shape, labs, c))
    groups, count = {}, 0
    for sorted_leaves, group in by_leaves.items():
        multidegree = tuple((v, len(list(run))) for v, run in itertools.groupby(sorted_leaves))
        groups[multidegree] = group
        count += len(group) * prod(factorial(m) for _, m in multidegree)
    if count > MAX_POLARIZED_TERMS:
        raise DegreeTooLarge(f"polarizing {expr} writes {count} words, more than {MAX_POLARIZED_TERMS}")
    return [_polarized(multidegree, group) for multidegree, group in sorted(groups.items())]


def _polarized(multidegree: tuple, group: list) -> tuple[Expr, dict[int, int], int]:
    """One component of `multilinear_parts`: its (word, shape, leaves, coefficient)
    entries, all of the multidegree ((v, m_v), ...)."""
    slots, spec = {}, {}
    for v, m in multidegree:
        slots[v] = range(len(spec) + 1, len(spec) + m + 1)
        spec.update(dict.fromkeys(slots[v], v))
    if all(s == v for s, v in spec.items()):
        return Expr((w, c) for w, _, _, c in group), spec, 1

    def words():
        for _, shape, labs, c in group:
            # the leaf positions of each variable, in the order its slots fill them
            order = [p for v, _ in multidegree for p, u in enumerate(labs) if u == v]
            for combo in itertools.product(*(itertools.permutations(slots[v]) for v, _ in multidegree)):
                new = [0] * len(labs)
                for p, s in zip(order, itertools.chain.from_iterable(combo)):
                    new[p] = s
                yield build_word(shape, new), c

    return Expr(words()), spec, prod(factorial(m) for _, m in multidegree)


def multilinearize(ident: Identity) -> list[Identity]:
    """Full polarization of a homogeneous identity: the multilinear part of
    each multihomogeneous component (`multilinear_parts`), which refuses one
    that writes too many words.  Over Q the output system is equivalent to
    the input identity, and a multilinear identity comes back as itself."""
    if ident.degree is None:
        raise NotHomogeneous(f"identity {ident} is not homogeneous in total degree")
    return [Identity(lin) for lin, _, _ in multilinear_parts(ident.expr)]
