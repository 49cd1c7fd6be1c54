"""Multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names and a sparse term
map from exponent tuples (aligned with the variable order) to nonzero
rational coefficients, each an `int` when integral and a `Fraction`
otherwise (see `canonical`).  The zero polynomial has an empty term map.
Term ordering everywhere is graded lexicographic on the declared variable
order, which makes printing and equality canonical.

PolyQ's constructor is the one place where sums of monomials are collected:
repeated exponent tuples are added and zero sums dropped there, once, and
sums, products and changes of variable tuple only stream (exponents,
coefficient) pairs into it.  It also puts each coefficient in canonical
form, so the arithmetic of integral coefficients stays in `int`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


def signed_sum(parts: list) -> str:
    """Print (sign, body) pairs, sign "+" or "-", as "-a + b - c"; no parts print "0"."""
    if not parts:
        return "0"
    (sign, body), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def canonical(x):
    """An integral Fraction as its int; any other value, an int, a
    non-integral Fraction or an element of another field such as a RatFunT,
    as it is.

    Every rational of the exact core is kept in this form, so integral
    arithmetic stays in int.  Divide two such values with `ratio`: int / int
    is a float.
    """
    return x.numerator if x.__class__ is Fraction and x.denominator == 1 else x


def ratio(a, b):
    """a / b, canonical, for canonical a and rational b != 0; no Fraction for b = +-1."""
    return a if b == 1 else -a if b == -1 else canonical(Fraction(a) / b)


def as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected rational coefficient, got {type(c).__name__}")


class PolyQ:
    """Polynomial with rational coefficients in named variables."""

    __slots__ = ("vars", "terms")

    def __init__(
        self,
        vars: tuple[str, ...] = (),
        terms: dict[tuple[int, ...], Scalar] | Iterable[tuple[tuple[int, ...], Scalar]] = (),
    ):
        """terms: a dict or an iterable of (exponents, coefficient) pairs.
        Repeated exponents are summed and zero sums dropped, and the
        exponents keep the order in which they first appear."""
        self.vars = tuple(vars)
        nv = len(self.vars)
        clean: dict[tuple[int, ...], Scalar] = {}
        if isinstance(terms, dict):
            terms = terms.items()
        for exps, c in terms:
            exps = tuple(exps)
            if len(exps) != nv:
                raise ValueError("exponent tuple length does not match variable count")
            acc = clean.get(exps)
            if acc is not None:
                c = acc + c
            if c.__class__ is not int:
                c = canonical(as_fraction(c))
            if c == 0:
                clean.pop(exps, None)
            else:
                clean[exps] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c: Scalar, vars: tuple[str, ...] = ()) -> "PolyQ":
        return PolyQ(vars, {(0,) * len(vars): c})

    @staticmethod
    def var(name: str) -> "PolyQ":
        return PolyQ((name,), {(1,): 1})

    @staticmethod
    def zero(vars: tuple[str, ...] = ()) -> "PolyQ":
        return PolyQ(vars)

    @staticmethod
    def lift(x: "PolyQ | Scalar") -> "PolyQ":
        if isinstance(x, PolyQ):
            return x
        return PolyQ.const(x)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Scalar:
        """Value of a constant polynomial (raises if variables actually occur)."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def used_vars(self) -> tuple[str, ...]:
        used = [False] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    # -- variable alignment -----------------------------------------------

    def on_vars(self, vars: tuple[str, ...]) -> "PolyQ":
        """Re-express on the given variable tuple (must contain all used vars)."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vars)}
        nv = len(vars)

        def moved(exps):
            new = [0] * nv
            for v, e in zip(self.vars, exps):
                if e == 0:
                    continue
                if v not in pos:
                    raise ValueError(f"variable {v} not present in target context")
                new[pos[v]] = e
            return tuple(new)

        return PolyQ(vars, ((moved(exps), c) for exps, c in self.terms.items()))

    def _aligned(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if self.vars == other.vars:
            return self, other
        merged = list(self.vars)
        for v in other.vars:
            if v not in merged:
                merged.append(v)
        ctx = tuple(merged)
        return self.on_vars(ctx), other.on_vars(ctx)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other, self.vars)
        a, b = self._aligned(other)
        return PolyQ(a.vars, chain(a.terms.items(), b.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "PolyQ":
        return PolyQ(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other) -> "PolyQ":
        return (-self) + other

    def __mul__(self, other) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            return PolyQ(self.vars, {e: cc * other for e, cc in self.terms.items()})
        a, b = self._aligned(other)
        right = b.terms.items()
        return PolyQ(
            a.vars, ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in a.terms.items() for e2, c2 in right)
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PolyQ":
        # exact division by a rational constant only
        if isinstance(other, PolyQ):
            other = other.constant_value()
        c = as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return PolyQ(self.vars, {e: cc / c for e, cc in self.terms.items()})

    def __pow__(self, n: int) -> "PolyQ":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        out = PolyQ.const(1, self.vars)
        for _ in range(n):
            out = out * self
        return out

    # -- substitution -------------------------------------------------------

    def subs(self, env: Mapping[str, "PolyQ | Scalar"]) -> "PolyQ":
        """Substitute values (polynomials or rationals) for variables by name."""
        return PolyQ.lift(self.eval({v: env.get(v, PolyQ.var(v)) for v in self.vars}))

    def eval(self, env: Mapping):
        """Value at an assignment of the used variables, in the values' own
        domain: Fraction, PolyQ or RatFunT."""
        total = Fraction(0)
        for exps, c in sorted(self.terms.items()):
            term = c
            for v, e in zip(self.vars, exps):
                if e:
                    term = term * env[v] ** e
            total = total + term
        return total

    # -- ordering and display ------------------------------------------------

    def _sorted_terms(self):
        # graded lex, highest first
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other, self.vars)
        if not isinstance(other, PolyQ):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        used = self.used_vars()
        if not used:
            # a constant equals its Fraction, so it must hash like one
            return hash(self.constant_value())
        p = self.on_vars(used) if used != self.vars else self
        return hash((used, frozenset(p.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        parts = []
        for exps, c in self._sorted_terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        return signed_sum(parts)

    def __repr__(self) -> str:
        return f"PolyQ({self})"
