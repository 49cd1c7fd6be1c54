"""Univariate rational functions of t over the rationals.

Stored as a reduced numerator/denominator pair of `PolyQ` polynomials in
the variables ("t",), so PolyQ does all the coefficient arithmetic and
printing.  Reduction divides by the polynomial gcd and scales so the
denominator is monic, which makes evaluation at t = 0 well defined exactly
when the reduced denominator has a nonzero constant term.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PoleAtZero
from .poly import PolyQ, as_fraction, ratio

T = ("t",)
ONE = PolyQ.const(1, T)


def _poly(p) -> PolyQ:
    """p, a PolyQ in t, a coefficient list c0, c1, ... or a rational, as a
    polynomial on ("t",); a float raises TypeError."""
    if isinstance(p, PolyQ):
        if p.used_vars() not in ((), T):
            raise ValueError("rational function must be univariate in t")
        return p.on_vars(T)
    if isinstance(p, (list, tuple)):
        return PolyQ(T, (((i,), c) for i, c in enumerate(p)))
    return PolyQ.const(p, T)


def _lead(p: PolyQ) -> tuple[int, Fraction | int]:
    """Degree and leading coefficient of a nonzero polynomial in t."""
    top = max(p.terms)
    return top[0], p.terms[top]


def _divmod(a: PolyQ, b: PolyQ) -> tuple[PolyQ, PolyQ]:
    """Quotient and remainder of a by a nonzero b."""
    db, cb = _lead(b)
    q = PolyQ.zero(T)
    while a:
        da, ca = _lead(a)
        if da < db:
            break
        m = PolyQ(T, {(da - db,): ratio(ca, cb)})
        q, a = q + m, a - m * b
    return q, a


def _gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """A gcd of a and b, up to a rational factor."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


class RatFunT:
    """Rational function in the single variable t, always stored reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        """num and den: PolyQs in t, coefficient lists c0, c1, ... or rationals."""
        num = _poly(num)
        den = ONE if den is None else _poly(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = ONE
        elif num.total_degree() and den.total_degree():
            g = _gcd(num, den)
            if g.total_degree():
                num, den = _divmod(num, g)[0], _divmod(den, g)[0]
        lead = _lead(den)[1]
        if lead != 1:
            num, den = num / lead, den / lead
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunT":
        """The constant c, a rational; a float raises TypeError."""
        return RatFunT(c)

    @staticmethod
    def t() -> "RatFunT":
        return RatFunT([0, 1])

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return as_fraction(self.num.constant_value())

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _lift(x) -> "RatFunT":
        if isinstance(x, RatFunT):
            return x
        return RatFunT(x)

    def __add__(self, other):
        o = self._lift(other)
        return RatFunT(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunT(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        return RatFunT(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunT(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunT(self.den, self.num) ** (-n)
        return RatFunT(self.num**n, self.den**n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunT(other)
        if not isinstance(other, RatFunT):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # over the denominator 1 a constant numerator hashes like its Fraction, as it must
        return hash(self.num) if self.den.is_constant() else hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- evaluation -----------------------------------------------------------

    def eval_at(self, value) -> Fraction:
        env = {"t": as_fraction(value)}
        den = self.den.eval(env)
        if den == 0:
            raise ZeroDivisionError(f"pole of {self} at t = {env['t']}")
        return self.num.eval(env) / den

    def value_at_zero(self) -> Fraction:
        if not self.den.terms.get((0,)):
            raise PoleAtZero(f"{self} has a pole at t = 0")
        return self.eval_at(0)

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        num, den = str(self.num), str(self.den)
        if self.num.total_degree() or _lead(self.num)[1] < 0:
            num = f"({num})"
        if self.den.total_degree():
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunT({self})"
