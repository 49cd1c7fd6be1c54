"""Univariate rational functions of t over the rationals.

Stored as a reduced numerator/denominator pair of dense coefficient lists
(little-endian).  Reduction divides by the polynomial gcd and scales so the
denominator is monic, which makes evaluation at t = 0 well defined exactly
when the reduced denominator has a nonzero constant term.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PoleAtZero
from .poly import PolyQ, signed_sum

UPoly = list  # list[Fraction], coefficient of t^i at index i


def _trim(p: UPoly) -> UPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(a: UPoly, b: UPoly) -> UPoly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _neg(a: UPoly) -> UPoly:
    return [-c for c in a]


def _mul(a: UPoly, b: UPoly) -> UPoly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _divmod(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] * inv
        d = len(a) - len(b)
        q[d] = c
        for i, cb in enumerate(b):
            a[d + i] -= c * cb
        _trim(a)
    return _trim(q), a


def _gcd(a: UPoly, b: UPoly) -> UPoly:
    a, b = list(a), list(b)
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _upoly_str(p: UPoly) -> str:
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            power = "t" if i == 1 else f"t^{i}"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        parts.append(("-" if c < 0 else "+", body))
    return signed_sum(parts)


class RatFunT:
    """Rational function in the single variable t, always stored reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = self._coerce_poly(num)
        den = [Fraction(1)] if den is None else self._coerce_poly(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            g = _gcd(num, den)
            if len(g) > 1:
                num, _ = _divmod(num, g)
                den, _ = _divmod(den, g)
        else:
            den = [Fraction(1)]
        lead = den[-1]
        if lead != 1:
            num = [c / lead for c in num]
            den = [c / lead for c in den]
        self.num = num
        self.den = den

    @staticmethod
    def _coerce_poly(p) -> UPoly:
        if isinstance(p, (int, Fraction)):
            c = Fraction(p)
            return [c] if c != 0 else []
        if isinstance(p, PolyQ):
            if p.is_zero():
                return []
            if p.used_vars() not in ((), ("t",)):
                raise ValueError("rational function must be univariate in t")
            q = p.on_vars(("t",))
            out = [Fraction(0)] * (q.total_degree() + 1)
            for (e,), c in q.terms.items():
                out[e] = Fraction(c)  # PolyQ keeps integral coefficients as int
            return _trim(out)
        if isinstance(p, (list, tuple)):
            # the lists of RatFunT arithmetic hold Fractions already
            return _trim([c if c.__class__ is Fraction else Fraction(c) for c in p])
        raise TypeError(f"cannot build polynomial in t from {type(p).__name__}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunT":
        return RatFunT([Fraction(c)])

    @staticmethod
    def t() -> "RatFunT":
        return RatFunT([Fraction(0), Fraction(1)])

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num[0] / self.den[0] if self.num else Fraction(0)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _lift(x) -> "RatFunT":
        if isinstance(x, RatFunT):
            return x
        return RatFunT(x)

    def __add__(self, other):
        o = self._lift(other)
        return RatFunT(_add(_mul(self.num, o.den), _mul(o.num, self.den)), _mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunT(_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        return RatFunT(_mul(self.num, o.num), _mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunT(_mul(self.num, o.den), _mul(self.den, o.num))

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunT(self.den, self.num) ** (-n)
        out = RatFunT.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunT(other)
        if not isinstance(other, RatFunT):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_constant():
            # a constant equals its Fraction, so it must hash like one
            return hash(self.constant_value())
        return hash((tuple(self.num), tuple(self.den)))

    def __bool__(self):
        return bool(self.num)

    # -- evaluation -----------------------------------------------------------

    def eval_at(self, value) -> Fraction:
        v = Fraction(value)
        den = sum(c * v**i for i, c in enumerate(self.den))
        if den == 0:
            raise ZeroDivisionError(f"pole of {self} at t = {v}")
        num = sum(c * v**i for i, c in enumerate(self.num))
        return num / den

    def value_at_zero(self) -> Fraction:
        if not self.den or self.den[0] == 0:
            raise PoleAtZero(f"{self} has a pole at t = 0")
        return (self.num[0] if self.num else Fraction(0)) / self.den[0]

    def __str__(self):
        if self.den == [Fraction(1)]:
            return _upoly_str(self.num)
        num = _upoly_str(self.num)
        den = _upoly_str(self.den)
        if len(self.num) > 1 or (self.num and self.num[0] < 0):
            num = f"({num})"
        if len(self.den) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunT({self})"
