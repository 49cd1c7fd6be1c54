"""Truncated power series with zero constant term, over the rationals.

A series keeps its coefficients c_1..c_N as a tuple of Fractions;
composition multiplies them as PolyQ polynomials in t, truncated at t^N.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import TruncationMismatch
from .poly import PolyQ, as_fraction, signed_sum

T = ("t",)


class SeriesQ:
    """Coefficients c_1..c_N of a series c_1 t + ... + c_N t^N + O(t^{N+1})."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        """Raises TypeError on a coefficient that is not rational, a float say."""
        coeffs = tuple(map(as_fraction, coeffs))
        if len(coeffs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def identity(order: int) -> "SeriesQ":
        """The series t."""
        return SeriesQ(order, (Fraction(1),) + (Fraction(0),) * (order - 1))

    def _check_order(self, other: "SeriesQ"):
        if self.order != other.order:
            raise TruncationMismatch(f"orders {self.order} and {other.order} differ")

    def __add__(self, other: "SeriesQ") -> "SeriesQ":
        self._check_order(other)
        return SeriesQ(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "SeriesQ") -> "SeriesQ":
        self._check_order(other)
        return SeriesQ(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "SeriesQ":
        return SeriesQ(self.order, tuple(-a for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, SeriesQ):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            power = "t" if i == 1 else f"t^{i}"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            parts.append(("-" if c < 0 else "+", body))
        return signed_sum(parts)

    def __repr__(self):
        return f"SeriesQ({self.order}, {self})"


def compose_series(f: SeriesQ, g: SeriesQ) -> SeriesQ:
    """Coefficients of f(g(t)) modulo t^{N+1}.

    Both series must share the truncation order N; having no constant term is
    built into the representation, so the composition is well defined.  The
    sum of c_k g^k runs on PolyQ, each power truncated past degree N.
    """
    if f.order != g.order:
        raise TruncationMismatch(f"orders {f.order} and {g.order} differ")
    n = f.order
    gp = PolyQ(T, (((i,), c) for i, c in enumerate(g.coeffs, start=1)))
    power, acc = PolyQ.const(1, T), PolyQ.zero(T)
    for ck in f.coeffs:
        power = PolyQ(T, {e: c for e, c in (power * gp).terms.items() if e[0] <= n})
        acc = acc + ck * power
    return SeriesQ(n, [acc.terms.get((i,), 0) for i in range(1, n + 1)])
