"""Exact arithmetic foundation: rationals, polynomials, rational functions
of t, truncated series, and exact linear algebra.

Rationals are plain fractions.Fraction values: arbitrary precision,
gcd-reduced with positive denominator, never rounding.
"""

from .linalg import SparseRREF, express, inverse, nullspace
from .poly import PolyQ
from .ratfun import RatFunT
from .series import SeriesQ, compose_series

__all__ = [
    "PolyQ",
    "RatFunT",
    "SeriesQ",
    "compose_series",
    "SparseRREF",
    "nullspace",
    "express",
    "inverse",
]
