"""Exact arithmetic foundation: rationals, polynomials, rational functions
of t, truncated series, and exact linear algebra.

A rational is kept in one form, `poly.canonical`: an int when integral,
else a fractions.Fraction (arbitrary precision, gcd-reduced with positive
denominator), never rounded.  `PolyQ` is the one polynomial arithmetic: a
`RatFunT` is a reduced pair of PolyQs in t, and `compose_series` multiplies
series as truncated PolyQs.
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
