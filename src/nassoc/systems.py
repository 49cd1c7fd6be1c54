"""Built-in identity systems.

Names follow the convention A_(sigma) for the single identity
(x1 x2) x3 = x_{sigma(1)} (x_{sigma(2)} x_{sigma(3)}); "sas" (= "a123") is
shift associativity (xy)z = y(zx), "cas" the cyclic associative pair, and
"cas-dual" the cyclic associator-sum identity (a,b,c)+(b,c,a)+(c,a,b) = 0.
"""

from __future__ import annotations

from .terms import Expr, Identity, IdentitySystem, parse_system

_DEFINITIONS: dict[str, str] = {
    "sas": "((x1 x2) x3) = (x2 (x3 x1))",
    "as": "((x1 x2) x3) = (x1 (x2 x3))",
    "cas": "((x1 x2) x3) = (x1 (x2 x3))\n((x1 x2) x3) = (x2 (x3 x1))",
    "com-as": "(x1 x2) = (x2 x1)\n((x1 x2) x3) = (x1 (x2 x3))",
    "a12": "((x1 x2) x3) = (x2 (x1 x3))",
    "a13": "((x1 x2) x3) = (x3 (x2 x1))",
    "a23": "((x1 x2) x3) = (x1 (x3 x2))",
    "a123": "((x1 x2) x3) = (x2 (x3 x1))",
    "a132": "((x1 x2) x3) = (x3 (x1 x2))",
    "cas-dual": "(x1,x2,x3) + (x2,x3,x1) + (x3,x1,x2) = 0",
}

BUILTIN_SYSTEM_NAMES = tuple(_DEFINITIONS)

_cache: dict[str, IdentitySystem] = {}


def builtin_system(name: str) -> IdentitySystem:
    if name not in _DEFINITIONS:
        raise KeyError(f"unknown identity system {name!r}; known: {', '.join(_DEFINITIONS)}")
    if name not in _cache:
        _cache[name] = parse_system(name, _DEFINITIONS[name])
    return _cache[name]


def anti_system(name: str) -> IdentitySystem:
    """Sign-flipped variant (ab)c = -x(yz) of a builtin system of one identity w1 = w2,
    its right-hand word negated.  Raises ValueError naming any other system."""
    system = builtin_system(name) if name in _DEFINITIONS else None
    if system is None or len(system.identities) != 1 or len(system.identities[0].expr.terms) != 2:
        raise ValueError(f"no sign-flipped variant of {name!r}: it is not a builtin system of one identity w1 = w2")
    (lhs, a), (rhs, b) = system.identities[0].expr.terms.items()
    return IdentitySystem(f"{name}-anti", [Identity(Expr({lhs: a, rhs: -b}))])
