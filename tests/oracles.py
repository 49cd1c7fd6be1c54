"""Independent oracles of the tests, which no code of the package calls:
a fraction-free integer rank, and substitution of expressions for variables."""

from fractions import Fraction
from math import gcd

from nassoc.terms import Expr


def bareiss_rank(matrix) -> int:
    """Rank over Q by fraction-free elimination on a denominator-cleared copy."""
    rows = []
    for row in matrix:
        fr = [Fraction(x) for x in row]
        mult = 1
        for x in fr:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        rows.append([int(x * mult) for x in fr])
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    prev = 1
    r = 0
    for j in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][j] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][j]
        for i in range(r + 1, nrows):
            ri, rr = rows[i], rows[r]
            ci = ri[j]
            for k in range(j, ncols):
                ri[k] = (p * ri[k] - ci * rr[k]) // prev
        prev = p
        r += 1
    return r


def subs_vars(expr: Expr, mapping: dict[int, Expr]) -> Expr:
    """expr with expressions substituted for variables, expanded multilinearly."""
    return Expr(
        (sw, sc * c)
        for w, c in expr.terms.items()
        for sw, sc in _subs_word(w, mapping).terms.items()
    )


def _subs_word(word, mapping: dict[int, Expr]) -> Expr:
    if isinstance(word, int):
        return mapping.get(word, Expr.var(word))
    return _subs_word(word[0], mapping) * _subs_word(word[1], mapping)
