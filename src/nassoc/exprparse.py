"""Parser for rational coefficient expressions.

One small grammar serves every file format in the package: polynomial
coefficient strings in algebra files ("-1", "1/2", "alpha^2-1"), rational
function entries of certificates ("-1/t", "(t^3-alpha*t)^3"), and closed-set
equations in structure-constant variables ("c[1][2][4]^2*c[2][1][3]^2").

evaluate() parses by recursive descent and computes the value as it goes,
without an intermediate tree, against an environment mapping variable names
to values in any field-like domain (Fraction, PolyQ, RatFunT).
Structure-constant variables like c[1][2][4] lex as single names.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

_OPS = set("+-*/^(),=")


def tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            # structure-constant variables: name directly followed by [k] groups
            while j < n and text[j] == "[":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1 or k >= n or text[k] != "]":
                    raise ParseError("malformed index in variable name", j)
                name += text[j : k + 1]
                j = k + 1
            tokens.append(("name", name, i))
            i = j
            continue
        if ch == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(("op", "^", i))
            i += 2
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    """Recursive descent that evaluates as it parses: env maps names to
    domain values, const lifts a Fraction into the domain."""

    def __init__(self, tokens, text, env, const):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.env = env
        self.const = const

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("end", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)

    def parse_expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def parse_term(self):
        value = self.parse_power()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_power()
                if val == "*":
                    value = value * rhs
                elif rhs == 0:
                    raise ParseError("division by zero")
                else:
                    value = value / rhs
            else:
                return value

    def parse_power(self):
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k, v, at = self.next()
            neg = False
            if k == "op" and v == "-":
                neg = True
                k, v, at = self.next()
            if k != "int":
                raise ParseError("exponent must be an integer", at)
            exp = -v if neg else v
            if exp < 0 and base == 0:
                raise ParseError("negative power of zero")
            return base ** exp
        return base

    def parse_atom(self):
        kind, val, at = self.next()
        if kind == "int":
            return self.const(Fraction(val))
        if kind == "name":
            try:
                return self.env[val]
            except KeyError:
                raise ParseError(f"unknown variable {val!r}") from None
        if kind == "op" and val == "-":
            return -self.parse_atom()
        if kind == "op" and val == "(":
            value = self.parse_expr()
            self.expect_op(")")
            return value
        raise ParseError("expected a number, variable, or parenthesized expression", at)


def rational(text, source: str) -> Fraction:
    """Fraction(text) for a value read from source, a flag or a file field.

    A malformed literal or a zero denominator is a ParseError that names
    source and the text it got.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"{source}: zero denominator in {text!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{source} expects a rational number, got {text!r}") from None


def evaluate(text: str | int, env, const):
    """The value of text, with env mapping names to domain values and const
    lifting a Fraction; a syntax or evaluation error is a ParseError.

    This reads every coefficient field of the file formats: an int, as JSON
    gives an integer, is taken as its value, and anything but a str or an
    int (a float or a bool say) is a ParseError.
    """
    if text.__class__ is int:
        return const(Fraction(text))
    if not isinstance(text, str):
        raise ParseError(f"expected a coefficient string or an integer, got {type(text).__name__} {text!r}")
    parser = _Parser(tokenize(text), text, env, const)
    value = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ParseError("trailing input after expression", at)
    return value
