"""Parser for rational coefficient expressions.

One small grammar serves every file format in the package: polynomial
coefficient strings in algebra files ("-1", "1/2", "alpha^2-1"), rational
function entries of certificates ("-1/t", "(t^3-alpha*t)^3"), and closed-set
equations in structure-constant variables ("c[1][2][4]^2*c[2][1][3]^2").

parse() produces an AST which eval_ast() evaluates against an environment
mapping variable names to values in any field-like domain (Fraction, PolyQ,
RatFunT).  Structure-constant variables like c[1][2][4] lex as single names.
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
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text

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
        node = self.parse_term()
        if negate:
            node = ("neg", node)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                node = ("add", node, rhs) if val == "+" else ("sub", node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_power()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_power()
                node = ("mul", node, rhs) if val == "*" else ("div", node, rhs)
            else:
                return node

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
            return ("pow", base, -v if neg else v)
        return base

    def parse_atom(self):
        kind, val, at = self.next()
        if kind == "int":
            return ("const", Fraction(val))
        if kind == "name":
            return ("var", val)
        if kind == "op" and val == "-":
            return ("neg", self.parse_atom())
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
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


def parse(text: str):
    tokens = tokenize(text)
    parser = _Parser(tokens, text)
    node = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ParseError("trailing input after expression", at)
    return node


def eval_ast(node, env, const):
    """Evaluate an AST.  env maps names to domain values; const lifts a Fraction."""
    tag = node[0]
    if tag == "const":
        return const(node[1])
    if tag == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise ParseError(f"unknown variable {node[1]!r}") from None
    if tag == "neg":
        return -eval_ast(node[1], env, const)
    if tag == "add":
        return eval_ast(node[1], env, const) + eval_ast(node[2], env, const)
    if tag == "sub":
        return eval_ast(node[1], env, const) - eval_ast(node[2], env, const)
    if tag == "mul":
        return eval_ast(node[1], env, const) * eval_ast(node[2], env, const)
    if tag == "div":
        den = eval_ast(node[2], env, const)
        if den == 0:
            raise ParseError("division by zero")
        return eval_ast(node[1], env, const) / den
    if tag == "pow":
        base = eval_ast(node[1], env, const)
        if node[2] < 0 and base == 0:
            raise ParseError("negative power of zero")
        return base ** node[2]
    raise ParseError(f"unknown AST node {tag}")


def evaluate(text: str, env, const):
    return eval_ast(parse(text), env, const)
