"""Coefficient expressions evaluated at vertex coordinates.

Grammar (total, side-effect-free):

    expr   := term  { ("+" | "-") term }
    term   := unary { ("*" | "/") unary }
    unary  := ("+" | "-") unary | power
    power  := atom [ "^" unary ]
    atom   := NUMBER | "x" | "y" | "z"
            | ("sin" | "cos" | "exp" | "abs") "(" expr ")"
            | "(" expr ")"

Precedence, loosest to tightest: + - (binary), * /, unary + -, ^.
"^" is right-associative and binds tighter than unary minus, so
-x^2 == -(x^2) and 2^-3 is accepted.  NUMBER is an ASCII decimal literal
with optional fraction and exponent (1, 0.5, 1e-9, 2.5E+3).  Nesting
deeper than the interpreter's recursion limit allows is an error.

Evaluation is vectorized over all vertices at once; any non-finite
result (division by zero, overflow, fractional power of a negative)
is reported as an evaluation error.
"""

from __future__ import annotations

import functools
import operator
import re

import numpy as np

from .geometry import Field

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_VARIABLES = ("x", "y", "z")


class ExpressionError(ValueError):
    """Parse or evaluation failure, with the source position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


# a number is a run of digits and dots with an optional exponent, read by
# float(); anything that is neither space nor a token is an error
_TOKEN = re.compile(
    r"(?P<num>[0-9.]+(?:[eE][+-]?[0-9]+)?)|(?P<name>[A-Za-z]+)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S)"
)


def _tokenize(text):
    tokens = []  # (kind, value, position)
    for match in _TOKEN.finditer(text):
        kind, lexeme, i = match.lastgroup, match.group(), match.start()
        if kind == "num":
            try:
                tokens.append(("num", float(lexeme), i))
            except ValueError:
                raise ExpressionError(f"bad number literal '{lexeme}'", i) from None
        elif kind == "op":
            tokens.append((lexeme, lexeme, i))
        elif kind == "name" and lexeme in _VARIABLES:
            tokens.append(("var", lexeme, i))
        elif kind == "name" and lexeme in _FUNCTIONS:
            tokens.append(("func", lexeme, i))
        elif kind == "name":
            raise ExpressionError(f"unknown name '{lexeme}'", i)
        else:
            raise ExpressionError(f"unexpected character '{lexeme}'", i)
    tokens.append(("end", None, len(text)))
    return tokens


_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv
}


def _evaluate(tokens, env):
    """Recursive descent over tokens, evaluating directly on the coordinate
    arrays in env; returns (value of the leading expr, the token after it).

    expr and term are the one left-associative loop, binary, over their
    own operators; unary reads the unary and power rules, atom the rest.
    """
    pos = 0

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            found = "end of input" if tok[0] == "end" else f"'{tok[1]}'"
            raise ExpressionError(f"expected '{kind}', found {found}", tok[2])
        pos += 1
        return tok

    def binary(ops, operand):
        value = operand()
        while tokens[pos][0] in ops:
            op = take()[0]
            value = _BINARY[op](value, operand())
        return value

    def unary():  # unary and power
        if tokens[pos][0] in ("+", "-"):
            op = take()[0]
            value = unary()
            return -value if op == "-" else value
        base = atom()
        if tokens[pos][0] == "^":
            take()
            return base ** unary()  # right-associative
        return base

    def atom():
        kind, value, position = take()
        if kind == "num":
            # np.float64 so that 1/0 yields inf (flagged later), not a raise
            return np.float64(value)
        if kind == "var":
            return env[value]
        if kind in ("func", "("):
            if kind == "func":
                take("(")
            inner = expr()
            take(")")
            return _FUNCTIONS[value](inner) if kind == "func" else inner
        if kind == "end":
            raise ExpressionError("unexpected end of input", position)
        raise ExpressionError(f"unexpected token '{value}'", position)

    # partials, not closures: they add no Python frame, so each nesting
    # level costs four frames of the recursion limit
    term = functools.partial(binary, ("*", "/"), unary)
    expr = functools.partial(binary, ("+", "-"), term)
    return expr(), take()


def evaluate_expression(text, coordinates):
    """Evaluate an expression at each coordinate row; returns an array."""
    coords = np.asarray(coordinates, dtype=float)
    env = {name: coords[:, k] for k, name in enumerate(_VARIABLES)}
    tokens = _tokenize(text)
    try:
        with np.errstate(all="ignore"):
            value, end = _evaluate(tokens, env)
    except RecursionError:
        raise ExpressionError("expression nests too deeply", 0) from None
    if end[0] != "end":
        raise ExpressionError(f"trailing input '{end[1]}'", end[2])
    value = np.broadcast_to(np.asarray(value, dtype=float), (coords.shape[0],))
    if not np.all(np.isfinite(value)):
        bad = int(np.flatnonzero(~np.isfinite(value))[0])
        raise ExpressionError(
            f"expression '{text}' is non-finite at vertex {bad}", 0
        )
    return np.array(value)


def parse_coefficient(expr, domain):
    """Evaluate a coefficient expression at every vertex of a domain."""
    return Field(domain, evaluate_expression(expr, domain.coordinates))
