"""Recursive-descent parser for infix boolean expressions.

Grammar (whitespace insignificant)::

    expr      := binary(0)
    binary(i) := binary(i+1) (OP_i binary(i+1))*    OP_i: row i of `_BINARY`
    binary(5) := unary
    unary     := "!" unary | atom
    atom      := "true" | "false" | IDENT | "(" expr ")"

The binary precedence lives in `_BINARY`, loosest first: ``<->``, ``->``
(right-associative), ``|``, ``^``, ``&``; ``!`` binds tightest.  Each ``!``
and ``(`` nests the unary below it one level deeper; at most `MAX_NESTING`
levels are accepted, so no text exhausts the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from collections.abc import Container
from functools import reduce

from .boolfunc import BoolFunc, VariableSet

__all__ = ["parse_expr", "ExprSyntaxError", "UnknownIdentifierError"]


class ExprSyntaxError(ValueError):
    """Malformed expression text; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ValueError):
    """An identifier in the expression is not a variable of the scope."""

    def __init__(self, identifier: str, position: int):
        super().__init__(f"unknown identifier {identifier!r} (at position {position})")
        self.identifier = identifier
        self.position = position


MAX_NESTING = 64

_TOKEN_RE = re.compile(r"(<->|->|[()!&^|])|([A-Za-z_][A-Za-z0-9_]*)")
_WS_RE = re.compile(r"\s*")
# Binary operators, loosest first: token, operation, right-associative.
_BINARY = (
    ("<->", BoolFunc.iff, False),
    ("->", BoolFunc.implies, True),
    ("|", BoolFunc.__or__, False),
    ("^", BoolFunc.__xor__, False),
    ("&", BoolFunc.__and__, False),
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        i = _WS_RE.match(text, i).end()
        if i >= len(text):
            break
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        if m.group(1) is not None:
            tokens.append(("op", m.group(1), i))
        else:
            tokens.append(("ident", m.group(2), i))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: Container[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        kind, val, _ = self.peek()
        if kind == "op" and val == value:
            self.pos += 1
            return True
        return False

    def expr(self, level: int = 0) -> BoolFunc:
        if level == len(_BINARY):
            return self.unary()
        op, combine, right = _BINARY[level]
        operands = [self.expr(level + 1)]
        while self.accept(op):
            operands.append(self.expr(level + 1))
        if right:
            return reduce(lambda f, g: combine(g, f), reversed(operands))
        return reduce(combine, operands)

    def unary(self) -> BoolFunc:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", self.peek()[2])
        f = ~self.unary() if self.accept("!") else self.atom()
        self.depth -= 1
        return f

    def atom(self) -> BoolFunc:
        kind, val, pos = self.take()
        if kind == "ident":
            if val == "true":
                return BoolFunc.const(VariableSet(), True)
            if val == "false":
                return BoolFunc.const(VariableSet(), False)
            if val not in self.names:
                raise UnknownIdentifierError(val, pos)
            return BoolFunc.var(val)
        if kind == "op" and val == "(":
            f = self.expr()
            k, v, p = self.take()
            if not (k == "op" and v == ")"):
                raise ExprSyntaxError("expected ')'", p)
            return f
        raise ExprSyntaxError(f"expected an operand, found {val!r}" if val else "unexpected end of expression", pos)


def _parsed(text: str, names: Container[str]) -> BoolFunc:
    """`text` over the variables it mentions, each of which is in `names`."""
    p = _Parser(text, names)
    f = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {val!r}", pos)
    return f


def parse_expr(text: str, scope: VariableSet) -> BoolFunc:
    """Parse `text` into a BoolFunc over exactly the given scope.

    Every identifier must belong to `scope`; the result is cylindrically
    extended so its scope equals `scope` even when some variables are
    unmentioned.
    """
    return _parsed(text, frozenset(scope)).extend(scope)
