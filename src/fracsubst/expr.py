"""Arithmetic expressions of one real variable.

Problems are ingested from text config, so coefficient and right-hand-side
functions are written as strings like ``"x*exp(-x)"`` and parsed into small
immutable syntax trees.  Grammar (loosest to tightest binding):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'x' | 't' | FUNC '(' expr ')' | '(' expr ')'

``x`` and ``t`` are two spellings of the same variable.  Available
functions: exp, ln, sin, cos, sqrt, abs, gamma.  There is no implicit
multiplication: ``2x`` is a syntax error.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ParseError",
    "UnknownIdentifierError",
    "DomainError",
    "parse",
    "evaluate",
]

FUNCTIONS = {
    "exp": math.exp,
    "ln": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": abs,
    "gamma": math.gamma,
}

VARIABLE_NAMES = ("x", "t")

BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": math.pow}


class ParseError(ValueError):
    """Syntax error; ``offset`` is the byte position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier is neither the variable nor a known function."""


class DomainError(ArithmeticError):
    """Evaluation left the domain of a sub-expression (ln(-1), 1/0, ...) or
    its result is not finite (1e200*1e200)."""


# precedence levels used for printing with minimal parentheses
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


class Expression:
    """Base class for expression nodes.

    Nodes are frozen dataclasses: expressions are immutable after
    construction and evaluation is side-effect free, so they may be shared
    and evaluated concurrently.
    """

    def eval(self, v: float) -> float:
        raise NotImplementedError

    def __call__(self, v: float) -> float:
        return self.eval(v)

    def _precedence(self) -> int:
        return _PREC_ATOM


@dataclass(frozen=True)
class Num(Expression):
    value: float

    def eval(self, v: float) -> float:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expression):
    def eval(self, v: float) -> float:
        return v

    def __str__(self) -> str:
        return "x"


@dataclass(frozen=True)
class Neg(Expression):
    operand: Expression

    def eval(self, v: float) -> float:
        return -self.operand.eval(v)

    def _precedence(self) -> int:
        return _PREC_NEG

    def __str__(self) -> str:
        return "-" + _wrap(self.operand, _PREC_NEG)


@dataclass(frozen=True)
class BinOp(Expression):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression

    def eval(self, v: float) -> float:
        a = self.left.eval(v)
        b = self.right.eval(v)
        try:
            result = BINARY_OPS[self.op](a, b)
        except ZeroDivisionError as exc:
            raise DomainError(f"division by zero in '{self}'") from exc
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"'{self}' undefined at {a!r}, {b!r}") from exc
        if not math.isfinite(result):
            raise DomainError(f"'{self}' is not finite at {a!r}, {b!r}")
        return result

    def _precedence(self) -> int:
        return _PREC_POW if self.op == "^" else (_PREC_MUL if self.op in "*/" else _PREC_ADD)

    def __str__(self) -> str:
        p = self._precedence()
        if self.op == "^":
            # right-associative; exponent may itself be a power or negation
            left = _wrap(self.left, p + 1)
            right = _wrap(self.right, _PREC_NEG)
        else:
            left = _wrap(self.left, p)
            right = _wrap(self.right, p + 1)
        return f"{left}{self.op}{right}"


@dataclass(frozen=True)
class Call(Expression):
    func: str
    arg: Expression

    def eval(self, v: float) -> float:
        a = self.arg.eval(v)
        try:
            return FUNCTIONS[self.func](a)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{self.func}({a!r}) undefined") from exc

    def __str__(self) -> str:
        return f"{self.func}({self.arg})"


def _wrap(e: Expression, min_prec: int) -> str:
    s = str(e)
    return f"({s})" if e._precedence() < min_prec else s


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", offset)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                e = BinOp(value, e, self.term())
            else:
                return e

    def term(self) -> Expression:
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                e = BinOp(value, e, self.unary())
            else:
                return e

    def unary(self) -> Expression:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        e = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return BinOp("^", e, self.unary())
        return e

    def atom(self) -> Expression:
        kind, value, offset = self.advance()
        if kind == "num":
            if not math.isfinite(float(value)):
                raise ParseError(f"literal {value} is not a finite float", offset)
            return Num(float(value))
        if kind == "ident":
            if value in VARIABLE_NAMES:
                return Var()
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            raise UnknownIdentifierError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"expected a value, got {value!r}" if value else "unexpected end of input", offset)


def parse(text: str) -> Expression:
    """Parse ``text`` into an immutable expression tree.

    Raises :class:`ParseError` (with byte offset) on malformed input and
    :class:`UnknownIdentifierError` for names outside the grammar.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


def evaluate(e: Expression, v: float) -> float:
    """Value of ``e`` at variable = ``v``.  Raises :class:`DomainError`."""
    return e.eval(v)
