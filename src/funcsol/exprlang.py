"""Tiny expression language for coefficient functions.

Grammar (whitespace insignificant):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?          # '^' right associative
    unary  := '-'? atom
    atom   := number | name | name '(' expr ')' | '(' expr ')'

Numbers accept decimal and exponent forms (``1.5``, ``.5``, ``2e-3``).
``pi`` is the only builtin constant and parses directly to its value.
The callable set is fixed: sin, cos, exp, log, sqrt, abs.

A Bundle of ASTs is compiled once into one straight-line function
over numpy ufuncs, so variables may be floats or same-shaped
arrays and the result broadcasts. Leaving the real domain and overflow
anywhere, ``*`` and ``/`` included, raise EvalDomainError instead of
producing inf or NaN.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    EvalDomainError,
    ExprSyntaxError,
    UnknownFunctionError,
    UnknownVariableError,
)

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprAST"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAST"
    right: "ExprAST"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAST"


ExprAST = Union[Num, Var, Neg, BinOp, Call]

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(rf"({_NUMBER})|([A-Za-z_][A-Za-z_0-9]*)|(\S)")


def _tokenize(text):
    """Yield (kind, text, position) with 1-based positions."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start() + 1
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), pos))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), pos))
        else:
            ch = m.group(3)
            if ch not in "+-*/^()":
                raise ExprSyntaxError(f"unexpected character '{ch}'", pos)
            tokens.append((ch, ch, pos))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text, allowed_vars):
        if not text or not text.strip():
            raise ExprSyntaxError("empty expression", 1)
        self.tokens = _tokenize(text)
        self.idx = 0
        self.allowed = frozenset(allowed_vars)

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected '{kind}', found '{tok[1] or 'end of input'}'", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input '{tok[1]}'", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if self.peek()[0] == "^":
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.atom())
        return self.atom()

    def atom(self):
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownFunctionError(text, pos)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            if text in CONSTANTS:
                return Num(CONSTANTS[text])
            if text not in self.allowed:
                raise UnknownVariableError(text, pos)
            return Var(text)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"expected a value, found '{text or 'end of input'}'", pos)


def parse_expression(text: str, allowed_vars) -> ExprAST:
    """Parse ``text`` into an AST; names must come from ``allowed_vars``."""
    return _Parser(text, allowed_vars).parse()


def collect_variables(node: ExprAST) -> frozenset:
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return collect_variables(node.operand)
    if isinstance(node, BinOp):
        return collect_variables(node.left) | collect_variables(node.right)
    if isinstance(node, Call):
        return collect_variables(node.arg)
    return frozenset()


_BINOPS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "^": "power({}, {})"}

RAISE = {"divide": "raise", "over": "raise", "invalid": "raise", "under": "ignore"}


def _compile(nodes):
    """One straight-line Python function of ``env`` returning the tuple of
    the values of ``nodes``; equal subtrees, variables included, are
    computed once for all of them.

    Only whitelisted templates and generated names reach ``exec``; names
    and constants are bound in the namespace. Operands are float64 arrays
    or scalars, so every operation obeys the caller's numpy error state.
    """
    namespace = {"asarray": np.asarray, "power": np.power, **FUNCTIONS}
    body, done = [], {}

    def assign(code):
        body.append(f"t{len(body)} = {code}")
        return f"t{len(body) - 1}"

    def bind(value):
        namespace[f"k{len(namespace)}"] = value
        return f"k{len(namespace) - 1}"

    def emit(n):
        key = repr(n)           # unlike ==, tells 0.0 from -0.0
        if key not in done:
            done[key] = assign(operation(n))
        return done[key]

    def operation(n):
        if isinstance(n, Num):
            return bind(np.float64(n.value))
        if isinstance(n, Var):
            return f"asarray(env[{bind(n.name)}], float)"
        if isinstance(n, Neg):
            return f"-{emit(n.operand)}"
        if isinstance(n, BinOp) and n.op in _BINOPS:
            return _BINOPS[n.op].format(emit(n.left), emit(n.right))
        if isinstance(n, Call) and n.func in FUNCTIONS:
            return f"{n.func}({emit(n.arg)})"
        raise ValueError(f"not an expression node: {n!r}")

    results = [emit(n) for n in nodes]
    exec("\n    ".join(["def compiled(env):", *body, f"return ({', '.join(results)},)"]),
         namespace)
    return namespace["compiled"]


class Bundle:
    """Several ASTs compiled into one straight-line function of ``env``.

    Calling the bundle returns the tuple of their values and turns every
    floating point exception but underflow into an EvalDomainError. Hot
    loops call ``raw`` instead, under one ``np.errstate(**RAISE)`` of
    their own; calling the bundle again on the environment that failed
    raises the EvalDomainError.
    """

    def __init__(self, nodes):
        self.nodes = tuple(nodes)
        self.raw = _compile(self.nodes)

    def __call__(self, env):
        try:
            with np.errstate(**RAISE):
                return self.raw(env)
        except (FloatingPointError, ZeroDivisionError) as exc:
            reason = exc
        except KeyError as exc:
            raise UnknownVariableError(exc.args[0]) from None
        if len(self.nodes) > 1:
            # evaluate raises for the first expression that fails on its own;
            # the bundle computes each exactly as evaluate does, so one does
            for node in self.nodes:
                evaluate(node, env)
        raise EvalDomainError(f"'{render(self.nodes[0])}' left its real domain: {reason}")


def evaluate(node: ExprAST, env):
    """Evaluate one AST, compiled anew on each call (repeated evaluation
    keeps a Bundle), over floats or numpy arrays. Every floating point
    exception but underflow is an EvalDomainError."""
    out, = Bundle((node,))(env)
    if isinstance(out, np.ndarray) and out.ndim:
        return out
    return float(out)


# Canonical rendering. parse(render(t)) is structurally identical to t for
# every parser-producible tree; the writers mirror the grammar levels so no
# precedence information is lost or invented.

def render(node: ExprAST) -> str:
    return _render_expr(node)


def _render_expr(node):
    if isinstance(node, BinOp) and node.op in "+-":
        return f"{_render_expr(node.left)}{node.op}{_render_term(node.right)}"
    return _render_term(node)


def _render_term(node):
    if isinstance(node, BinOp) and node.op in "*/":
        return f"{_render_term(node.left)}{node.op}{_render_factor(node.right)}"
    return _render_factor(node)


def _render_factor(node):
    if isinstance(node, BinOp) and node.op == "^":
        return f"{_render_unary(node.left)}^{_render_factor(node.right)}"
    return _render_unary(node)


def _render_unary(node):
    if isinstance(node, Neg):
        return f"-{_render_atom(node.operand)}"
    return _render_atom(node)


def _render_atom(node):
    if isinstance(node, Num):
        if node.value < 0 or not math.isfinite(node.value):
            # not parser-producible; parenthesize so the text stays valid
            return f"({node.value!r})"
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_render_expr(node.arg)})"
    return f"({_render_expr(node)})"
