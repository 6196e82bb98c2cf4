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
    """Return the list of (kind, text, position) with 1-based positions."""
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


# grammar levels: expr 0, term 1, factor 2, unary 3, atom 4
_LEVELS = {"+": 0, "-": 0, "*": 1, "/": 1, "^": 2}


def parse_expression(text: str, allowed_vars) -> ExprAST:
    """Parse ``text`` into an AST; names must come from ``allowed_vars``.

    One shunting-yard loop (Dijkstra, 1961): ``ops`` holds pending binary
    operators and open groups, each group as (negated, function or None).
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 1)
    tokens, allowed = _tokenize(text), frozenset(allowed_vars)
    operands, ops, i = [], [], 0

    def reduce():
        right = operands.pop()
        operands.append(BinOp(ops.pop(), operands.pop(), right))

    while True:
        # an operand: '-'? then an atom, or the opening of a group
        kind, word, pos = tokens[i]
        negated = kind == "-"
        if negated:
            i += 1
            kind, word, pos = tokens[i]
        i += 1
        if kind == "name" and tokens[i][0] == "(":
            if word not in FUNCTIONS:
                raise UnknownFunctionError(word, pos)
            ops.append((negated, word))
            i += 1
            continue
        if kind == "(":
            ops.append((negated, None))
            continue
        if kind == "num":
            node = Num(float(word))
        elif kind == "name" and word in CONSTANTS:
            node = Num(CONSTANTS[word])
        elif kind == "name":
            if word not in allowed:
                raise UnknownVariableError(word, pos)
            node = Var(word)
        else:
            raise ExprSyntaxError(f"expected a value, found '{word or 'end of input'}'", pos)
        operands.append(Neg(node) if negated else node)
        # closings of groups, then a binary operator or the end
        while True:
            kind, word, pos = tokens[i]
            i += 1
            if kind in _LEVELS:
                break
            while ops and isinstance(ops[-1], str):
                reduce()
            if not ops:
                if kind == "end":
                    return operands[0]
                raise ExprSyntaxError(f"unexpected trailing input '{word}'", pos)
            if kind != ")":
                raise ExprSyntaxError(f"expected ')', found '{word or 'end of input'}'", pos)
            negated, func = ops.pop()
            node = operands.pop() if func is None else Call(func, operands.pop())
            operands.append(Neg(node) if negated else node)
        # pending operators of a higher level take their right operand now,
        # and of an equal one too, except under '^', which is right associative
        level = _LEVELS[kind]
        while ops and isinstance(ops[-1], str) and (
                _LEVELS[ops[-1]] > level or _LEVELS[ops[-1]] == level and kind != "^"):
            reduce()
        ops.append(kind)


def _children(node):
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def _postorder(roots):
    """Yield every node of the trees ``roots``, children before their parent
    and left before right, off an explicit stack."""
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(_children(node)))


def collect_variables(*nodes) -> frozenset:
    """The names of the variables that the trees ``nodes`` read."""
    return frozenset(n.name for n in _postorder(nodes) if isinstance(n, Var))


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
    body, done, temps = [], {}, []

    def bind(value):
        namespace[f"k{len(namespace)}"] = value
        return f"k{len(namespace) - 1}"

    def operation(n, args):
        if isinstance(n, Num):
            return bind(np.float64(n.value))
        if isinstance(n, Var):
            return f"asarray(env[{bind(n.name)}], float)"
        if isinstance(n, Neg):
            return f"-{args[0]}"
        if isinstance(n, BinOp) and n.op in _BINOPS:
            return _BINOPS[n.op].format(*args)
        if isinstance(n, Call) and n.func in FUNCTIONS:
            return f"{n.func}({args[0]})"
        raise ValueError(f"not an expression node: {type(n).__name__}")

    for n in _postorder(nodes):
        arity = len(_children(n))
        args = temps[len(temps) - arity:]
        del temps[len(temps) - arity:]
        # an inner node's key is its code over its operands' temporaries; a
        # leaf's is its repr, which unlike == tells 0.0 from -0.0
        key = operation(n, args) if arity else repr(n)
        if key not in done:
            body.append(f"t{len(body)} = {key if arity else operation(n, args)}")
            done[key] = f"t{len(body) - 1}"
        temps.append(done[key])
    exec("\n    ".join(["def compiled(env):", *body, f"return ({', '.join(temps)},)"]),
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


def render(node: ExprAST) -> str:
    """Canonical text: parse(render(t)) is structurally identical to t for
    every parser-producible tree. Each node is written at its grammar level,
    and an operand below the level its position needs is parenthesized."""
    done = []                   # (level, text) of each finished operand

    def at(level, operand):
        return operand[1] if operand[0] >= level else f"({operand[1]})"

    for n in _postorder((node,)):
        if isinstance(n, BinOp):
            right, left, level = done.pop(), done.pop(), _LEVELS[n.op]
            lo, hi = (level + 1, level) if n.op == "^" else (level, level + 1)
            done.append((level, f"{at(lo, left)}{n.op}{at(hi, right)}"))
        elif isinstance(n, Neg):
            done.append((3, f"-{at(4, done.pop())}"))
        elif isinstance(n, Call):
            done.append((4, f"{n.func}({done.pop()[1]})"))
        elif isinstance(n, Var):
            done.append((4, n.name))
        elif n.value < 0 or not math.isfinite(n.value):
            # not parser-producible; parenthesize so the text stays valid
            done.append((4, f"({n.value!r})"))
        else:
            done.append((4, repr(n.value)))
    return done[0][1]
