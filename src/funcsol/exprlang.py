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

An expression is its postfix program, a tuple of (op, arg) steps:
("num", value), ("var", name), ("neg", None), ("call", function) or
(binary operator, None). The parser writes it as it reads the text; no
tree is built. A Bundle of programs is compiled once into one
straight-line function over numpy ufuncs, so variables may be floats or
same-shaped arrays and the result broadcasts. Leaving the real domain and overflow
anywhere, ``*`` and ``/`` included, raise EvalDomainError instead of
producing inf or NaN.
"""

from __future__ import annotations

import math
import re

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


def parse_expression(text: str, allowed_vars) -> tuple:
    """Parse ``text`` into its postfix program; names must come from
    ``allowed_vars``.

    One shunting-yard loop (Dijkstra, 1961) appends each step once its
    operands are in: ``ops`` holds pending binary operators and open
    groups, each group as the list of steps that its closing appends.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 1)
    tokens, allowed = _tokenize(text), frozenset(allowed_vars)
    program, ops, i = [], [], 0
    while True:
        # an operand: '-'? then an atom, or the opening of a group; ``sign``
        # holds the step that a leading '-' appends after the operand
        kind, word, pos = tokens[i]
        sign = [("neg", None)] if kind == "-" else []
        if sign:
            i += 1
            kind, word, pos = tokens[i]
        i += 1
        if kind == "name" and tokens[i][0] == "(":
            if word not in FUNCTIONS:
                raise UnknownFunctionError(word, pos)
            ops.append([("call", word), *sign])
            i += 1
            continue
        if kind == "(":
            ops.append(sign)
            continue
        if kind == "num":
            step = ("num", float(word))
        elif kind == "name" and word in CONSTANTS:
            step = ("num", CONSTANTS[word])
        elif kind == "name":
            if word not in allowed:
                raise UnknownVariableError(word, pos)
            step = ("var", word)
        else:
            raise ExprSyntaxError(f"expected a value, found '{word or 'end of input'}'", pos)
        program += [step, *sign]
        # closings of groups, then a binary operator or the end
        while True:
            kind, word, pos = tokens[i]
            i += 1
            if kind in _LEVELS:
                break
            while ops and isinstance(ops[-1], str):
                program.append((ops.pop(), None))
            if not ops:
                if kind == "end":
                    return tuple(program)
                raise ExprSyntaxError(f"unexpected trailing input '{word}'", pos)
            if kind != ")":
                raise ExprSyntaxError(f"expected ')', found '{word or 'end of input'}'", pos)
            program += ops.pop()
        # pending operators of a higher level take their right operand now,
        # and of an equal one too, except under '^', which is right associative
        level = _LEVELS[kind]
        while ops and isinstance(ops[-1], str) and (
                _LEVELS[ops[-1]] > level or _LEVELS[ops[-1]] == level and kind != "^"):
            program.append((ops.pop(), None))
        ops.append(kind)


def collect_variables(*programs) -> frozenset:
    """The names of the variables that ``programs`` read."""
    return frozenset(arg for program in programs for op, arg in program if op == "var")


_BINOPS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "^": "power({}, {})"}
_ARITY = {"neg": 1, "call": 1, **dict.fromkeys(_BINOPS, 2)}

RAISE = {"divide": "raise", "over": "raise", "invalid": "raise", "under": "ignore"}


def _compile(programs):
    """One straight-line Python function of ``env`` returning the tuple of
    the values of ``programs``; equal subexpressions, variables included,
    are computed once for all of them.

    Only whitelisted templates and generated names reach ``exec``; names
    and constants are bound in the namespace, and any other step, or a
    program that does not leave exactly one value, raises ValueError
    first. Operands are float64 arrays or scalars, so every operation obeys
    the caller's numpy error state.
    """
    namespace = {"asarray": np.asarray, "power": np.power, **FUNCTIONS}
    body, done, temps = [], {}, []

    def bind(value):
        namespace[f"k{len(namespace)}"] = value
        return f"k{len(namespace) - 1}"

    def operation(op, arg, args):
        if op == "num":
            return bind(np.float64(arg))
        if op == "var":
            return f"asarray(env[{bind(arg)}], float)"
        if op == "neg":
            return f"-{args[0]}"
        if op in _BINOPS:
            return _BINOPS[op].format(*args)
        if op == "call" and arg in FUNCTIONS:
            return f"{arg}({args[0]})"
        raise ValueError(f"not a program step: {(op, arg)!r}")

    for program in programs:
        depth = len(temps)
        for op, arg in program:
            arity = _ARITY.get(op, 0)
            if len(temps) - depth < arity:
                raise ValueError(f"program step {(op, arg)!r} lacks an operand")
            args = temps[len(temps) - arity:]
            del temps[len(temps) - arity:]
            # an inner step's key is its code over its operands' temporaries;
            # a leaf's is its repr, which unlike == tells 0.0 from -0.0
            key = operation(op, arg, args) if arity else repr((op, arg))
            if key not in done:
                body.append(f"t{len(body)} = {key if arity else operation(op, arg, args)}")
                done[key] = f"t{len(body) - 1}"
            temps.append(done[key])
        if len(temps) != depth + 1:
            raise ValueError(f"a program leaves one value, not {len(temps) - depth}")
    exec("\n    ".join(["def compiled(env):", *body, f"return ({', '.join(temps)},)"]),
         namespace)
    return namespace["compiled"]


class Bundle:
    """Several programs compiled into one straight-line function of ``env``.

    Calling the bundle returns the tuple of their values and turns every
    floating point exception but underflow into an EvalDomainError. Hot
    loops call ``raw`` instead, under one ``np.errstate(**RAISE)`` of
    their own; calling the bundle again on the environment that failed
    raises the EvalDomainError.
    """

    def __init__(self, programs):
        self.programs = tuple(programs)
        self.raw = _compile(self.programs)

    def __call__(self, env):
        try:
            with np.errstate(**RAISE):
                return self.raw(env)
        except (FloatingPointError, ZeroDivisionError) as exc:
            reason = exc
        except KeyError as exc:
            raise UnknownVariableError(exc.args[0]) from None
        if len(self.programs) > 1:
            # evaluate raises for the first expression that fails on its own;
            # the bundle computes each exactly as evaluate does, so one does
            for program in self.programs:
                evaluate(program, env)
        raise EvalDomainError(f"'{render(self.programs[0])}' left its real domain: {reason}")


def evaluate(program, env):
    """Evaluate one program, compiled anew on each call (repeated evaluation
    keeps a Bundle), over floats or numpy arrays. Every floating point
    exception but underflow is an EvalDomainError."""
    out, = Bundle((program,))(env)
    if isinstance(out, np.ndarray) and out.ndim:
        return out
    return float(out)


def render(program) -> str:
    """Canonical text: parse(render(t)) == t for every program the parser
    writes. Each step's text is written at its grammar level, and an
    operand below the level its position needs is parenthesized."""
    done = []                   # (level, text) of each finished operand

    def at(level, operand):
        return operand[1] if operand[0] >= level else f"({operand[1]})"

    for op, arg in program:
        if op in _LEVELS:
            right, left, level = done.pop(), done.pop(), _LEVELS[op]
            lo, hi = (level + 1, level) if op == "^" else (level, level + 1)
            done.append((level, f"{at(lo, left)}{op}{at(hi, right)}"))
        elif op == "neg":
            done.append((3, f"-{at(4, done.pop())}"))
        elif op == "call":
            done.append((4, f"{arg}({done.pop()[1]})"))
        elif op == "var":
            done.append((4, arg))
        elif arg < 0 or not math.isfinite(arg):
            # not parser-producible; parenthesize so the text stays valid
            done.append((4, f"({arg!r})"))
        else:
            done.append((4, repr(arg)))
    return done[0][1]
