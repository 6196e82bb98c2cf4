import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from funcsol.errors import (
    EvalDomainError,
    ExprSyntaxError,
    UnknownFunctionError,
    UnknownVariableError,
)
from funcsol import exprlang
from funcsol.exprlang import Bundle, collect_variables, evaluate, parse_expression, render

VARS = {"u1", "u2", "p"}


def ev(text, **env):
    return evaluate(parse_expression(text, VARS), env)


def test_basic_arithmetic():
    assert ev("1+u1*u1", u1=2.0) == 5.0


def test_trig_identity():
    assert abs(ev("sin(p)^2+cos(p)^2", p=0.7) - 1.0) <= 1e-15


def test_unknown_variable_position():
    with pytest.raises(UnknownVariableError) as exc:
        parse_expression("1+q", VARS)
    assert exc.value.position == 3


def test_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse_expression("tanh(u1)", VARS)


def test_exp():
    assert abs(ev("exp(p)", p=1.0) - math.e) <= 1e-15


def test_division_by_zero():
    with pytest.raises(EvalDomainError):
        ev("1/(1-p)", p=1.0)


def test_precedence():
    assert ev("2+3*4^2") == 50.0


@pytest.mark.parametrize("text,expected", [
    ("2^3^2", 512.0),          # right associative
    ("-2^2", 4.0),             # the power base is the signed atom
    ("2^-2", 0.25),
    ("2-3-4", -5.0),
    ("20/4/5", 1.0),
    ("2*3+4*5", 26.0),
    ("-(2+3)", -5.0),
    ("pi", math.pi),
    ("1.5e2", 150.0),
    (".5+1", 1.5),
    ("abs(-3)", 3.0),
    ("sqrt(4)", 2.0),
])
def test_golden_values(text, expected):
    assert ev(text) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("bad", ["", "  ", "1+", "(1+2", "2**3", "1..2", "sin()", "a$b"])
def test_syntax_errors(bad):
    with pytest.raises(ExprSyntaxError):
        parse_expression(bad, VARS)


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        ev("log(u1)", u1=0.0)
    with pytest.raises(EvalDomainError):
        ev("sqrt(u1)", u1=-1.0)
    with pytest.raises(EvalDomainError):
        ev("exp(p)", p=1e4)  # overflow reported, not returned as inf
    with pytest.raises(EvalDomainError):
        ev("exp(u1)*exp(u1)", u1=400.0)  # each factor finite, the product not
    with pytest.raises(EvalDomainError):
        ev("1/u1", u1=1e-320)  # nonzero subnormal divisor overflows


def test_array_evaluation_broadcasts():
    u = np.linspace(0.0, 1.0, 11)
    out = ev("1+u1^2", u1=u)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, 1 + u**2)


def test_collect_variables():
    program = parse_expression("u1*sin(p)+2", VARS)
    assert collect_variables(program) == {"u1", "p"}


def test_programs_are_postfix():
    assert parse_expression("-(u1+2)^2/sin(p)", VARS) == (
        ("var", "u1"), ("num", 2.0), ("+", None), ("neg", None), ("num", 2.0), ("^", None),
        ("var", "p"), ("call", "sin"), ("/", None))
    assert parse_expression("-pi", VARS) == (("num", math.pi), ("neg", None))


# --- parse/render round trip -------------------------------------------------

_names = st.sampled_from(["u1", "u2", "p"])
_funcs = st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"])
_nums = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _programs(depth):
    """Postfix programs of expressions nested up to ``depth`` levels."""
    leaf = st.one_of(_nums.map(lambda v: (("num", v),)), _names.map(lambda v: (("var", v),)))
    if depth == 0:
        return leaf
    sub = _programs(depth - 1)
    return st.one_of(
        leaf,
        sub.map(lambda p: p + (("neg", None),)),
        st.tuples(_funcs, sub).map(lambda t: t[1] + (("call", t[0]),)),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: t[1] + t[2] + ((t[0], None),)),
    )


@settings(max_examples=300, deadline=None)
@given(_programs(4))
def test_parse_render_round_trip(program):
    text = render(program)
    assert parse_expression(text, VARS) == program


def test_render_examples():
    assert render(parse_expression("1+u1*u1", VARS)) == "1.0+u1*u1"
    # reparsing canonical text is a fixed point
    t = parse_expression("-(u1+2)^2/sin(p)", VARS)
    assert parse_expression(render(t), VARS) == t


# --- compiled evaluation against a reference stack machine ---------------------

class _Undefined(Exception):
    pass


_REF_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
               "^": np.power}
_REF_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
              "sqrt": np.sqrt, "abs": np.abs}


def _reference(program, env):
    """Step-by-step evaluation on a stack; a non-finite result of any
    operation is undefined."""
    stack = []
    for op, arg in program:
        if op == "num":
            stack.append(np.float64(arg))
            continue
        if op == "var":
            stack.append(np.asarray(env[arg], dtype=float))
            continue
        with np.errstate(all="ignore"):
            if op == "neg":
                out = -stack.pop()
            elif op == "call":
                out = _REF_FUNCS[arg](stack.pop())
            else:
                right = stack.pop()
                out = _REF_BINOPS[op](stack.pop(), right)
        if not np.all(np.isfinite(out)):
            raise _Undefined
        stack.append(out)
    return stack.pop()


_values = st.floats(min_value=-800.0, max_value=800.0, allow_nan=False)
_bindings = st.one_of(_values, st.lists(_values, min_size=3, max_size=3).map(np.array))


@settings(max_examples=500, deadline=None)
@given(_programs(4), st.fixed_dictionaries({name: _bindings for name in sorted(VARS)}))
def test_compiled_matches_reference_walk(program, env):
    try:
        expected = _reference(program, env)
    except _Undefined:
        with pytest.raises(EvalDomainError):
            evaluate(program, env)
        return
    got = evaluate(program, env)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.tuples(_programs(4), _programs(4), _programs(4)),
       st.fixed_dictionaries({name: _bindings for name in sorted(VARS)}))
def test_bundle_matches_single_evaluations(programs, env):
    bundle = Bundle(programs)
    singles = []
    for program in programs:
        try:
            singles.append(evaluate(program, env))
        except EvalDomainError as exc:
            # the bundle fails too, and names the first expression that fails alone
            with pytest.raises(EvalDomainError) as got:
                bundle(env)
            assert str(got.value) == str(exc)
            return
    for got, expected in zip(bundle(env), singles):
        assert np.shape(got) == np.shape(expected)
        assert np.asarray(got, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


def test_bundle_error_names_first_user_of_shared_subtree():
    a, b = (parse_expression("exp(u1)+1", VARS), parse_expression("2*exp(u1)", VARS))
    with pytest.raises(EvalDomainError, match="'exp\\(u1\\)\\+1.0'"):
        Bundle((a, b))({"u1": 800.0, "u2": 0.0, "p": 0.0})
    assert Bundle((a, b))({"u1": 0.0}) == (2.0, 2.0)


# --- long and deep inputs: nothing recurses -----------------------------------

def _deep(kind, k):
    """An expression of size k and its value at u1 = 0.5, exact in float64."""
    if kind == "sum":
        return ("1" + "".join(f"{'+-'[j % 2]}{j % 3}*u1" for j in range(k)),
                1 + sum((-1) ** j * (j % 3) * 0.5 for j in range(k)))
    if kind == "parentheses":
        return "(" * k + "u1+1" + ")" * k, 1.5
    if kind == "negated groups":
        return "-(" * k + "u1" + ")" * k, (-1) ** k * 0.5
    if kind == "power chain":       # 8.0, were '^' left associative
        return "2^1" + "^1" * k + "^3", 2.0
    return "abs(-" * k + "u1" + ")" * k, 0.5     # nested calls


def _check_deep(kind, k):
    text, value = _deep(kind, k)
    program = parse_expression(text, VARS)
    assert collect_variables(program) <= {"u1"}
    assert evaluate(program, {"u1": 0.5}) == value
    assert parse_expression(render(program), VARS) == program


_DEEP_SIZES = {"sum": 1000, "parentheses": 1000, "negated groups": 1000, "power chain": 400,
               "nested calls": 1000}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of([st.tuples(st.just(kind), st.integers(0, top))
                  for kind, top in _DEEP_SIZES.items()]))
@example(("sum", 1000))
@example(("parentheses", 1000))
@example(("power chain", 400))
def test_long_and_deep_expressions_parse_compile_and_round_trip(case):
    _check_deep(*case)


@pytest.mark.parametrize("kind, k", [("sum", 10_000), ("parentheses", 10_000),
                                     ("negated groups", 5_000), ("power chain", 5_000),
                                     ("nested calls", 5_000)])
def test_no_size_or_depth_limit(kind, k):
    _check_deep(kind, k)


def test_compile_time_is_linear_in_the_number_of_terms():
    def best_of_3(n):
        text = "+".join(f"{k}*u1^2" for k in range(n))
        times = []
        for _ in range(3):
            started = time.perf_counter()
            Bundle((parse_expression(text, VARS),))
            times.append(time.perf_counter() - started)
        return min(times)

    # linear reads 4, a quadratic compile about 16
    assert best_of_3(8000) < 8 * best_of_3(2000)


def test_equal_and_hash_of_long_programs():
    text, _ = _deep("sum", 10_000)
    first, second = parse_expression(text, VARS), parse_expression(text, VARS)
    assert first == second
    assert hash(first) == hash(second)
    assert first != parse_expression(text + "+1", VARS)


# --- Bundle compiles only whitelisted steps ------------------------------------

@pytest.mark.parametrize("program", [
    (("var", "u1"), ("call", "__import__")),
    (("var", "u1"), ("call", "eval")),
    (("var", "u1"), ("attr", "__class__")),
    (("var", "u1"), ("var", "u2"), ("**", None)),
    (("num", 1.0), ("+", None)),
    (("neg", None),),
    (("num", 1.0), ("num", 2.0)),
    (),
], ids=["import", "eval", "unknown-op", "unknown-binop", "short-binop", "short-neg",
        "two-values", "empty"])
def test_bundle_refuses_a_step_outside_the_whitelist_before_exec(monkeypatch, program):
    executed = []

    def recording_exec(source, namespace):
        executed.append(source)
        exec(source, namespace)

    monkeypatch.setattr(exprlang, "exec", recording_exec, raising=False)
    with pytest.raises(ValueError):
        Bundle(((("var", "p"),), program))
    assert executed == []
    assert Bundle(((("var", "p"),),))({"p": 2.0}) == (2.0,)
    assert len(executed) == 1
