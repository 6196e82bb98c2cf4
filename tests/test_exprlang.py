import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from funcsol.errors import (
    EvalDomainError,
    ExprSyntaxError,
    UnknownFunctionError,
    UnknownVariableError,
)
from funcsol.exprlang import (
    BinOp,
    Bundle,
    Call,
    Neg,
    Num,
    Var,
    collect_variables,
    evaluate,
    parse_expression,
    render,
)

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
    ast = parse_expression("u1*sin(p)+2", VARS)
    assert collect_variables(ast) == {"u1", "p"}


# --- parse/render round trip -------------------------------------------------

_names = st.sampled_from(["u1", "u2", "p"])
_funcs = st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"])
_nums = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _asts(depth):
    leaf = st.one_of(_nums.map(Num), _names.map(Var))
    if depth == 0:
        return leaf
    sub = _asts(depth - 1)
    return st.one_of(
        leaf,
        sub.map(Neg),
        st.tuples(_funcs, sub).map(lambda t: Call(*t)),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(*t)),
    )


@settings(max_examples=300, deadline=None)
@given(_asts(4))
def test_parse_render_round_trip(ast):
    text = render(ast)
    assert parse_expression(text, VARS) == ast


def test_render_examples():
    assert render(parse_expression("1+u1*u1", VARS)) == "1.0+u1*u1"
    # reparsing canonical text is a fixed point
    t = parse_expression("-(u1+2)^2/sin(p)", VARS)
    assert parse_expression(render(t), VARS) == t


# --- compiled evaluation against a reference tree walk ------------------------

class _Undefined(Exception):
    pass


_REF_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
               "^": np.power}
_REF_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
              "sqrt": np.sqrt, "abs": np.abs}


def _reference(node, env):
    """Node-by-node evaluation; any non-finite intermediate is undefined."""
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return np.asarray(env[node.name], dtype=float)
    with np.errstate(all="ignore"):
        if isinstance(node, Neg):
            out = -_reference(node.operand, env)
        elif isinstance(node, BinOp):
            out = _REF_BINOPS[node.op](_reference(node.left, env),
                                       _reference(node.right, env))
        else:
            out = _REF_FUNCS[node.func](_reference(node.arg, env))
    if not np.all(np.isfinite(out)):
        raise _Undefined
    return out


_values = st.floats(min_value=-800.0, max_value=800.0, allow_nan=False)
_bindings = st.one_of(_values, st.lists(_values, min_size=3, max_size=3).map(np.array))


@settings(max_examples=500, deadline=None)
@given(_asts(4), st.fixed_dictionaries({name: _bindings for name in sorted(VARS)}))
def test_compiled_matches_reference_walk(ast, env):
    try:
        expected = _reference(ast, env)
    except _Undefined:
        with pytest.raises(EvalDomainError):
            evaluate(ast, env)
        return
    got = evaluate(ast, env)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.tuples(_asts(4), _asts(4), _asts(4)),
       st.fixed_dictionaries({name: _bindings for name in sorted(VARS)}))
def test_bundle_matches_single_evaluations(asts, env):
    bundle = Bundle(asts)
    singles = []
    for ast in asts:
        try:
            singles.append(evaluate(ast, env))
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
