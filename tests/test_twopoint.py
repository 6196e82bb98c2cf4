import itertools
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import funcsol
from funcsol import twopoint
from funcsol.errors import (
    BracketFailureError,
    DegenerateLinearizationError,
    EvalDomainError,
    FuncsolError,
    MaxIterationError,
    NonEllipticError,
    NonPositiveFError,
    SingularJacobianError,
    SingularMatrixError,
)
from funcsol.exprlang import parse_expression, render
from funcsol.twopoint import (
    SINGULAR_COND_LIMIT,
    ProblemSpec,
    apply_fixed_point_operator,
    collocation_residual,
    gamma_functional,
    integrate_profiles,
    shooting_jacobian,
    solve_fixed_point,
    solve_scalar,
    solve_shooting,
    solve_two_point,
)


def molecular(a, u_star):
    return ProblemSpec.from_strings(len(u_star), a, u_star=u_star, mode="molecular")


DIAG = molecular([["1+u1", "0"], ["0", "1"]], (1.0, 0.0))
CONST = molecular([["2", "1"], ["1", "2"]], (1.0, 0.0))

DARCY_1 = ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next="1", u_star=(1.0,), mode="darcy")


@pytest.mark.parametrize("call, message", [
    (lambda: ProblemSpec.from_strings(1, [["1"]], u_star=(1.0,), mode="heat"),
     "unknown mode 'heat'"),
    (lambda: ProblemSpec(n=0, a=[]), "n must be at least 1"),
    (lambda: ProblemSpec.from_strings(2, [["1", "0"]], u_star=(1.0, 0.0)),
     "coefficient matrix must be 2x2"),
    (lambda: ProblemSpec.from_strings(1, [["1"]], b=["1"], u_star=(1.0,)),
     "molecular mode takes no b or b_next coefficients"),
    (lambda: ProblemSpec.from_strings(1, [["1"]], b_next="1", u_star=(1.0,)),
     "molecular mode takes no b or b_next coefficients"),
    (lambda: ProblemSpec.from_strings(2, [["1", "0"], ["0", "1"]], b=["1"],
                                      u_star=(1.0, 0.0), mode="darcy"),
     "b must have 2 entries"),
    (lambda: ProblemSpec.from_strings(1, [["1"]], u_star=(1.0,), mode="scalar"),
     "scalar mode requires the b coefficient"),
    (lambda: ProblemSpec(n=1, a=[[parse_expression("u1+u2*q", ("u1", "u2", "q"))]],
                         u_star=(1.0,)),
     "expression references undeclared variables ['q', 'u2']"),
    (lambda: solve_fixed_point(DARCY_1), "solve_fixed_point applies to molecular problems"),
    (lambda: solve_fixed_point(CONST, damping=0.0), "damping must lie in (0, 1], got 0.0"),
    (lambda: solve_fixed_point(CONST, damping=1.5), "damping must lie in (0, 1], got 1.5"),
    (lambda: gamma_functional(np.linspace(0.0, 1.0, 5), np.zeros((1, 5)), DARCY_1),
     "gamma functional applies to molecular problems"),
], ids=["unknown-mode", "n-below-1", "non-square-a", "molecular-with-b",
        "molecular-with-b_next", "b-length", "scalar-without-b", "undeclared-variables",
        "fixed-point-on-darcy", "damping-0", "damping-above-1", "gamma-functional-on-darcy"])
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def sincos(p_star):
    return ProblemSpec.from_strings(
        2, [["1", "0"], ["0", "1"]], b=["-u2", "u1"], b_next="1",
        u_star=(0.0, 0.0), p_star=p_star, mode="darcy")


# --- spec validation ----------------------------------------------------------

def test_spec_rejects_scalar_with_n2():
    with pytest.raises(ValueError):
        ProblemSpec.from_strings(2, [["1", "0"], ["0", "1"]], b=["1", "1"],
                                 u_star=(1.0, 1.0), mode="scalar")


def test_spec_rejects_undeclared_variable():
    with pytest.raises(Exception):
        ProblemSpec.from_strings(2, [["1+u3", "0"], ["0", "1"]], u_star=(1.0, 0.0))


def test_molecular_rejects_p_dependence():
    with pytest.raises(ValueError):
        molecular([["1+p", "0"], ["0", "1"]], (1.0, 0.0))


def test_molecular_pivots_on_unit_interval():
    with pytest.raises(ValueError):
        ProblemSpec.from_strings(2, [["1", "0"], ["0", "1"]], u_star=(1.0, 0.0),
                                 p_star=2.0, mode="molecular")


def test_laws_table_darcy_and_molecular():
    spec = ProblemSpec.from_strings(2, [["1", "2"], ["3", "4"]], b=["5", "6"], b_next="7",
                                    u_star=(0.5, -1.0), p_star=2.0, mode="darcy")
    values = spec.values([0.0, 0.0], 0.0)
    table = [(f, bd, [(float(values[k]), g) for k, g in terms]) for f, bd, terms in spec.laws()]
    assert table == [(0, 0.5, [(1.0, 0), (2.0, 1), (5.0, 2)]),
                     (1, -1.0, [(3.0, 0), (4.0, 1), (6.0, 2)]),
                     (2, 2.0, [(7.0, 2)])]
    values = CONST.values([0.0, 0.0], 0.0)
    table = [(f, bd, [(float(values[k]), g) for k, g in terms]) for f, bd, terms in CONST.laws()]
    assert table == [(0, 1.0, [(2.0, 0), (1.0, 1)]), (1, 0.0, [(1.0, 0), (2.0, 1)])]


@pytest.mark.parametrize("u_star, p_star", [((math.nan,), 1.0), ((math.inf,), 1.0),
                                            ((1.0,), math.nan), ((1.0,), math.inf)])
def test_spec_rejects_non_finite_data(u_star, p_star):
    with pytest.raises(ValueError, match="finite"):
        ProblemSpec.from_strings(1, [["1"]], u_star=u_star, p_star=p_star, mode="darcy")


# --- ellipticity ----------------------------------------------------------------
# solve_fixed_point takes m and M along the solution it returns

def test_ellipticity_constant_matrix():
    sol = solve_fixed_point(CONST, n_nodes=65)
    assert sol.stats["ellipticity_m"] == pytest.approx(1.0)
    assert sol.stats["ellipticity_M"] == pytest.approx(3.0)


def test_ellipticity_identity():
    sol = solve_fixed_point(molecular([["1", "0"], ["0", "1"]], (1.0, 0.0)), n_nodes=65)
    assert (sol.stats["ellipticity_m"], sol.stats["ellipticity_M"]) == (1.0, 1.0)


def test_ellipticity_failure():
    # symmetric with eigenvalues -1 and 3: refused at the launch point
    spec = molecular([["1", "2"], ["2", "1"]], (1.0, 0.0))
    with pytest.raises(NonEllipticError, match="at z = 0: smallest eigenvalue -1"):
        solve_fixed_point(spec)


def test_ellipticity_checked_along_the_solution():
    # the symmetrized A has eigenvalues 1 -+ u1: elliptic at the launch
    # point, but m = 0 at z = 1 on the solution, where u1 = 1
    spec = molecular([["1", "2*u1"], ["0", "1"]], (1.0, 1.0))
    with pytest.raises(NonEllipticError):
        solve_fixed_point(spec, n_nodes=257)


# n = 5, with a_11 referencing all five variables
FIVE_VARIABLE_A = [["2+" + "+".join(f"0.01*u{k}^2" for k in range(1, 6)) if i == j == 0
                    else f"2+0.1*u{i+1}^2" if i == j else "0.1" for j in range(5)]
                   for i in range(5)]


def test_ellipticity_five_variables_under_an_address_space_limit():
    # the bounds along the solution cost one eigvalsh per mesh node, not a
    # lattice over five variables
    code = textwrap.dedent(f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from funcsol.twopoint import ProblemSpec, solve_fixed_point
        sol = solve_fixed_point(ProblemSpec.from_strings(5, {FIVE_VARIABLE_A!r},
                                                         u_star=(1.0,) * 5))
        assert 0.0 < sol.stats["ellipticity_m"] <= sol.stats["ellipticity_M"]
        assert sol.stats["iterate_bound_ratio"] <= 1.0 and sol.boundary_error == 0.0
        """)
    src = str(pathlib.Path(funcsol.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr


# --- gamma functional and the fixed point operator ---------------------------

def test_gamma_identity():
    mesh = np.linspace(0.0, 1.0, 101)
    prof = np.vstack([mesh**2, np.sin(mesh)])
    spec = molecular([["1", "0"], ["0", "1"]], (1.0, 0.0))
    np.testing.assert_allclose(gamma_functional(mesh, prof, spec), [1.0, 0.0], atol=1e-12)


def test_gamma_constant_diagonal():
    mesh = np.linspace(0.0, 1.0, 101)
    prof = np.vstack([mesh, mesh])
    spec = molecular([["2", "0"], ["0", "1"]], (0.7, -0.3))
    np.testing.assert_allclose(gamma_functional(mesh, prof, spec), [1.4, -0.3], atol=1e-12)


def test_gamma_log_case():
    mesh = np.linspace(0.0, 1.0, 1001)
    prof = np.vstack([mesh, np.zeros_like(mesh)])
    g = gamma_functional(mesh, prof, DIAG)
    assert g[0] == pytest.approx(1.0 / math.log(2.0), abs=1e-10)


def test_gamma_singular_matrix():
    mesh = np.linspace(0.0, 1.0, 101)
    prof = np.vstack([-np.ones_like(mesh), np.zeros_like(mesh)])  # 1+u1 = 0
    with pytest.raises(SingularMatrixError):
        gamma_functional(mesh, prof, DIAG)


def test_gamma_singular_interior_node_is_named():
    """An exactly singular node makes the batched inverse raise for the whole
    stack; the error names that node's pivot value, not the first node's."""
    mesh = np.linspace(0.0, 1.0, 101)
    prof = np.vstack([np.zeros_like(mesh), np.zeros_like(mesh)])
    prof[0, 37] = -1.0                                  # 1+u1 = 0 at node 37 only
    with pytest.raises(SingularMatrixError, match=f"p = {mesh[37]:.6g} .*estimate inf"):
        gamma_functional(mesh, prof, DIAG)


@pytest.mark.parametrize("a, cond2, singular", [
    ([["1", "0"], ["0", "1e-13"]], 1e13, True),
    ([["1", "0"], ["0", "1e-10"]], 1e10, False),
    ([["1", "1"], ["1", "1.0000000000001"]], 4.0e13, True),
    ([["1", "1"], ["1", "1.0000000001"]], 4.0e10, False),
])
def test_condition_guard_on_2x2(a, cond2, singular):
    """The guard is kappa_F = |A|_F |A^-1|_F against SINGULAR_COND_LIMIT = 1e12;
    for n = 2, kappa_F = sqrt(kappa_2^2 + 2 + kappa_2^-2)."""
    spec = molecular(a, (1.0, 1.0))
    mesh = np.linspace(0.0, 1.0, 11)
    prof = np.zeros((2, mesh.size))
    A = spec.coefficients(prof, mesh)[0]
    assert np.linalg.cond(A[0]) == pytest.approx(cond2, rel=0.01)
    if singular:
        with pytest.raises(SingularMatrixError, match=f"p = 0 "):
            apply_fixed_point_operator(mesh, prof, spec)
    else:
        T = apply_fixed_point_operator(mesh, prof, spec)
        assert np.all(np.isfinite(T))


def _reference_inverse(A):
    """LAPACK's inverses and kappa_F = sqrt(|A/s|_F^2 |s A^-1|_F^2), s = max|A|,
    one matrix at a time: the rule of the n >= 3 path."""
    inv = np.array([np.linalg.inv(a) for a in A.reshape(-1, 2, 2)]).reshape(A.shape)
    s = np.max(np.abs(A), axis=(-2, -1), keepdims=True)
    kappa = np.sqrt(np.sum((A / s) ** 2, axis=(-2, -1)) * np.sum((inv * s) ** 2, axis=(-2, -1)))
    return inv, kappa


def _conditioned_2x2(rng, kappa2, scale):
    """Random 2x2 matrices U diag(1, 1/kappa2) V^T * scale, U and V orthogonal."""
    def orthogonal(k):
        t = rng.uniform(0.0, 2.0 * np.pi, k)
        c, s = np.cos(t), np.sin(t)
        flip = rng.choice([-1.0, 1.0], k)
        return np.stack([np.stack([c, -s * flip], -1), np.stack([s, c * flip], -1)], -2)
    sigma = np.zeros((kappa2.size, 2, 2))
    sigma[:, 0, 0], sigma[:, 1, 1] = 1.0, 1.0 / kappa2
    return orthogonal(kappa2.size) @ sigma @ np.swapaxes(orthogonal(kappa2.size), -1, -2) * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-200, 1.0, 1e200]),
       stacked=st.booleans())
def test_inverse_along_2x2_matches_lapack(seed, scale, stacked):
    """The n = 2 closed form against np.linalg.inv, for kappa_2 from 1 to 1e13
    at three scales: inverses agree within 8 kappa_F eps of max|A^-1|, and
    refusals fall on the same matrix. A single (2, 2) matrix is the shape
    ``_averaged_inverse`` passes for C(1)."""
    rng = np.random.default_rng(seed)
    k = 32 if stacked else 1
    A = _conditioned_2x2(rng, 10.0 ** rng.uniform(0.0, 13.0, k), scale)
    if not stacked:
        A = A[0]
    ref, kappa = _reference_inverse(A)
    kappa = np.atleast_1d(kappa)
    clear = np.abs(np.log(kappa / SINGULAR_COND_LIMIT)) > 0.01    # not at the limit
    p = np.arange(k) if stacked else None
    for i in np.flatnonzero(clear):
        one, one_ref, one_p = (A[i:i + 1], ref[i:i + 1], p[i:i + 1]) if stacked else (A, ref, p)
        if kappa[i] > SINGULAR_COND_LIMIT:
            with pytest.raises(SingularMatrixError, match="condition estimate"):
                twopoint._inverse_along(one, one_p)
        else:
            inv = twopoint._inverse_along(one, one_p)
            tol = 8.0 * kappa[i] * np.finfo(float).eps * np.max(np.abs(one_ref))
            assert np.max(np.abs(inv - one_ref)) <= tol
    top = np.sort(kappa)[::-1]
    if stacked and top[0] > SINGULAR_COND_LIMIT and clear.all() and top[0] > 1.01 * top[1]:
        with pytest.raises(SingularMatrixError, match=f"at p = {int(np.argmax(kappa))} "):
            twopoint._inverse_along(A, p)


@pytest.mark.parametrize("bad", [np.zeros((2, 2)), [[1.0, np.nan], [0.0, 1.0]],
                                 [[1.0, 0.0], [np.inf, 1.0]], [[1.0, 0.0], [0.0, -np.inf]],
                                 [[1.0, 1.0], [1.0, 1.0]]],
                         ids=["zero", "nan", "inf", "minus_inf", "exactly_singular"])
def test_inverse_along_2x2_refuses_with_estimate_inf(bad):
    """A zero, NaN, +-inf or exactly singular 2x2 reads kappa_F = inf, named
    at its own pivot value in a stack and as the averaged inverse alone."""
    stack = np.stack([np.eye(2), bad, np.eye(2)])
    with pytest.raises(SingularMatrixError, match=r"at p = 1 \(condition estimate inf\)"):
        twopoint._inverse_along(stack, np.arange(3.0))
    with pytest.raises(SingularMatrixError, match=r"averaged inverse .*\(condition estimate inf\)"):
        twopoint._inverse_along(np.asarray(bad, dtype=float))


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1.0, 1e200, 1e300])
def test_inverse_along_1x1_is_lapack_bit_for_bit(scale):
    """The n = 1 reciprocal is LAPACK's 1 x 1 inverse, bit for bit, at any
    scale whose reciprocal is finite."""
    A = np.random.default_rng(1).standard_normal((257, 1, 1)) * scale
    assert np.array_equal(twopoint._inverse_along(A, np.arange(257.0)), np.linalg.inv(A))


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310])
def test_inverse_along_1x1_refuses_with_estimate_inf(bad):
    """A zero, NaN, +-inf or subnormal 1 x 1 reads kappa = inf, as with
    LAPACK's inverse: a singular one raises LinAlgError there, and the
    reciprocal of a subnormal overflows."""
    stack = np.array([1.0, bad, 2.0]).reshape(3, 1, 1)
    with pytest.raises(SingularMatrixError, match=r"at p = 1 \(condition estimate inf\)"):
        twopoint._inverse_along(stack, np.arange(3.0))
    with pytest.raises(SingularMatrixError, match=r"averaged inverse .*\(condition estimate inf\)"):
        twopoint._inverse_along(np.array([[bad]]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-200, 1.0, 1e200]),
       symmetric=st.booleans())
def test_ellipticity_2x2_matches_eigvalsh(seed, scale, symmetric):
    """The n = 2 closed form against eigvalsh of the symmetric part, on 32
    random matrices at three scales, shifted so that some stacks are not
    elliptic: m and M agree within 4 eps max|A|, and a clear refusal names
    the node where eigvalsh finds the smallest eigenvalue."""
    rng = np.random.default_rng(seed)
    A = _conditioned_2x2(rng, 10.0 ** rng.uniform(0.0, 13.0, 32), scale)
    if symmetric:
        A = 0.5 * (A + np.swapaxes(A, -1, -2))
    A = A + rng.uniform(-0.5, 2.0) * scale * np.eye(2)
    eigs = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))
    bound = 4.0 * np.finfo(float).eps * np.max(np.abs(A))
    spec = types.SimpleNamespace(coefficients=lambda profiles, mesh: (A, None, None))
    mesh, low = np.arange(32.0), np.sort(eigs[:, 0])
    if low[0] > bound:
        m, M = twopoint._ellipticity(spec, mesh, np.zeros((2, 32)))
        assert abs(m - low[0]) <= bound and abs(M - eigs[:, 1].max()) <= bound
    elif low[0] < -bound and low[1] - low[0] > 2.0 * bound:
        node = int(np.argmin(eigs[:, 0]))
        with pytest.raises(NonEllipticError, match=f"at z = {node}: smallest eigenvalue -"):
            twopoint._ellipticity(spec, mesh, np.zeros((2, 32)))


THREE = molecular([["2+u1^2", "0.3", "0.1*u3"], ["0.3", "2+u2^2", "0.2"],
                   ["0.1*u3", "0.2", "3+sin(u1)"]], (1.0, -0.5, 0.25))


@pytest.mark.parametrize("spec", [molecular([["exp(u1)"]], (1.0,)), DIAG, CONST,
                                  molecular([["1+u1^2", "0.9"], ["0.9", "1+u2^2"]], (3.0, 0.0)),
                                  THREE], ids=["n1", "diag", "const", "coupled", "n3"])
def test_fixed_point_operator_is_the_per_node_product_bit_for_bit(spec):
    """T[U] takes C(z) gamma as one product over the flattened stack; it is
    the per-node product (C @ gamma) bit for bit, for n = 1, 2 and 3."""
    mesh = np.linspace(0.0, 1.0, 257)
    U = mesh * spec.u_star[:, None] + 0.3 * np.sin(np.pi * mesh) * np.arange(1, spec.n + 1)[:, None]
    C, gamma = twopoint._averaged_inverse(mesh, U, spec, "the fixed point operator")
    expected = (C @ gamma).T
    expected[:, 0], expected[:, -1] = 0.0, spec.u_star
    assert np.array_equal(apply_fixed_point_operator(mesh, U, spec), expected)


def test_averaged_inverse_singular():
    # no node's A is singular, but with Simpson weights (1, 4, 2, 4, 1) the
    # entry 1/u1 of A^-1 integrates to 1 - 2 + 1 - 2 + 1 = 0
    spec = molecular([["1", "0"], ["0", "u1"]], (1.0, 1.0))
    mesh = np.linspace(0.0, 1.0, 5)
    prof = np.vstack([[1.0, -2.0, 1.0, -2.0, 1.0], np.zeros(5)])
    with pytest.raises(SingularMatrixError, match="averaged inverse matrix singular"):
        gamma_functional(mesh, prof, spec)


def test_operator_identity_is_linear_ramp():
    mesh = np.linspace(0.0, 1.0, 101)
    prof = np.vstack([np.cos(mesh), mesh**3])
    spec = molecular([["1", "0"], ["0", "1"]], (2.0, -1.0))
    T = apply_fixed_point_operator(mesh, prof, spec)
    np.testing.assert_allclose(T, mesh[None, :] * np.array([[2.0], [-1.0]]), atol=1e-12)


def test_operator_log_profile():
    mesh = np.linspace(0.0, 1.0, 1001)
    prof = np.vstack([mesh, np.zeros_like(mesh)])
    T = apply_fixed_point_operator(mesh, prof, DIAG)
    np.testing.assert_allclose(T[0], np.log1p(mesh) / math.log(2.0), atol=1e-10)


def test_operator_endpoints_exact():
    rng = np.random.default_rng(7)
    mesh = np.linspace(0.0, 1.0, 201)
    for _ in range(5):
        prof = rng.uniform(-0.4, 0.9, (2, mesh.size))
        T = apply_fixed_point_operator(mesh, prof, CONST)
        assert T[0, 0] == 0.0 and T[1, 0] == 0.0
        assert T[0, -1] == 1.0 and T[1, -1] == 0.0


# --- fixed point solver -------------------------------------------------------

def test_fixed_point_diag_oracle():
    sol = solve_fixed_point(DIAG, n_nodes=1001, tol=1e-10)
    assert sol.gamma[0] == pytest.approx(1.5, abs=1e-8)
    assert np.max(np.abs(sol.profiles[0] - (-1 + np.sqrt(1 + 3 * sol.mesh)))) <= 1e-7
    assert sol.boundary_error == 0.0
    assert sol.stats["iterate_bound_ratio"] <= 1.0 + 1e-12


def test_fixed_point_constant_matrix():
    sol = solve_fixed_point(CONST, tol=1e-12)
    np.testing.assert_allclose(sol.gamma, [2.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(sol.profiles[0], sol.mesh, atol=1e-12)


def test_fixed_point_zero_data():
    spec = molecular([["1+u1", "0"], ["0", "1"]], (0.0, 0.0))
    sol = solve_fixed_point(spec, tol=1e-12)
    np.testing.assert_allclose(sol.gamma, [0.0, 0.0], atol=1e-14)
    assert np.max(np.abs(sol.profiles)) == 0.0


def test_fixed_point_collocation_residual_small():
    tol = 1e-10
    sol = solve_fixed_point(DIAG, n_nodes=1001, tol=tol)
    recomputed = collocation_residual(sol.mesh, sol.profiles, sol.gamma, DIAG)
    assert recomputed <= 10.0 * max(tol, 1e-11)
    assert sol.two_point_residual == recomputed


def test_fixed_point_max_iteration_error():
    with pytest.raises(MaxIterationError) as exc:
        solve_fixed_point(DIAG, tol=1e-30, max_iter=15)
    assert exc.value.last_update is not None


# --- trajectory integration ----------------------------------------------------

def test_integrate_sincos_quarter_turn():
    spec = sincos(math.pi / 2)
    mesh, prof = integrate_profiles(spec, np.array([1.0, 0.0]), 1001)
    assert prof[0, -1] == pytest.approx(1.0, abs=1e-8)   # sin(pi/2)
    assert prof[1, -1] == pytest.approx(-1.0, abs=1e-8)  # cos(pi/2) - 1


def test_integrate_zero_gamma_zero_b():
    spec = molecular([["1", "0"], ["0", "1"]], (0.0, 0.0))
    _, prof = integrate_profiles(spec, np.zeros(2), 101)
    assert np.max(np.abs(prof)) == 0.0


def test_integrate_diag_closed_form():
    _, prof = integrate_profiles(DIAG, np.array([1.5, 0.0]), 1001)
    assert prof[0, -1] == pytest.approx(1.0, abs=1e-8)


def test_integrate_n1_vanishing_coefficient():
    # a11 = 1 - p vanishes at p* = 1; |A|_F/|det A| is identically 1 for
    # n = 1, so the guard must measure a against its value at the origin
    spec = ProblemSpec.from_strings(1, [["1-p"]], b=["0"], b_next="1",
                                    u_star=(1.0,), p_star=1.0, mode="darcy")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularMatrixError):
            solve_shooting(spec, n_nodes=257)


def test_integrate_singular_on_trajectory():
    # a11 = u1 is singular at the launch point U(0) = 0
    spec = molecular([["u1", "0"], ["0", "1"]], (1.0, 0.0))
    with pytest.raises(SingularMatrixError) as exc:
        integrate_profiles(spec, np.array([1.0, 0.0]), 101)
    assert "p =" in str(exc.value)


def counting_bundle(spec):
    """Count every evaluation of the spec's compiled coefficient bundle."""
    raw, calls = spec.bundle.raw, [0]

    def counted(env):
        calls[0] += 1
        return raw(env)

    spec.bundle.raw = counted
    return calls


def test_integrate_rhs_count_independent_of_mesh():
    # the scalar_bisect equation U' = gamma (1 + U): the controller picks
    # the steps, the output mesh only where the dense output is sampled
    counts = []
    for n_nodes in (2049, 8193):
        spec = scalar_spec("1", "1+u1", 1.0)
        calls = counting_bundle(spec)
        integrate_profiles(spec, np.array([math.log(2.0)]), n_nodes)
        counts.append(calls[0])
    assert counts[0] == counts[1] < 1000


def test_integrate_singular_trajectory_rhs_bound():
    # U3' = 1/(1 - p) runs into the singular node p = 1: one-interval steps
    # are accepted whatever their error, so the controller cannot creep
    n_nodes = 257
    spec = ProblemSpec.from_strings(
        3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1-p"]], b=["0", "0", "0"],
        b_next="1", u_star=(1.0, 1.0, 1.0), p_star=2.0, mode="darcy")
    calls = counting_bundle(spec)
    with pytest.raises(SingularMatrixError, match="at p = 1 "):
        integrate_profiles(spec, np.ones(3), n_nodes)
    assert calls[0] <= 16 * (n_nodes - 1)


def test_integrate_profile_accuracy():
    # U = exp(gamma p) - 1 at every node, inside the steps too (dense output),
    # however coarse the mesh; one RK4 step per mesh interval left 6.2e-13
    spec = scalar_spec("1", "1+u1", 1.0)
    gamma = math.log(2.0)
    mesh, prof = integrate_profiles(spec, np.array([gamma]), 257)
    assert np.max(np.abs(prof[0] - np.expm1(gamma * mesh))) <= 3e-15


def test_dop853_tableau_implied_column():
    # the stages act on increments K_s - K_0, so the tableau leaves out its
    # column 0; the row sums (C for A, 1 for B, 0 for E3, E5 and D) must
    # restore the published K_0 weights of Hairer's DOP853
    import funcsol.twopoint as tp
    a0 = [0.05260015195876773, 0.0197250569845379, 0.02958758547680685, 0.2413651341592667,
          0.037037037037037035, 0.037109375, 0.03709200011850479, 0.6241109587160757,
          0.47766253643826434, -0.9371424300859873, 2.273310147516538, 0.054293734116568765,
          0.056167502283047954, 0.03183464816350214, -0.42889630158379194]
    implied = [tp._DOP_C[s] - tp._DOP_A[s].sum() for s in range(1, 16)]
    np.testing.assert_allclose(implied, a0, rtol=0, atol=1e-14)
    assert 1.0 - tp._DOP_B.sum() == pytest.approx(a0[11], abs=1e-14)
    assert -tp._DOP_E3.sum() == pytest.approx(-0.18980075407240762, abs=1e-14)
    assert -tp._DOP_E5.sum() == pytest.approx(0.01312004499419488, abs=1e-14)
    np.testing.assert_allclose(-tp._DOP_D.sum(axis=1), [-8.428938276109013, 10.427508642579134,
                               19.985053242002433, -25.69393346270375], rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec, gammas", [
    (ProblemSpec.from_strings(1, [["exp(u1)"]], b_next="1+p", u_star=(1.0,), mode="darcy"),
     np.linspace(0.5, 2.0, 31)[:, None]),
    (ProblemSpec.from_strings(2, [["1+u1^2", "0.5*u2"], ["-0.5*u2", "exp(u1)"]], b=["p", "0"],
                              b_next="2+p", u_star=(1.0, 0.5), mode="darcy"),
     np.column_stack([np.linspace(0.5, 2.0, 31), np.linspace(-1.0, 1.0, 31)])),
], ids=["n1", "n2"])
def test_filled_column_is_the_gamma_integrated_alone(spec, gammas):
    # a batch fills the mesh for the columns a caller keeps; each filled
    # column, and its endpoint, is the bytes of that gamma integrated alone
    # on the batch's steps, however wide the batch
    import funcsol.twopoint as tp
    U, steps, _, profile = tp._integrate_batch(spec, gammas, 257)
    assert len(steps) > 2
    for c in (0, 13, 30):
        alone, alone_steps, _, alone_profile = tp._integrate_batch(spec, gammas[c:c + 1], 257,
                                                                   steps)
        (mesh, prof), (alone_mesh, alone_prof) = profile(c), alone_profile(0)
        assert alone_steps == steps
        assert U[c].tobytes() == alone[0].tobytes() == prof[:, -1].tobytes()
        assert prof.tobytes() == alone_prof.tobytes()
        assert mesh.tobytes() == alone_mesh.tobytes()


# --- shooting -------------------------------------------------------------------

def test_shooting_sincos_regular():
    sol = solve_shooting(sincos(math.pi), tol=1e-10)
    assert np.max(np.abs(sol.gamma)) <= 1e-10
    assert np.max(np.abs(sol.profiles)) <= 1e-10


def test_shooting_sincos_resonant():
    with pytest.raises(SingularJacobianError) as exc:
        solve_shooting(sincos(2 * math.pi), tol=1e-10)
    assert exc.value.condition > 1e8


def test_shooting_matches_fixed_point():
    fp = solve_fixed_point(DIAG, n_nodes=1001, tol=1e-10)
    sh = solve_shooting(DIAG, n_nodes=1001, tol=1e-10)
    assert np.max(np.abs(fp.gamma - sh.gamma)) <= 1e-7
    assert np.max(np.abs(fp.profiles - sh.profiles)) <= 1e-7


@pytest.mark.parametrize("solve", [solve_fixed_point, solve_shooting])
def test_three_field_molecular_closed_form(solve):
    # (1+U1)U1' = gamma_1 integrates to U1 + U1^2/2 = gamma_1 z, so
    # gamma = (1 + 1/2, 0.5, -0.25); shooting runs the general n >= 3 solve
    spec = molecular([["1+u1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     (1.0, 0.5, -0.25))
    sol = solve(spec, n_nodes=257, tol=1e-10)
    np.testing.assert_allclose(sol.gamma, [1.5, 0.5, -0.25], atol=1e-9)


def test_three_field_darcy_singular_on_trajectory():
    # a33 = 1 - p vanishes at p = 1, a mesh node of [0, 2] with 257 nodes
    spec = ProblemSpec.from_strings(
        3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1-p"]], b=["0", "0", "0"],
        b_next="1", u_star=(1.0, 1.0, 1.0), p_star=2.0, mode="darcy")
    with pytest.raises(SingularMatrixError) as exc:
        solve_shooting(spec, n_nodes=257)
    assert "at p = 1 " in str(exc.value)


def test_shooting_stats_sum_over_batches(monkeypatch):
    import funcsol.twopoint as tp
    runs = []
    integrate = tp._integrate_batch

    def recorded(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(tp, "_integrate_batch", recorded)
    sol = tp.solve_shooting(DIAG, n_nodes=257, tol=1e-10)
    assert len(runs) == sol.stats["iterations"]
    assert sol.stats["integration_steps"] == sum(len(steps) for _, steps, _, _ in runs)
    assert sol.stats["rhs_evaluations"] == sum(calls for _, _, calls, _ in runs) > 0


def test_shooting_degenerate_origin():
    spec = ProblemSpec.from_strings(2, [["1", "1"], ["1", "1"]], u_star=(0.5, 0.5))
    with pytest.raises(DegenerateLinearizationError):
        solve_shooting(spec)


def test_shooting_tiny_well_conditioned_origin():
    """A = 1e-20 I is as well conditioned as I (kappa_F = 2). Its determinant,
    1e-40, once made the origin linearization refuse it as degenerate."""
    sol = solve_shooting(molecular([["1e-20", "0"], ["0", "1e-20"]], (0.5, 0.3)))
    np.testing.assert_allclose(sol.gamma, [0.5e-20, 0.3e-20], rtol=1e-12, atol=0)


@pytest.mark.parametrize("a, u_star", [
    ([["1", "1"], ["1", "1.0000000000001"]], (0.5, 0.5)),     # kappa_F = 4e13
    ([["u1"]], (1.0,)),                                         # a(0) = 0
])
def test_shooting_degenerate_origin_names_p0(a, u_star):
    with pytest.raises(DegenerateLinearizationError, match="singular at p = 0 "):
        solve_shooting(molecular(a, u_star))


def _diagonal(entries):
    n = len(entries)
    return molecular([[v if i == j else "0" for j in range(n)] for i, v in enumerate(entries)],
                     np.ones(n))


def _check_kappa_f_guard(n, refused):
    entries = ["1"] + ["1e-7"] * (n - 1)
    mesh, prof = integrate_profiles(_diagonal(entries), np.array(entries, dtype=float), 65)
    np.testing.assert_allclose(prof, np.tile(mesh, (n, 1)), rtol=0, atol=1e-15)
    with pytest.raises(SingularMatrixError, match=f"at p = 0 .*estimate {refused}"):
        integrate_profiles(_diagonal(["1"] * (n - 1) + ["1e-13"]), np.ones(n), 65)


def test_integrate_guard_is_kappa_f_for_n2():
    """diag(1, 1e-7) has kappa_F = 1e7 and integrates; diag(1, 1e-13) has
    kappa_F = 1e13 and is refused."""
    _check_kappa_f_guard(2, "1.000e\\+13")


def test_integrate_guard_is_kappa_f_for_n3():
    """diag(1, 1e-7, 1e-7) has kappa_F = 1.4e7 and integrates; the coarser
    |A|_F^3 / |det A| = 1e14 refused it. diag(1, 1, 1e-13) has kappa_F = 1.4e13."""
    _check_kappa_f_guard(3, "1.414e\\+13")


@pytest.mark.parametrize("n", [2, 3])
def test_integrate_exactly_singular_node_of_large_entries(n):
    """A = 1e5 [[1, 1], [1, 2 - p]] is singular at p = 1, where the second
    profile blows up. The 2x2 closed form once overflowed |A|_F^2 / 1e-300
    there into an EvalDomainError; n = 3 adds a decoupled third equation."""
    a = [["1e5", "1e5", "0"], ["1e5", "1e5*(2-p)", "0"], ["0", "0", "1"]]
    spec = ProblemSpec.from_strings(n, [row[:n] for row in a[:n]], b_next="1",
                                    u_star=np.ones(n), p_star=2.0, mode="darcy")
    with pytest.raises(SingularMatrixError, match="at p = 1 .*estimate inf"):
        integrate_profiles(spec, np.array([1.0, 2.0, 1.0][:n]), 257)


def test_shooting_max_iteration_error():
    with pytest.raises(MaxIterationError):
        solve_shooting(DIAG, n_nodes=257, tol=1e-12, max_iter=1)


@pytest.mark.parametrize("a, u_star, gamma", [
    ([["1+2*u1", "0"], ["0", "1"]], (1.0, 0.0), (2.0, 0.0)),
    # U2 = z, so U1' + 2 U1 = gamma1
    ([["1", "2*u1"], ["0", "1"]], (0.9, 1.0), (1.8 / -math.expm1(-2.0), 1.0)),
])
def test_fixed_point_solves_where_a_fails_off_the_solution(a, u_star, gamma):
    """At u1 = -0.5, which the solution never reaches, 1 + 2 u1 vanishes and
    the symmetrized [[1, 2 u1], [0, 1]], eigenvalues 1 -+ u1, is indefinite."""
    spec = molecular(a, u_star)
    for sol in (solve_fixed_point(spec, n_nodes=1025), solve_shooting(spec, n_nodes=1025)):
        np.testing.assert_allclose(sol.gamma, gamma, rtol=1e-9, atol=1e-9)


def test_fixed_point_requires_ellipticity():
    spec = molecular([["u1", "0"], ["0", "1"]], (1.0, 0.0))
    with pytest.raises(NonEllipticError):
        solve_fixed_point(spec)


def test_shooting_map_determinant():
    for p_star in (math.pi / 2, math.pi, 1.5 * math.pi):
        J = shooting_jacobian(sincos(p_star), np.zeros(2), 1001)[0]
        expected = 2.0 * (1.0 - math.cos(p_star))
        assert np.linalg.det(J) == pytest.approx(expected, abs=1e-8)


def test_collocation_mesh_convergence_sincos():
    # nontrivial data so the residual does not vanish identically
    spec = ProblemSpec.from_strings(
        2, [["1", "0"], ["0", "1"]], b=["-u2", "u1"], b_next="1",
        u_star=(1.0, 0.5), p_star=math.pi, mode="darcy")
    res = []
    for n in (129, 257):
        sol = solve_shooting(spec, n_nodes=n, tol=1e-12)
        res.append(sol.two_point_residual)
    assert 12.0 <= res[0] / res[1] <= 20.0


# --- scalar bisection -----------------------------------------------------------

def scalar_spec(a, b, u_star, p_star=1.0):
    return ProblemSpec.from_strings(1, [[a]], b=[b], u_star=(u_star,),
                                    p_star=p_star, mode="scalar")


def test_scalar_unit_f():
    sol = solve_scalar(scalar_spec("2+u1^2+p^2", "2+u1^2+p^2", 2.0), tol=1e-10)
    assert sol.gamma[0] == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(sol.profiles[0], 2.0 * sol.mesh, atol=1e-9)


def test_scalar_exponential():
    sol = solve_scalar(scalar_spec("exp(u1)", "1", 1.0), tol=1e-10)
    assert sol.gamma[0] == pytest.approx(math.e - 1.0, abs=1e-8)


def test_scalar_zero_target():
    sol = solve_scalar(scalar_spec("exp(u1)", "1", 0.0), tol=1e-10)
    assert sol.gamma[0] == 0.0
    assert np.max(np.abs(sol.profiles)) == 0.0


def test_scalar_bracket_hints_contain_gamma():
    # r = exp(-u*) <= F = exp(-u) <= 1 = q on the trajectory
    sol = solve_scalar(scalar_spec("exp(u1)", "1", 1.0),
                       bracket_hints=(math.exp(-1.0), 1.0), tol=1e-10)
    assert 1.0 <= sol.gamma[0] <= math.e
    assert sol.gamma[0] == pytest.approx(math.e - 1.0, abs=1e-8)


def test_scalar_negative_target():
    # F = 1/(1+u^2) stays positive for negative u as well
    sol = solve_scalar(scalar_spec("1+u1^2", "1", -1.0), tol=1e-10)
    assert sol.boundary_error <= 1e-10
    assert sol.gamma[0] < 0.0


def test_scalar_non_positive_f():
    with pytest.raises(NonPositiveFError, match="it is -1 at u1 = 0, p = 0"):
        solve_scalar(scalar_spec("1+u1^2", "-1", 1.0))


@pytest.mark.parametrize("hints", [None, (0.1, 1.0)])
def test_scalar_f_checked_along_the_solution(hints):
    # F = 1 - 1.5 p is 1 at the launch point and -0.5 at p* on the winner's
    # trajectory; U(p*) = gamma/4 still increases in gamma
    with pytest.raises(NonPositiveFError):
        solve_scalar(scalar_spec("1", "1-1.5*p", 1.0), bracket_hints=hints)


@pytest.mark.parametrize("a, u_star, gamma", [
    ("1+2*u1", 1.0, 2.0), ("1+2*u1", 4.0, 20.0),
    ("1/(1+2*u1)", 1.0, 0.5 * math.log(3.0)), ("1/(1+2*u1)", 4.0, 0.5 * math.log(9.0)),
])
def test_scalar_solves_where_a_fails_off_the_trajectory(a, u_star, gamma):
    """a vanishes or has a pole at u1 = -0.5, which no trajectory from
    U(0) = 0 toward u* > 0 reaches; gamma = int_0^u* a."""
    sol = solve_scalar(scalar_spec(a, "1", u_star), n_nodes=1025, tol=1e-10)
    assert abs(sol.gamma[0] - gamma) <= 1e-9 * gamma


def test_scalar_bracket_failure(monkeypatch):
    # a bounded endpoint map can never straddle an out-of-range target;
    # the expansion must give up when its next bracket end would not be finite
    import funcsol.twopoint as tp
    calls = []

    def bounded_endpoint(spec, gammas, n_nodes, steps=None, tol=None):
        calls.extend(np.ravel(gammas).tolist())
        return np.arctan(np.asarray(gammas, dtype=float)), (n_nodes - 1,), 0, None

    monkeypatch.setattr(tp, "_integrate_batch", bounded_endpoint)
    with pytest.raises(BracketFailureError):
        tp.solve_scalar(scalar_spec("1+u1^2", "1", 2.0), n_nodes=65)
    assert len(calls) > 60


def test_scalar_unhinted_bracket_grows_past_60_doublings():
    # gamma = 1/(1e-30 (e - 1)) = 5.8e29 lies about 99 doublings from 0
    sol = solve_scalar(scalar_spec("1", "1e-30*exp(p)", 1.0), n_nodes=65)
    assert sol.gamma[0] == pytest.approx(1.0 / (1e-30 * math.expm1(1.0)), rel=1e-9)


@pytest.mark.parametrize("b_next, u_star, gamma", [
    ("1e-60+p", 1.0, 2.0),
    ("1e-12+p*exp(u1)", 0.1, 0.19032516392771),
], ids=["f-rises-from-1e-60", "f-blows-up-at-gamma-2"])
def test_scalar_unhinted_bracket_ignores_the_launch_f(b_next, u_star, gamma):
    """F(0, 0) is tiny beside F along the trajectory, so the origin guess
    u*/(p* F(0, 0)) overshoots the root by 1e11 or more: started there, the
    first case runs out of passes and the second's blown-up column fails its
    batch. Steps of u*/p* bracket both within two doublings."""
    sol = solve_scalar(scalar_spec("1", b_next, u_star), n_nodes=65)
    assert sol.gamma[0] == pytest.approx(gamma, rel=1e-9)
    assert sol.stats["iterations"] <= 5


def test_scalar_unhinted_bracket_below_the_float_range():
    # u*/p* = 1e-330 underflows to 0, yet u* is not within tol of U(p*; 0):
    # the growth steps from the smallest positive gamma instead of standing
    # still, and the unrepresentable root ends the k-section with a typed error
    spec = ProblemSpec.from_strings(1, [["1"]], b=["1"], u_star=(1e-300,), p_star=1e30,
                                    mode="scalar")
    with pytest.raises(MaxIterationError):
        solve_scalar(spec, n_nodes=65, tol=1e-320)


def test_scalar_unhinted_expansion_hits_root():
    # F = 1, so the first expansion endpoint gamma = u*/p* = 2 is the root
    # exactly; it must be accepted rather than expanded past
    sol = solve_scalar(scalar_spec("1+u1^2+p^2", "1+u1^2+p^2", 2.0), n_nodes=257, tol=1e-11)
    assert sol.gamma[0] == 2.0


def test_scalar_ksection_passes():
    # the hint bracket's batch carries the first uniform pass, and the pass
    # aimed through its twelve endpoints nearest the root has a spacing of
    # about tol in U: from width e - 1 to 1e-10 in 2 integrations
    sol = solve_scalar(scalar_spec("exp(u1)", "1", 1.0),
                       bracket_hints=(math.exp(-1.0), 1.0), n_nodes=257, tol=1e-10)
    assert sol.stats["iterations"] == 2
    assert sol.stats["endpoint_evaluations"] == sol.stats["monotone_samples"] >= 6
    assert sol.boundary_error <= 1e-10


# a11 and its integral from 0, per c
SWEEP_A = {"exp(-{c}*u1)": lambda c, u: -math.expm1(-c * u) / c,
           "1+{c}*u1": lambda c, u: u + 0.5 * c * u * u,
           "1/(1+{c}*u1)": lambda c, u: math.log1p(c * u) / c}


def test_scalar_ksection_solves_the_closed_form_sweep():
    """Darcy n = 1 with b absent and p* = 1 gives int_0^u* a11 = gamma
    int_0^1 b_next in closed form. Of the 72 problems of this grid, the 15
    exp(-c u1) cases with c u* >= 2 (b_next = 1) or c u* >= 1 (b_next =
    exp(p)) are left out: their first trajectory blows up before p*. The
    other 57 solve to a relative gamma error of at most 6.5e-11, in fewer
    than 218 integrations in all."""
    solved = runs = 0
    for a, c, u_star, b_next in itertools.product(SWEEP_A, (0.5, 1.0, 2.0),
                                                  (0.5, 1.0, 2.0, 4.0), ("1", "exp(p)")):
        if a.startswith("exp") and c * u_star >= (2.0 if b_next == "1" else 1.0):
            continue
        spec = ProblemSpec.from_strings(1, [[a.format(c=c)]], b_next=b_next,
                                        u_star=(u_star,), mode="darcy")
        gamma = SWEEP_A[a](c, u_star) / (1.0 if b_next == "1" else math.expm1(1.0))
        sol = solve_scalar(spec, n_nodes=1025, tol=1e-10)
        assert abs(sol.gamma[0] - gamma) <= 6.5e-11 * gamma, (a, c, u_star, b_next)
        solved, runs = solved + 1, runs + sol.stats["iterations"]
    assert solved == 57
    assert runs < 218


def test_scalar_vanishing_a_is_singular():
    # a(0) = 0: the integrator's launch guard refuses it
    with pytest.raises(SingularMatrixError, match="p = 0 "):
        solve_scalar(scalar_spec("u1", "1", 1.0))


def test_scalar_non_positive_bracket_hint():
    with pytest.raises(BracketFailureError, match="bracket hints must be positive"):
        solve_scalar(scalar_spec("1+u1^2", "1", 1.0), bracket_hints=(-1.0, 1.0))


@pytest.mark.parametrize("hints", [(math.nan, 1.0), (1.0, math.nan)], ids=["r", "q"])
def test_scalar_nan_bracket_hint(monkeypatch, hints):
    """A NaN hint is refused as not positive, before any integration."""
    import funcsol.twopoint as tp
    monkeypatch.setattr(tp, "_integrate_batch", None)
    with pytest.raises(BracketFailureError, match="^bracket hints must be positive integrals$"):
        tp.solve_scalar(scalar_spec("1+u1^2", "1", 1.0), bracket_hints=hints)


def test_shooting_b_next_vanishing_at_the_origin():
    spec = ProblemSpec.from_strings(1, [["1"]], b_next="p", u_star=(1.0,), mode="darcy")
    with pytest.raises(DegenerateLinearizationError,
                       match=r"origin value of b_next \(0\.000e\+00\) is degenerate"):
        solve_shooting(spec)


@pytest.mark.parametrize("scale", ["1e-15", "1e-30", "1e-200"])
def test_shooting_tiny_b_next_at_the_origin(scale):
    """A small b_next is a scale, not a degeneracy: U' = gamma * scale * e^p
    gives gamma = 1 / (scale * (e - 1))."""
    spec = ProblemSpec.from_strings(1, [["1"]], b_next=f"{scale}*exp(p)", u_star=(1.0,),
                                    mode="darcy")
    exact = 1.0 / (float(scale) * (math.e - 1.0))
    assert solve_shooting(spec).gamma[0] == pytest.approx(exact, rel=1e-9, abs=0)


def test_shooting_b_next_overflowing_gamma0():
    spec = ProblemSpec.from_strings(1, [["1"]], b_next="1e-310", u_star=(1.0,), mode="darcy")
    with pytest.raises(DegenerateLinearizationError,
                       match=r"origin value of b_next \(1\.000e-310\) is degenerate"):
        solve_shooting(spec)


@pytest.mark.parametrize("spec, backend", [
    (DIAG, "fixed_point"),
    (DIAG, "shooting"),
    (scalar_spec("1+u1^2", "1", 1.0), "scalar_bisection"),
])
def test_even_node_count_is_kept(spec, backend):
    sol = solve_two_point(spec, backend, 1000, 1e-10)
    assert sol.mesh.size == sol.profiles.shape[1] == 1000
    assert sol.boundary_error <= 1e-10


def test_solve_two_point_unknown_backend():
    with pytest.raises(ValueError, match="unknown two-point backend 'nope'"):
        solve_two_point(DIAG, "nope", 65, 1e-10)


def test_scalar_ksection_pass_budget():
    # max_iter counts halvings; 5 of them buy a single 32-fold pass
    with pytest.raises(MaxIterationError):
        solve_scalar(scalar_spec("exp(u1)", "1", 1.0), n_nodes=65, tol=1e-10, max_iter=5)


@pytest.mark.parametrize("u_star,solvable", [(0.25, True), (0.7, False)])
def test_scalar_tol_below_roundoff(u_star, solvable, monkeypatch):
    # below the endpoint map's rounding noise, candidates a few ulps apart
    # tie or swap: an exact hit is accepted, otherwise the bracket stalls
    import funcsol.twopoint as tp
    spec = scalar_spec("exp(u1)", "1", u_star)
    if solvable:
        # which targets the map hits exactly is an accident of its rounding;
        # the integrator's discrete map at 65 nodes hits u* = 0.25
        assert solve_scalar(spec, n_nodes=65, tol=1e-30).boundary_error == 0.0
    else:
        # so stall on a strictly increasing map that steps over u*
        def stepped_endpoints(spec, gammas, n_nodes, steps=None, tol=None):
            g = np.asarray(gammas, dtype=float)
            return np.where(g < u_star, g, g + 1e-9), (n_nodes - 1,), 0, None

        monkeypatch.setattr(tp, "_integrate_batch", stepped_endpoints)
        with pytest.raises(MaxIterationError, match="stopped shrinking"):
            tp.solve_scalar(spec, n_nodes=65, tol=1e-30)


def test_scalar_monotone_endpoint_map():
    from funcsol.twopoint import _integrate_batch
    spec = scalar_spec("exp(u1)", "1", 1.0)
    gammas = np.linspace(0.1, 3.0, 6)
    ends = _integrate_batch(spec, gammas[:, None], 257)[0][:, 0]
    assert all(a < b for a, b in zip(ends, ends[1:]))


def hinted_scalar_batches(monkeypatch):
    """A hinted solve_scalar of F = 1 + U (r = 1, q = 1 + u*), with the
    gammas, the ``steps`` argument and the result of every batch it ran."""
    import funcsol.twopoint as tp
    batches = []
    integrate = tp._integrate_batch

    def recorded(spec, gammas, n_nodes, steps=None, tol=None):
        out = integrate(spec, gammas, n_nodes, steps, tol)
        batches.append((np.ravel(gammas).tolist(), steps, out))
        return out

    monkeypatch.setattr(tp, "_integrate_batch", recorded)
    spec = scalar_spec("1", "1+u1", 1.0)
    sol = tp.solve_scalar(spec, bracket_hints=(1.0, 2.0), n_nodes=2049, tol=1e-11)
    monkeypatch.undo()
    return spec, sol, batches


def test_scalar_integrates_each_gamma_once(monkeypatch):
    # the bracket ends share one batch with the first uniform pass's
    # KSECTION_WIDTH candidates, the one later pass adds KSECTION_WIDTH new
    # ones aimed at the root, and the profile is the winner's
    # trajectory from its pass: a rerun of the winner alone on the solve's
    # frozen steps gives its bytes
    import funcsol.twopoint as tp
    spec, sol, batches = hinted_scalar_batches(monkeypatch)
    seen = [gam for gams, _, _ in batches for gam in gams]
    assert len(seen) == len(set(seen))
    assert sol.stats["iterations"] == len(batches)
    width = tp.KSECTION_WIDTH
    assert [len(gams) for gams, _, _ in batches] == [width + 2, width]
    assert sol.boundary_error <= 1e-11
    # U(p*) = exp(gamma) - 1 = 1 at gamma = ln 2
    assert abs(sol.gamma[0] - math.log(2.0)) <= 4 * math.ulp(math.log(2.0))
    frozen = batches[-1][1]
    rerun = tp._integrate_batch(spec, sol.gamma[None, :], 2049, frozen)[3](0)[1]
    assert rerun.tobytes() == sol.profiles.tobytes()


def test_scalar_missed_window_is_followed_by_a_uniform_pass(monkeypatch):
    # a window that excludes the root still shrinks the bracket to the side
    # beside it, and the pass after the miss spreads its candidates evenly
    # over the whole bracket again; the solve still reaches tol. The
    # bracket's batch carries the first uniform pass
    import funcsol.twopoint as tp
    root, windows, passes = math.log(2.0), [], []

    def missing_window(gammas, ends, u_star, tol, lo, hi):
        w = hi - lo
        windows.append((lo + w / 8, lo + w / 4) if root > lo + w / 2 else (hi - w / 4, hi - w / 8))
        assert not windows[-1][0] <= root <= windows[-1][1]
        return windows[-1]

    integrate = tp._integrate_batch

    def recorded(spec, gammas, n_nodes, steps=None, tol=None):
        passes.append(np.ravel(gammas).tolist())
        return integrate(spec, gammas, n_nodes, steps, tol)

    monkeypatch.setattr(tp, "_aimed_window", missing_window)
    monkeypatch.setattr(tp, "_integrate_batch", recorded)
    sol = tp.solve_scalar(scalar_spec("1", "1+u1", 1.0), bracket_hints=(1.0, 2.0),
                          n_nodes=2049, tol=1e-11)
    aimed = [any(gams == np.linspace(a, b, tp.KSECTION_WIDTH).tolist() for a, b in windows)
             for gams in passes]
    assert len(windows) >= 2
    assert aimed == [k % 2 == 1 for k in range(len(aimed))]
    assert sol.boundary_error <= 1e-11
    assert abs(sol.gamma[0] - root) <= 1e-11


def test_scalar_aim_through_twelve_samples_meets_the_tol_floor():
    # U = exp(gamma) - 1 reaches u* = 1 at gamma = ln 2. The inverse
    # polynomial through the 12 samples nearest it, 6 on each side, errs far
    # below tol, so the window's half-width is the floor of 16 tol in U over
    # the straddling pair's slope; the cubic through the nearest 4 is wider
    from funcsol.twopoint import _aimed_window
    gammas = np.linspace(0.5, 1.0, 33)
    ends = np.expm1(gammas)
    k = int(np.searchsorted(ends, 1.0))
    assert ends[k - 1] < 1.0 < ends[k]
    tol = 1e-10
    floor = 16.0 * tol * (gammas[k] - gammas[k - 1]) / (ends[k] - ends[k - 1])

    def window(samples):
        near = slice(k - samples // 2, k + samples // 2)
        return _aimed_window(gammas[near].tolist(), ends[near].tolist(), 1.0, tol, 0.5, 1.0)

    a, b = window(12)
    assert a < math.log(2.0) < b
    assert (b - a) / 2.0 == pytest.approx(floor, rel=1e-6)
    a4, b4 = window(4)
    assert a4 < math.log(2.0) < b4
    assert b4 - a4 > 10.0 * (b - a)


@pytest.mark.parametrize("below", [2, 29], ids=["low_end", "high_end"])
def test_scalar_aim_near_a_pass_end_shifts_its_samples_inward(below, monkeypatch):
    # hints whose bracket puts the root ln 2 of U' = gamma (1 + U) halfway
    # between nodes ``below`` and ``below + 1`` of the first pass, within 6
    # nodes of one end: the aim takes that end's 12 nodes, and still lands
    # within tol, so the solve takes the bracket's batch and one aimed pass
    import funcsol.twopoint as tp
    width, root, spacing = tp.KSECTION_WIDTH, math.log(2.0), 1.0 / 64.0
    lo = root - (below + 0.5) * spacing
    hints = (1.0 / (lo + (width + 1) * spacing), 1.0 / lo)
    samples, batches = [], []
    aim, integrate = tp._aimed_window, tp._integrate_batch

    def recorded_aim(gammas, ends, u_star, tol, lo, hi):
        samples.append(gammas)
        return aim(gammas, ends, u_star, tol, lo, hi)

    def recorded(spec, gammas, n_nodes, steps=None, tol=None):
        batches.append(np.ravel(gammas).tolist())
        return integrate(spec, gammas, n_nodes, steps, tol)

    monkeypatch.setattr(tp, "_aimed_window", recorded_aim)
    monkeypatch.setattr(tp, "_integrate_batch", recorded)
    sol = tp.solve_scalar(scalar_spec("1", "1+u1", 1.0), bracket_hints=hints, n_nodes=257,
                          tol=1e-11)
    first = np.linspace(*sorted(1.0 / np.array(hints)), width + 2).tolist()
    assert batches[0] == first
    assert first[below] < root < first[below + 1]
    assert samples == [first[:tp.AIM_SAMPLES] if below < width // 2
                       else first[-tp.AIM_SAMPLES:]]
    assert [len(gams) for gams in batches] == [width + 2, width]
    assert sol.boundary_error <= 1e-11
    assert abs(sol.gamma[0] - root) <= 1e-11


@pytest.mark.parametrize("ends", [[0.0, 0.0, 2.0, 3.0], [0.0, 1.0, 2.0, math.inf]],
                         ids=["tied", "infinite"])
def test_scalar_degenerate_samples_give_no_window(ends):
    # a tie or an infinite endpoint gives no aimed window, so the pass stays
    # uniform, and raises nothing on the way
    from funcsol.twopoint import _aimed_window
    a, b = _aimed_window([0.0, 1.0, 2.0, 3.0], ends, 1.5, 1e-10, 1.0, 2.0)
    assert not a < b


def test_scalar_endpoints_share_one_step_sequence(monkeypatch):
    # the bracket ends' batch runs the controller; every later batch (the
    # k-section passes, the monotonicity witness) replays its steps
    spec, sol, batches = hinted_scalar_batches(monkeypatch)
    (_, steps, (_, first, _, _)), later = batches[0], batches[1:]
    assert steps is None and later
    assert all(steps == first and ends == first for _, steps, (_, ends, _, _) in later)
    assert sol.stats["integration_steps"] == len(first) * len(batches)
    assert sol.stats["rhs_evaluations"] == sum(out[2] for _, _, out in batches)


@pytest.mark.parametrize("hints", [(4.0, 8.0), (0.25, 0.5)], ids=["below", "above"])
def test_scalar_wrong_hints_grow_the_bracket(hints, monkeypatch):
    # hints whose bracket, [1/8, 1/4] or [2, 4], misses the root ln 2 of
    # U' = gamma (1 + U): the bracket grows until its ends straddle u*, each
    # bracket's batch carrying its first pass, and the solve reaches tol
    import funcsol.twopoint as tp
    batches = []
    integrate = tp._integrate_batch

    def recorded(spec, gammas, n_nodes, steps=None, tol=None):
        batches.append((np.ravel(gammas).tolist(), steps))
        return integrate(spec, gammas, n_nodes, steps, tol)

    monkeypatch.setattr(tp, "_integrate_batch", recorded)
    sol = tp.solve_scalar(scalar_spec("1", "1+u1", 1.0), bracket_hints=hints, n_nodes=257,
                          tol=1e-11)
    lo, hi = sorted((1.0 / hints[1], 1.0 / hints[0]))
    assert batches[0] == (np.linspace(lo, hi, tp.KSECTION_WIDTH + 2).tolist(), None)
    grown = [gams for gams, steps in batches if steps is None]
    assert len(grown) >= 2
    assert all(len(gams) == tp.KSECTION_WIDTH + 2 for gams in grown)
    assert grown[-1][0] < math.log(2.0) < grown[-1][-1]
    assert sol.boundary_error <= 1e-11
    assert abs(sol.gamma[0] - math.log(2.0)) <= 1e-11


# --- the scalar spelling is darcy with n = 1 ----------------------------------

def test_scalar_spelling_lowers_to_darcy():
    spec = scalar_spec("1+u1^2+p^2", "2+p", 1.0)
    assert (spec.mode, spec.b) == ("darcy", None)
    assert render(spec.b_next) == "2.0+p"


def test_repr_of_a_spec_with_a_long_coefficient():
    a11 = "1" + "+u1^2" * 2000
    spec = ProblemSpec.from_strings(1, [[a11]], u_star=(1.0,))
    assert repr(spec).count("('var', 'u1')") == 2000


def test_scalar_spelling_rejects_b_next():
    # the two-point problem would use b1 and the pressure law b_next
    with pytest.raises(ValueError, match="b_next"):
        ProblemSpec.from_strings(1, [["1"]], b=["1+u1"], b_next="1", u_star=(1.0,),
                                 mode="scalar")


def test_scalar_spelling_matches_hand_written_darcy():
    spelled = scalar_spec("1+u1*p", "2+p", 1.0)
    darcy = ProblemSpec.from_strings(1, [["1+u1*p"]], b_next="2+p", u_star=(1.0,),
                                     mode="darcy")
    a = solve_scalar(spelled, n_nodes=257, tol=1e-11)
    b = solve_scalar(darcy, n_nodes=257, tol=1e-11)
    assert a.gamma.tobytes() == b.gamma.tobytes()
    assert a.profiles.tobytes() == b.profiles.tobytes()


def test_shooting_solves_lowered_thm44():
    # F = b/a = 1, so U = 2p and gamma = 2 in closed form
    from funcsol.oracles import get_oracle
    sol = solve_shooting(get_oracle("thm44_scalar").spec, n_nodes=257, tol=1e-11)
    assert abs(sol.gamma[0] - 2.0) <= 1e-8


@pytest.mark.parametrize("spec", [
    sincos(1.0),
    ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next="1", u_star=(1.0,), mode="darcy"),
    molecular([["1+u1", "0"], ["0", "1"]], (1.0, 0.0)),
])
def test_solve_scalar_needs_n1_darcy_without_b(spec):
    with pytest.raises(ValueError):
        solve_scalar(spec)


def test_integrate_overflow_is_typed():
    # gamma*b_next overflows in the right-hand side, not in a coefficient
    spec = ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next="1e308",
                                    u_star=(1.0,), mode="darcy")
    with pytest.raises(EvalDomainError, match="floating point range"):
        integrate_profiles(spec, np.array([10.0]), 65)


def test_integrate_names_failing_coefficient():
    # U = -log(1 - 2p) blows up at p = 1/2, where exp(u1) overflows
    spec = ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next="exp(u1)",
                                    u_star=(1.0,), mode="darcy")
    with pytest.raises(EvalDomainError, match="exp\\(u1\\)"):
        integrate_profiles(spec, np.array([2.0]), 257)


def test_integrate_n1_singular_launch_trips_at_once():
    # a11 = u1 vanishes at the launch point U(0) = 0: nothing to scale by
    spec = ProblemSpec.from_strings(1, [["u1"]], b_next="1", u_star=(1.0,), mode="darcy")
    with pytest.raises(SingularMatrixError, match="p = 0 "):
        integrate_profiles(spec, np.array([1.0]), 65)


def test_fixed_point_damping_halves_when_the_update_grows():
    """a = exp(5 u): the undamped Picard update grows, so the damping halves,
    and the iteration still reaches gamma = int_0^1 exp(5u) du."""
    sol = solve_fixed_point(molecular([["exp(5*u1)"]], (1.0,)), n_nodes=4097, tol=1e-9)
    assert sol.stats["damping_final"] == 0.25
    assert sol.gamma[0] == pytest.approx((math.exp(5.0) - 1.0) / 5.0, rel=1e-7)


def test_fixed_point_bounds_are_taken_along_the_solution():
    """U2 swings to about -0.78, beyond any fixed box around [0, u*]; m and
    M are the extreme eigenvalues of the symmetrized A along the solution."""
    spec = molecular([["1+u1^2", "0.9"], ["0.9", "1+u2^2"]], (3.0, 0.0))
    sol = solve_fixed_point(spec, n_nodes=257, tol=1e-9)
    u1, u2 = sol.profiles
    A = np.stack([np.stack([1.0 + u1**2, np.full_like(u1, 0.9)], axis=-1),
                  np.stack([np.full_like(u2, 0.9), 1.0 + u2**2], axis=-1)], axis=-2)
    eigs = np.linalg.eigvalsh(A)
    assert sol.profiles[1].min() < -0.7
    assert sol.stats["ellipticity_m"] == pytest.approx(eigs.min(), rel=1e-14)
    assert sol.stats["ellipticity_M"] == pytest.approx(eigs.max(), rel=1e-14)
    assert sol.stats["iterate_bound_ratio"] <= 1.0
    assert sol.boundary_error == 0.0


def test_fixed_point_refuses_an_iterate_past_the_operator_bound(monkeypatch):
    """sup|U| <= (M/m)|u*| holds for true ellipticity bounds; with M/m
    taken too small the solution escapes it, and the solver says so."""
    import funcsol.twopoint as tp
    monkeypatch.setattr(tp, "_ellipticity", lambda spec, mesh, profiles: (2.0, 1.0))
    with pytest.raises(FuncsolError, match="escaped the operator bound"):
        solve_fixed_point(DIAG, n_nodes=257)


def test_scalar_refuses_a_non_monotone_endpoint_map(monkeypatch):
    """F = 1 gives U(p*) = gamma. Bending the map down at gamma >= 1.45
    leaves the root gamma = 1 in place, but the monotonicity witness
    (0.5, 0.75, 1.25, 1.5 times the root) sees it fall."""
    import funcsol.twopoint as tp
    real = tp._integrate_batch

    def bent(spec, gammas, n_nodes, steps=None, tol=None):
        U, ends, calls, profile = real(spec, gammas, n_nodes, steps, tol)
        U[np.ravel(gammas) >= 1.45] *= 0.8
        return U, ends, calls, profile

    monkeypatch.setattr(tp, "_integrate_batch", bent)
    with pytest.raises(FuncsolError, match="endpoint map is not strictly increasing"):
        tp.solve_scalar(scalar_spec("1", "1", 1.0), bracket_hints=(1.0, 1.0), n_nodes=257)


# --- the integrator's tolerance follows tol -------------------------------------

# closed forms: U' = gamma (1 + U) gives gamma = log(1 + u*)/p*, and
# U' = gamma exp(p) gives gamma = u*/(exp(p*) - 1)
KSECTION_CLOSED_FORM = (scalar_spec("1", "1+u1", 1.5, 1.2), solve_scalar,
                        math.log1p(1.5) / 1.2)
SHOOTING_CLOSED_FORM = (ProblemSpec.from_strings(1, [["1"]], b_next="exp(p)", u_star=(1.0,),
                                                 mode="darcy"),
                        solve_shooting, 1.0 / math.expm1(1.0))


@pytest.mark.parametrize("spec, solve, gamma, bound", [
    # measured at 257 nodes: 2.1e-13 for the k-section, 3.4e-11 for shooting,
    # whose bound is the Newton stop's: an endpoint within tol of u*
    (*KSECTION_CLOSED_FORM, 1e-12),
    (*SHOOTING_CLOSED_FORM, 1e-10 / math.expm1(1.0)),
], ids=["ksection", "shooting"])
def test_a_looser_tol_takes_fewer_steps_within_its_gamma_bound(spec, solve, gamma, bound):
    loose, tight = solve(spec, n_nodes=257, tol=1e-10), solve(spec, n_nodes=257, tol=1e-13)
    assert loose.stats["integration_steps"] < tight.stats["integration_steps"]
    # per batch too, so that fewer Newton steps alone do not pass
    per_batch = [sol.stats["integration_steps"] / sol.stats["iterations"] for sol in (loose, tight)]
    assert per_batch[0] < per_batch[1]
    assert abs(loose.gamma[0] - gamma) <= bound
    assert abs(tight.gamma[0] - gamma) <= 1e-15


@pytest.mark.parametrize("spec, solve, gamma", [KSECTION_CLOSED_FORM, SHOOTING_CLOSED_FORM],
                         ids=["ksection", "shooting"])
def test_tol_at_or_below_1e13_integrates_at_the_floor(spec, solve, gamma):
    # tol / 100 falls to RTOL_FLOOR, the tolerance of a call without a tol,
    # so the steps, endpoints and profiles are those bytes
    import funcsol.twopoint as tp
    gammas = np.linspace(0.5, 1.5, 7)[:, None] * gamma
    U, steps, calls, profile = tp._integrate_batch(spec, gammas, 257)
    for tol in (1e-13, 1e-14, 1e-300):
        U_tol, steps_tol, calls_tol, profile_tol = tp._integrate_batch(spec, gammas, 257, tol=tol)
        assert (steps_tol, calls_tol) == (steps, calls)
        assert U_tol.tobytes() == U.tobytes()
        assert profile_tol(3)[1].tobytes() == profile(3)[1].tobytes()
    sols = [solve(spec, n_nodes=257, tol=tol) for tol in (1e-13, 1e-14)]
    assert sols[0].gamma.tobytes() == sols[1].gamma.tobytes()
    assert sols[0].profiles.tobytes() == sols[1].profiles.tobytes()
