"""Whole-pipeline integration checks on a fully coupled nonlinear system.

The registered oracles are diagonal or linear in structure; this system
exercises the off-diagonal paths end to end: cross-coupled symmetric
coefficients through both two-point backends, composition, every
verification diagnostic, and the direct solver's molecular branch with
off-diagonal flux sources.
"""

import copy
import pathlib

import numpy as np
import pytest

from funcsol.config import load_config
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.oracles import CaseResult, SuiteReport, get_oracle
from funcsol.pivot import DivergenceStencil, solve_pivot
from funcsol.reconstruct import compose_fields
from funcsol.twopoint import ProblemSpec, collocation_defect, solve_fixed_point, solve_shooting
from funcsol.verify import (
    compare_fields,
    direct_coupled_solve,
    divergence_residual,
    theta_linearity,
)

COUPLED = ProblemSpec.from_strings(
    2,
    [["2+0.5*sin(u1)", "0.3+0.1*u2"],
     ["0.3+0.1*u2", "1.5+0.2*u1"]],
    u_star=(0.5, 0.3),
)


@pytest.fixture(scope="module")
def fp_solution():
    return solve_fixed_point(COUPLED, n_nodes=1001, tol=1e-11)


def test_backends_agree_on_coupled_system(fp_solution):
    sh = solve_shooting(COUPLED, n_nodes=1001, tol=1e-11)
    assert np.max(np.abs(fp_solution.gamma - sh.gamma)) <= 1e-8
    assert np.max(np.abs(fp_solution.profiles - sh.profiles)) <= 1e-8


def test_coupled_diagnostics(fp_solution):
    assert fp_solution.two_point_residual <= 1e-10
    assert fp_solution.boundary_error == 0.0
    assert fp_solution.stats["iterate_bound_ratio"] <= 1.0
    assert np.max(theta_linearity(fp_solution, COUPLED)) <= 1e-9


def test_theta_and_two_point_residual_read_one_defect(fp_solution):
    # theta_i - gamma_i z is the running integral of the two-point defect,
    # whose interior maximum is the two-point residual
    mesh = fp_solution.mesh
    d = collocation_defect(mesh, fp_solution.profiles, fp_solution.gamma, COUPLED)
    assert d.shape == (COUPLED.n, mesh.size - 1)
    running = (mesh[1] - mesh[0]) * np.cumsum(d, axis=-1)
    np.testing.assert_array_equal(theta_linearity(fp_solution, COUPLED),
                                  np.max(np.abs(running), axis=-1))
    assert fp_solution.two_point_residual == np.max(np.abs(d[:, 1:-1]))


def test_coupled_direct_solver_agrees(fp_solution):
    grid = build_rectangle(33, 33, 1.0, 1.0)
    piv = solve_pivot(grid, 1e-11)
    fields = compose_fields(fp_solution, piv, COUPLED)
    direct = direct_coupled_solve(COUPLED, grid, tol=1e-10)
    # the functional fields are node-exact up to profile resolution, so the
    # difference is the direct solver's own O(h^2) error, small here
    assert compare_fields(fields, direct)["linf"] <= 1e-6


@pytest.mark.parametrize("polar", [False, True], ids=["rectangle", "annulus"])
def test_direct_solver_linear_solve_work(polar, monkeypatch):
    """The direct solve of the 33^2 coupled system takes 12 stencil solves on
    the rectangle and on the annulus (six Gauss-Seidel sweeps), each one
    elimination of no iterations."""
    grid = build_annulus(33, 33, 1.0, 2.0) if polar else build_rectangle(33, 33, 1.0, 1.0)
    iterations = []
    solve = DivergenceStencil.solve

    def counted(self, *args, **kwargs):
        values, its = solve(self, *args, **kwargs)
        iterations.append(its)
        return values, its

    monkeypatch.setattr(DivergenceStencil, "solve", counted)
    direct_coupled_solve(COUPLED, grid)
    assert iterations == [0] * 12


def test_coupled_residual_refinement():
    # profile mesh fine enough that interpolation wiggle (h_profile^2,
    # amplified by 1/h^2 in the stencil) stays below the h^2 truncation
    sol = solve_fixed_point(COUPLED, n_nodes=32769, tol=1e-12)
    linfs = []
    for n in (33, 65):
        grid = build_rectangle(n, n, 1.0, 1.0)
        piv = solve_pivot(grid, 1e-11)
        rep = divergence_residual(compose_fields(sol, piv, COUPLED), COUPLED, grid)
        linfs.append(max(rep.per_equation_linf))
    assert 3.0 <= linfs[0] / linfs[1] <= 5.0


IDENTITY_COMPARED = ["Grid", "PivotField", "ProfileSolution", "FieldSet", "ProblemSpec",
                     "ProblemConfig", "OracleCase", "CaseResult", "SuiteReport"]


@pytest.fixture(scope="module")
def identity_compared():
    """One instance of each data class that holds numpy arrays, or holds such
    a class."""
    grid = build_annulus(9, 7, 1.0, 2.0)
    pivot = solve_pivot(grid, 1e-10)
    sol = solve_fixed_point(COUPLED, n_nodes=9, tol=1e-8)
    fields = compose_fields(sol, pivot, COUPLED)
    case = CaseResult(name="case", passed=True, checks=[], pivot=pivot, fields=fields)
    return dict(zip(IDENTITY_COMPARED, [
        grid, pivot, sol, fields, COUPLED,
        load_config(pathlib.Path(__file__).parent / "data" / "darcy_annulus_coupled.ini"),
        get_oracle("kirchhoff_exp"), case, SuiteReport(grid_size=9, results=[case]),
    ]))


@pytest.mark.parametrize("name", IDENTITY_COMPARED)
def test_data_classes_compare_by_identity(identity_compared, name):
    """An instance equals itself alone: a deep copy compares unequal instead
    of raising numpy's ambiguous truth value, and every instance hashes."""
    a = identity_compared[name]
    other = copy.deepcopy(a)
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != other and not a == other
    assert a in {a} and other not in {a}
