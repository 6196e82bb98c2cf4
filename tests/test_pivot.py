import numpy as np
import pytest

from funcsol.errors import PivotConvergenceError
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.pivot import DivergenceStencil, PivotField, pivot_residual, solve_pivot


def annulus_exact(grid):
    return (np.log(grid.x1) / np.log(2.0))[:, None] * np.ones((1, grid.n2))


def test_square_pivot_is_coordinate():
    g = build_rectangle(17, 17, 1.0, 1.0)
    f = solve_pivot(g, 1e-10)
    x = g.x1[:, None] * np.ones((1, 17))
    assert np.max(np.abs(f.values - x)) <= 1e-10


def test_annulus_pivot_matches_log():
    g = build_annulus(33, 33, 1.0, 2.0)
    f = solve_pivot(g, 1e-8)
    err = np.max(np.abs(f.values - annulus_exact(g)))
    assert err <= 5e-3
    # midpoint value from the analytic radial solution
    mid = np.argmin(np.abs(g.x1 - 1.5))
    assert abs(f.values[mid, 0] - np.log(1.5) / np.log(2.0)) <= 5e-3


def test_maximum_principle():
    for g in (build_rectangle(21, 17, 2.0, 1.0), build_annulus(21, 21, 1.0, 2.0)):
        f = solve_pivot(g, 1e-9)
        assert f.values.min() >= 0.0
        assert f.values.max() <= 1.0


def test_dirichlet_values_exact():
    g = build_annulus(17, 17, 1.0, 2.0)
    f = solve_pivot(g, 1e-9)
    assert np.all(f.values[0, :] == 0.0)
    assert np.all(f.values[-1, :] == 1.0)


def test_residual_of_exact_linear_field():
    g = build_rectangle(17, 17, 1.0, 1.0)
    x = g.x1[:, None] * np.ones((1, 17))
    assert pivot_residual(PivotField(g, x, 0.0, 0)) <= 1e-12


def test_residual_detects_perturbation():
    g = build_rectangle(17, 17, 1.0, 1.0)
    x = g.x1[:, None] * np.ones((1, 17))
    x = x.copy()
    x[8, 8] += 0.1
    assert pivot_residual(PivotField(g, x, 0.0, 0)) > 1e-3


def test_solver_meets_requested_residual():
    g = build_annulus(17, 17, 1.0, 2.0)
    f = solve_pivot(g, 1e-10)
    assert pivot_residual(f) <= 1e-10
    assert f.achieved_residual <= 1e-10


def test_grid_convergence_ratio():
    errs = []
    for n in (64, 128):
        g = build_annulus(n, n, 1.0, 2.0)
        f = solve_pivot(g, 1e-9)
        errs.append(np.max(np.abs(f.values - annulus_exact(g))))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_uniqueness_surrogate():
    g = build_annulus(33, 33, 1.0, 2.0)
    tol = 1e-9
    f1 = solve_pivot(g, tol, initial_guess=np.zeros(g.shape))
    f2 = solve_pivot(g, tol, initial_guess=np.ones(g.shape))
    assert np.max(np.abs(f1.values - f2.values)) <= 10.0 * tol


@pytest.mark.parametrize("n, polar, tol, max_ops", [
    # a target far below roundoff on a large annulus
    pytest.param(75, True, 1e-18, None, id="annulus75"),
    # a small system (1,023 unknowns), target below roundoff; the default
    # ramp start is exact on a rectangle, so this case starts from zero
    pytest.param(33, False, 1e-14, None, id="rectangle33"),
    # CG gives up once its residual recurrence reaches roundoff (77
    # iterations here), not at the iteration cap
    pytest.param(75, True, 1e-18, 200, id="annulus75-op-count"),
])
def test_nonconvergence_raises(n, polar, tol, max_ops, monkeypatch):
    g = build_annulus(n, n, 1.0, 2.0) if polar else build_rectangle(n, n, 1.0, 1.0)
    calls = []
    sym_op = DivergenceStencil._sym_op
    monkeypatch.setattr(DivergenceStencil, "_sym_op",
                        lambda self, v: calls.append(1) or sym_op(self, v))
    with pytest.raises(PivotConvergenceError, match="roundoff"):
        solve_pivot(g, tol, initial_guess=None if polar else np.zeros(g.shape))
    if max_ops is not None:
        assert len(calls) < max_ops


def test_bad_tolerance():
    g = build_rectangle(5, 5, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_pivot(g, 0.0)
