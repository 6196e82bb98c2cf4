import numpy as np
import pytest

from funcsol import verify
from funcsol.errors import PivotConvergenceError
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.pivot import (DivergenceStencil, dirichlet_targets, pivot_residual_values,
                           pivot_values, solve_pivot)
from funcsol.twopoint import ProblemSpec, solve_fixed_point, solve_scalar, solve_shooting
from funcsol.verify import direct_coupled_solve


COUPLED_SPEC = ProblemSpec.from_strings(2, [["2+0.5*sin(u1)", "0.3+0.1*u2"],
                                             ["0.3+0.1*u2", "1.5+0.2*u1"]], u_star=(0.5, 0.3))
DARCY_SPEC = ProblemSpec.from_strings(
    2, [["2+0.5*sin(u1)", "0.3+0.1*u2"], ["0.3+0.1*u2", "1.5+0.2*u1"]],
    b=["0.2*p", "0.1"], b_next="1+0.5*p", u_star=(0.5, 0.3), p_star=1.0, mode="darcy")
SCALAR_SPEC = ProblemSpec.from_strings(1, [["1+u1"]], b=["1"], u_star=(1.0,), mode="scalar")


def unit_stencil(grid):
    return DivergenceStencil(grid, np.ones(grid.n1 - 1))


@pytest.mark.parametrize("shape", [(8, 9), (9, 8), (9,)], ids=["x-faces", "y-faces", "length"])
def test_refusals(shape):
    """The stencil takes the (n1-1,) x-faces of one column: neither a 2-D
    x- or y-face array nor a column of the wrong length."""
    g = build_rectangle(9, 9, 1.0, 1.0)
    with pytest.raises(ValueError) as info:
        DivergenceStencil(g, np.ones(shape))
    assert type(info.value) is ValueError
    assert str(info.value) == "face coefficient arrays do not match the grid"

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
    assert pivot_residual_values(g, x) <= 1e-12


def test_residual_detects_perturbation():
    g = build_rectangle(17, 17, 1.0, 1.0)
    x = g.x1[:, None] * np.ones((1, 17))
    x = x.copy()
    x[8, 8] += 0.1
    assert pivot_residual_values(g, x) > 1e-3


def test_solver_meets_requested_residual():
    g = build_annulus(17, 17, 1.0, 2.0)
    f = solve_pivot(g, 1e-10)
    assert pivot_residual_values(g, f.values) <= 1e-10
    assert f.achieved_residual <= 1e-10
    assert f.iterations == 0


def test_grid_convergence_ratio():
    errs = []
    for n in (64, 128):
        g = build_annulus(n, n, 1.0, 2.0)
        f = solve_pivot(g, 1e-9)
        errs.append(np.max(np.abs(f.values - annulus_exact(g))))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


@pytest.mark.parametrize("g", [build_rectangle(17, 17, 1.0, 1.0), build_rectangle(65, 33, 2.0, 1.0),
                               build_annulus(17, 17, 1.0, 2.0), build_annulus(33, 19, 0.3, 1.7),
                               build_annulus(65, 65, 1.0, 2.0)],
                         ids=["rectangle17", "rectangle65x33", "annulus17", "annulus33x19",
                              "annulus65"])
def test_pivot_values_solve_the_stencil(g):
    """The closed form is the unit-face stencil's solution: the elimination
    lands on its column, and every row holds one bit pattern: it is a
    read-only view of its column, as are the Dirichlet data."""
    z = pivot_values(g)
    for column in (z, solve_pivot(g, 1e-10).values, dirichlet_targets(g, 1.0)):
        assert column.shape == g.shape and column.strides[1] == 0
        assert not column.flags.writeable
    solved, iterations = unit_stencil(g).solve(dirichlet_targets(g, 1.0)[:, 0])
    assert solved.shape == (g.n1,) and iterations == 0
    assert np.max(np.abs(z[:, 0] - solved)) <= 1e-14
    bits = z.view(np.int64)
    assert np.all(bits == bits[:, :1])
    assert np.all(z[0] == 0.0) and np.all(z[-1] == 1.0)


def test_rectangle_pivot_is_the_ramp_bitwise():
    g = build_rectangle(65, 33, 2.0, 1.0)
    ramp = (g.x1 - g.x1[0]) / (g.x1[-1] - g.x1[0])
    assert solve_pivot(g, 1e-10).values.tobytes() == np.repeat(ramp[:, None], g.n2, 1).tobytes()


def test_pivot_on_an_inner_radius_whose_square_underflows():
    """The 5-point residual is taken on the equation rows alone: the inner
    arc's r^2 = 0 once divided by zero there, an error under pytest's filterwarnings."""
    piv = solve_pivot(build_annulus(9, 9, 1e-300, 1.0), 1e-10)
    assert piv.achieved_residual <= 1e-10


def test_pivot_tol_below_roundoff_raises():
    g = build_annulus(33, 33, 1.0, 2.0)
    with pytest.raises(PivotConvergenceError, match="roundoff floor") as info:
        solve_pivot(g, 1e-18)
    assert info.value.exit_code == 2


def test_direct_solve_work(monkeypatch):
    """The direct solve of the 33^2 coupled system takes 12 stencil solves
    (six Gauss-Seidel sweeps), each one elimination of no iterations."""
    iterations = []
    solve = DivergenceStencil.solve

    def counting(self, *args, **kwargs):
        values, its = solve(self, *args, **kwargs)
        iterations.append(its)
        return values, its

    grid = build_annulus(33, 33, 1.0, 2.0)
    monkeypatch.setattr(DivergenceStencil, "solve", counting)
    direct_coupled_solve(COUPLED_SPEC, grid)
    assert iterations == [0] * 12


def column_system(grid, seed):
    """Positive x-faces, Dirichlet data and a source on one column."""
    rng = np.random.default_rng(seed)
    faces = np.exp(rng.normal(size=grid.n1 - 1))
    data, source = rng.normal(size=(2, grid.n1))
    return DivergenceStencil(grid, faces), data, source


@pytest.mark.parametrize("polar", [False, True], ids=["rectangle", "annulus"])
@pytest.mark.parametrize("n1", [3, 4, 19, 129])
def test_solve_meets_the_stencil(n1, polar):
    """The elimination solves the stencil to roundoff, from one equation row
    (n1 = 3) up, and keeps the Dirichlet entries' data exactly."""
    g = build_annulus(n1, 5, 1.0, 2.0) if polar else build_rectangle(n1, 5, 2.0, 1.0)
    stencil, data, source = column_system(g, n1)
    u, iterations = stencil.solve(data, source=source)
    assert iterations == 0
    assert np.array_equal(u[[0, -1]], data[[0, -1]])
    row_size = np.max(stencil.c) / g.spacing[0] ** 2 * np.max(np.abs(u)) + np.max(np.abs(source))
    assert np.max(np.abs(stencil.apply(u) - source)[1:-1]) <= 1e-14 * row_size


@pytest.mark.parametrize("make", [lambda n2: build_rectangle(33, n2, 2.0, 1.0),
                                  lambda n2: build_annulus(33, n2, 1.0, 2.0)],
                         ids=["rectangle", "annulus"])
def test_solve_with_x2_constant_data_is_x2_constant(make):
    """Every system the direct solver poses is constant along x2, so it
    sweeps one x1 column: on grids that differ only in n2 (3, 17 and 129)
    the molecular and the darcy n = 2 systems give bitwise-equal columns,
    and the grid gains no attribute."""
    for spec in (COUPLED_SPEC, DARCY_SPEC):
        columns = []
        for n2 in (3, 17, 129):
            grid = make(n2)
            keys = set(grid.__dict__)
            fields = direct_coupled_solve(spec, grid)
            assert set(grid.__dict__) == keys
            p = [] if fields.p_field is None else [fields.p_field[:, 0]]
            columns.append(b"".join(f.tobytes() for f in [*fields.u_fields[:, :, 0], *p]))
        assert columns[1] == columns[0] and columns[2] == columns[0]


@pytest.mark.parametrize("faces, row", [
    (np.zeros(16), 1),          # no flux anywhere: the first pivot is 0
    (np.r_[np.ones(4), -1.0, np.ones(11)], 4),
    (np.r_[np.ones(4), np.nan, np.ones(11)], 4),
], ids=["zero", "negative", "nan"])
def test_solve_refuses_a_pivot_that_is_not_positive(faces, row):
    """A system that is not positive definite has a first pivot that is not
    positive and finite (NaN included): the solve names its row."""
    grid = build_rectangle(17, 3, 1.0, 1.0)
    with pytest.raises(PivotConvergenceError, match=f"pivot at row {row} is ") as info:
        DivergenceStencil(grid, faces).solve(dirichlet_targets(grid, 1.0)[:, 0])
    assert info.value.exit_code == 2


def test_direct_solve_nan_face_ends_typed(monkeypatch):
    """A NaN x-face inside the direct solve reaches the elimination's pivot
    guard and ends as PivotConvergenceError, not as NaN fields."""
    simpson_faces = verify._simpson_faces

    def poisoned(*args):
        faces = simpson_faces(*args)
        faces[0] = faces[0].copy()
        faces[0][7] = np.nan
        return faces

    monkeypatch.setattr(verify, "_simpson_faces", poisoned)
    with pytest.raises(PivotConvergenceError, match=r"pivot at row 7 is nan"):
        direct_coupled_solve(COUPLED_SPEC, build_annulus(17, 17, 1.0, 2.0))


def test_large_annulus_default_tolerance():
    """A 257^2 annulus pivot meets the default 1e-10."""
    f = solve_pivot(build_annulus(257, 257, 1.0, 2.0), 1e-10)
    assert f.achieved_residual <= 1e-10


def test_bad_tolerance():
    g = build_rectangle(5, 5, 1.0, 1.0)
    for tol in (0.0, np.nan, -1.0, np.inf):
        with pytest.raises(ValueError, match=f"^tol must be a positive finite number, got {tol}$"):
            solve_pivot(g, tol)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, 0.0])
@pytest.mark.parametrize("solve", [
    lambda tol: direct_coupled_solve(COUPLED_SPEC, build_rectangle(5, 5, 1.0, 1.0), tol),
    lambda tol: solve_fixed_point(COUPLED_SPEC, 9, tol),
    lambda tol: solve_shooting(COUPLED_SPEC, 9, tol),
    lambda tol: solve_scalar(SCALAR_SPEC, 9, tol),
], ids=["direct", "fixed_point", "shooting", "scalar"])
def test_solvers_refuse_a_bad_tolerance(solve, tol):
    """Every solver entry point refuses a tolerance that is not a positive
    finite number with one ValueError, before any work: a stopping test
    against such a target never or always passes."""
    with pytest.raises(ValueError) as info:
        solve(tol)
    assert type(info.value) is ValueError
    assert str(info.value) == f"tol must be a positive finite number, got {tol}"
