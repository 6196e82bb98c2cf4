import os
import pathlib
import subprocess
import sys
from functools import cached_property

import numpy as np
import pytest

import funcsol
from funcsol import pivot
from funcsol.errors import PivotConvergenceError
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.pivot import (DivergenceStencil, dirichlet_targets, pivot_residual_values,
                           pivot_values, solve_pivot)
from funcsol.twopoint import ProblemSpec, solve_fixed_point, solve_scalar, solve_shooting
from funcsol.verify import direct_coupled_solve


COUPLED_SPEC = ProblemSpec.from_strings(2, [["2+0.5*sin(u1)", "0.3+0.1*u2"],
                                             ["0.3+0.1*u2", "1.5+0.2*u1"]], u_star=(0.5, 0.3))
SCALAR_SPEC = ProblemSpec.from_strings(1, [["1+u1"]], b=["1"], u_star=(1.0,), mode="scalar")


def on_equation_rows(x):
    """``x`` with its Dirichlet rows, the first (gamma1) and the last (gamma3), zeroed."""
    x[[0, -1]] = 0.0
    return x


def unit_stencil(grid, face_value=1.0):
    n1, n2 = grid.shape
    return DivergenceStencil(grid, np.full((n1 - 1, n2), face_value),
                             np.full((n1, n2 - 1), face_value))



@pytest.mark.parametrize("cfx_shape, cfy_shape", [((9, 9), (9, 8)), ((8, 9), (9, 9))],
                         ids=["x-faces", "y-faces"])
def test_refusals(cfx_shape, cfy_shape):
    g = build_rectangle(9, 9, 1.0, 1.0)
    with pytest.raises(ValueError) as info:
        DivergenceStencil(g, np.ones(cfx_shape), np.ones(cfy_shape))
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


def test_grid_convergence_ratio():
    errs = []
    for n in (64, 128):
        g = build_annulus(n, n, 1.0, 2.0)
        f = solve_pivot(g, 1e-9)
        errs.append(np.max(np.abs(f.values - annulus_exact(g))))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_uniqueness_surrogate():
    """CG on the pivot's operator reaches one answer from two starts."""
    g = build_annulus(33, 33, 1.0, 2.0)
    tol = 1e-9
    bc = dirichlet_targets(g, 1.0)
    v1, _ = unit_stencil(g).solve(bc, tol=tol, x0=np.zeros(g.shape))
    v2, _ = unit_stencil(g).solve(bc, tol=tol, x0=np.ones(g.shape))
    assert np.max(np.abs(v1 - v2)) <= 10.0 * tol


@pytest.mark.parametrize("g", [build_rectangle(17, 17, 1.0, 1.0), build_rectangle(65, 33, 2.0, 1.0),
                               build_annulus(17, 17, 1.0, 2.0), build_annulus(33, 19, 0.3, 1.7),
                               build_annulus(65, 65, 1.0, 2.0)],
                         ids=["rectangle17", "rectangle65x33", "annulus17", "annulus33x19",
                              "annulus65"])
def test_pivot_values_solve_the_stencil(g):
    """The closed form is the unit-face stencil's solution: CG from a zero
    start lands on it, and every row holds one bit pattern: it is a
    read-only view of its column, as are the Dirichlet data."""
    z = pivot_values(g)
    for column in (z, solve_pivot(g, 1e-10).values, dirichlet_targets(g, 1.0)):
        assert column.shape == g.shape and column.strides[1] == 0
        assert not column.flags.writeable
    stencil = unit_stencil(g)
    cg, _ = stencil.solve(dirichlet_targets(g, 1.0), tol=stencil.residual_floor())
    assert np.max(np.abs(z - cg)) <= 1e-14
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


@pytest.mark.parametrize("n, polar, tol, max_ops", [
    # a target far below roundoff on a large annulus
    pytest.param(75, True, 1e-18, None, id="annulus75"),
    # a small system (1,023 unknowns), target below roundoff
    pytest.param(33, False, 1e-14, None, id="rectangle33"),
    # CG gives up once its residual recurrence reaches roundoff, not at the
    # iteration cap
    pytest.param(75, True, 1e-18, 200, id="annulus75-op-count"),
    # a target the residual recurrence itself cannot reach: it falls to
    # roundoff first, within a few iterations, not at a breakdown or the cap
    pytest.param(33, False, 1e-300, 20, id="rectangle33-far-below"),
])
def test_nonconvergence_raises(n, polar, tol, max_ops, monkeypatch):
    """CG on the pivot's operator, from a zero start, stops at its roundoff exit."""
    g = build_annulus(n, n, 1.0, 2.0) if polar else build_rectangle(n, n, 1.0, 1.0)
    calls = []
    sym_op = DivergenceStencil._sym_op
    monkeypatch.setattr(DivergenceStencil, "_sym_op",
                        lambda self, v: calls.append(1) or sym_op(self, v))
    with pytest.raises(PivotConvergenceError, match="roundoff"):
        unit_stencil(g).solve(dirichlet_targets(g, 1.0), tol=tol)
    if max_ops is not None:
        assert len(calls) < max_ops


def test_missed_candidate_exit_restarts_from_the_recomputed_residual():
    """On a unit rectangle the ramp is exact in binary. At a target just
    under the first recomputed residual (1.1e-13), that candidate exit
    misses; CG restarts from the recomputed residual and lands on the ramp."""
    g = build_rectangle(33, 33, 1.0, 1.0)
    values, _ = unit_stencil(g).solve(dirichlet_targets(g, 1.0), tol=1e-13)
    assert np.array_equal(values, pivot_values(g))


@pytest.mark.parametrize("polar", [False, True], ids=["rectangle", "annulus"])
@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_one_operator_application_per_cg_iteration(polar, tol, monkeypatch):
    """A converging solve applies the operator once for its first residual,
    once per CG iteration and once to confirm the recurrence's residual:
    at most iterations + 2 applications, and it meets tol."""
    g = build_annulus(33, 29, 1.0, 3.0) if polar else build_rectangle(33, 29, 2.0, 1.0)
    rng = np.random.default_rng(3)
    stencil = DivergenceStencil(g, np.exp(rng.normal(size=(g.n1 - 1, g.n2))),
                                np.exp(rng.normal(size=(g.n1, g.n2 - 1))))
    source = rng.normal(size=g.shape)
    calls = []
    metric_div = DivergenceStencil._metric_div
    monkeypatch.setattr(DivergenceStencil, "_metric_div",
                        lambda self, u: calls.append(1) or metric_div(self, u))
    values, iterations = stencil.solve(dirichlet_targets(g, 1.0), source=source, tol=tol)
    assert iterations > 3
    assert len(calls) <= iterations + 2
    monkeypatch.undo()
    residual = stencil.apply(values) - source
    assert np.max(np.abs(residual[1:-1])) <= tol


@pytest.mark.parametrize("polar", [False, True], ids=["rectangle", "annulus"])
@pytest.mark.parametrize("n1, n2", [
    (3, 3), (17, 9), (9, 23), (65, 65),
    # the blocked scan's edges: two equation rows (one block of B = 2);
    # a prime row count, so the last block is ragged (m = 17, B = 4 and
    # m = 127, B = 11); long and short rows
    (4, 9), (19, 13), (129, 129), (257, 9), (9, 257),
])
@pytest.mark.parametrize("face_value", [1.0, 2.5])
def test_fast_inverse_is_exact(n1, n2, polar, face_value):
    """The preconditioner inverts the operator of constant faces exactly.

    The diagonal scaling is exactly one on unit faces and exact for
    constant faces c != 1 too (A = c A_unit).
    """
    g = build_annulus(n1, n2, 1.0, 2.0) if polar else build_rectangle(n1, n2, 2.0, 1.0)
    stencil = unit_stencil(g, face_value)
    res = on_equation_rows(np.random.default_rng(n1 * n2).normal(size=g.shape))
    out = stencil._fast_inverse()(res, np.empty(g.shape))
    back = stencil._sym_op(out)
    assert np.all(out[[0, -1]] == 0.0)
    assert np.max(np.abs(back - res)) <= 1e-12 * np.max(np.abs(res))


def test_fast_inverse_scaled_is_symmetric():
    g = build_annulus(17, 13, 1.0, 3.0)
    rng = np.random.default_rng(7)
    cfx = np.exp(rng.normal(size=(g.n1 - 1, g.n2)))
    cfy = np.exp(rng.normal(size=(g.n1, g.n2 - 1)))
    precondition = DivergenceStencil(g, cfx, cfy)._fast_inverse()
    a, b = (on_equation_rows(rng.normal(size=g.shape)) for _ in range(2))
    ma = precondition(a, np.empty(g.shape)).copy()
    mb = precondition(b, np.empty(g.shape))
    assert abs(np.sum(ma * b) - np.sum(a * mb)) <= 1e-12 * abs(np.sum(a * mb))
    assert np.sum(a * ma) > 0.0


def test_factors_built_once_per_grid(monkeypatch):
    """The grid-only factors, the fast inverse's included, are built once per
    grid and shared by every stencil on it; each solve builds only its scale.
    The pivot builds none. The direct solve builds them once, for the caller's
    x1 nodes and the first three of its x2 nodes."""
    builds, fast_inverses = [], []
    factors = pivot._GridFactors

    class Counting(factors):
        def __init__(self, grid):
            builds.append(grid)
            super().__init__(grid)

        @cached_property
        def inverse(self):
            builds.append("inverse")
            return factors.inverse.func(self)

    fast_inverse = DivergenceStencil._fast_inverse
    monkeypatch.setattr(pivot, "_GridFactors", Counting)
    monkeypatch.setattr(DivergenceStencil, "_fast_inverse",
                        lambda self: fast_inverses.append(1) or fast_inverse(self))
    grid = build_annulus(33, 33, 1.0, 2.0)
    assert solve_pivot(grid, 1e-10).iterations == 0
    assert builds == []         # no stencil, so no CG either
    direct_coupled_solve(COUPLED_SPEC, grid)
    assert len(builds) == 2 and builds[1] == "inverse"
    narrow = builds[0]
    assert narrow.coord_system == grid.coord_system and narrow.x1 is grid.x1
    assert narrow.x2.tolist() == grid.x2[:3].tolist()
    assert "_stencil_factors" not in grid.__dict__
    assert len(fast_inverses) > 10
    other = build_annulus(33, 33, 1.0, 2.0)
    unit_stencil(other).solve(dirichlet_targets(other, 1.0))
    assert len(builds) == 4


def test_direct_solve_work(monkeypatch):
    """The direct solve of the 33^2 coupled system takes 12 stencil solves
    (six Gauss-Seidel sweeps) and 25 CG iterations in all; a less exact
    preconditioner would cost iterations here."""
    iterations = []
    solve = DivergenceStencil.solve

    def counting(self, *args, **kwargs):
        values, its = solve(self, *args, **kwargs)
        iterations.append(its)
        return values, its

    grid = build_annulus(33, 33, 1.0, 2.0)
    monkeypatch.setattr(DivergenceStencil, "solve", counting)
    direct_coupled_solve(COUPLED_SPEC, grid)
    assert (len(iterations), sum(iterations)) == (12, 25)


@pytest.mark.parametrize("make", [lambda n2: build_rectangle(33, n2, 2.0, 1.0),
                                  lambda n2: build_annulus(33, n2, 1.0, 2.0)],
                         ids=["rectangle", "annulus"])
def test_solve_with_x2_constant_data_is_x2_constant(make):
    """Faces, Dirichlet data and source constant along x2 give a solution
    constant along x2, whose column does not depend on n2: the direct solver
    runs its sweeps on three columns for this reason. Over ten seeds on
    these grids the spread along x2 measured exactly 0, and the columns at
    n2 = 17 and 129 lay within 1.5e-13 of the one at n2 = 3 (1.1e-13 for
    this seed); CG's sums round differently at each n2."""
    rng = np.random.default_rng(3)
    n1 = 33
    cfx, cfy = np.exp(rng.normal(size=(2, n1, 1)))
    data, source = rng.normal(size=(2, n1, 1))
    columns = []
    for n2 in (3, 17, 129):
        grid = make(n2)
        stencil = DivergenceStencil(grid, np.repeat(cfx[1:], n2, axis=1),
                                    np.repeat(cfy, n2 - 1, axis=1))
        u, _ = stencil.solve(np.broadcast_to(data, grid.shape),
                             source=np.repeat(source, n2, axis=1), tol=1e-10)
        assert np.max(np.abs(u - u[:, :1])) <= 1e-15
        columns.append(u[:, 0])
    assert max(np.max(np.abs(c - columns[0])) for c in columns[1:]) <= 2e-12


@pytest.mark.parametrize("polar", [False, True], ids=["rectangle", "annulus"])
def test_cached_factors_precondition_bitwise(polar):
    """M^-1 res from factors cached by earlier stencils is bitwise equal to
    M^-1 res on a freshly built grid, and applying it twice changes nothing."""
    def make():
        return build_annulus(17, 13, 1.0, 3.0) if polar else build_rectangle(17, 13, 2.0, 1.0)

    rng = np.random.default_rng(11)
    grid = make()
    cfx = np.exp(rng.normal(size=(grid.n1 - 1, grid.n2)))
    cfy = np.exp(rng.normal(size=(grid.n1, grid.n2 - 1)))
    res = on_equation_rows(rng.normal(size=grid.shape))
    first = unit_stencil(grid)
    first._fast_inverse()(res, np.empty(grid.shape))
    stencil = DivergenceStencil(grid, cfx, cfy)
    assert stencil.factors is first.factors
    precondition = stencil._fast_inverse()
    cached = precondition(res, np.empty(grid.shape)).copy()
    again = precondition(res, np.empty(grid.shape))
    fresh_grid = make()
    fresh = DivergenceStencil(fresh_grid, cfx, cfy)._fast_inverse()(
        res, np.empty(grid.shape))
    assert cached.tobytes() == fresh.tobytes() == again.tobytes()


def test_precondition_bytes_do_not_depend_on_blas_threads():
    """One preconditioner application on a 257^2 annulus writes the same
    bytes on one BLAS thread as on two (each run in its own process)."""
    src = str(pathlib.Path(funcsol.__file__).parents[1])
    code = ("import sys\n"
            "import numpy as np\n"
            "from funcsol.geometry import build_annulus\n"
            "from funcsol.pivot import DivergenceStencil\n"
            "g = build_annulus(257, 257, 1.0, 2.0)\n"
            "rng = np.random.default_rng(5)\n"
            "cfx = np.exp(rng.normal(size=(g.n1 - 1, g.n2)))\n"
            "cfy = np.exp(rng.normal(size=(g.n1, g.n2 - 1)))\n"
            "res = rng.normal(size=g.shape)\n"
            "res[[0, -1]] = 0.0\n"
            "out = DivergenceStencil(g, cfx, cfy)._fast_inverse()(res, np.empty(g.shape))\n"
            "sys.stdout.buffer.write(out.tobytes())\n")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = [
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                            "OMP_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")
    ]
    assert len(outputs[0]) == 257 * 257 * 8
    assert outputs[0] == outputs[1]


def test_large_annulus_default_tolerance():
    """A 257^2 annulus pivot meets the default 1e-10, and CG on its operator
    reaches 1e-10 in at most 3 iterations."""
    g = build_annulus(257, 257, 1.0, 2.0)
    f = solve_pivot(g, 1e-10)
    assert f.achieved_residual <= 1e-10
    _, iterations = unit_stencil(g).solve(dirichlet_targets(g, 1.0), tol=1e-10)
    assert iterations <= 3


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
