import numpy as np
import pytest

from funcsol import verify
from funcsol.errors import EvalDomainError, OuterDivergenceError, ShapeMismatchError
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.pivot import solve_pivot
from funcsol.reconstruct import FieldSet, compose_fields, darcy_reconstruct
from funcsol.twopoint import ProblemSpec, ProfileSolution, solve_scalar, solve_shooting
from funcsol.verify import (
    compare_fields,
    direct_coupled_solve,
    divergence_residual,
    theta_linearity,
)

CONST = ProblemSpec.from_strings(2, [["2", "1"], ["1", "2"]], u_star=(1.0, -0.5))
EQUAL_AB = ProblemSpec.from_strings(1, [["1+u1^2+p^2"]], b=["1+u1^2+p^2"],
                                 u_star=(2.0,), p_star=1.0, mode="scalar")


def linear_solution(spec, mesh_size=101):
    mesh = np.linspace(0.0, 1.0, mesh_size)
    return ProfileSolution(mesh=mesh, profiles=mesh[None, :] * spec.u_star[:, None],
                           gamma=np.zeros(spec.n), two_point_residual=0.0,
                           boundary_error=0.0)


def test_residual_constant_coefficients_exact():
    grid = build_rectangle(17, 17, 1.0, 1.0)
    piv = solve_pivot(grid, 1e-12)
    fields = compose_fields(linear_solution(CONST), piv, CONST)
    rep = divergence_residual(fields, CONST, grid)
    assert max(rep.per_equation_linf) <= 1e-12
    assert rep.boundary_max_error == 0.0
    assert rep.grid_spacing == grid.spacing


def test_residual_detects_perturbation():
    grid = build_rectangle(17, 17, 1.0, 1.0)
    piv = solve_pivot(grid, 1e-12)
    fields = compose_fields(linear_solution(CONST), piv, CONST)
    u = fields.u_fields.copy()
    u[0, 8, 8] += 0.1
    rep = divergence_residual(FieldSet(grid=grid, u_fields=u), CONST, grid)
    assert max(rep.per_equation_linf) > 1e-3


def test_residual_shape_mismatch():
    grid = build_rectangle(17, 17, 1.0, 1.0)
    other = build_rectangle(9, 9, 1.0, 1.0)
    piv = solve_pivot(other, 1e-10)
    fields = compose_fields(linear_solution(CONST), piv, CONST)
    with pytest.raises(ShapeMismatchError):
        divergence_residual(fields, CONST, grid)




def z_fields(grid, spec, with_p=False):
    """Every field of ``spec`` (and p, when asked) set to the pivot of ``grid``."""
    z = solve_pivot(grid, 1e-10).values
    return FieldSet(grid=grid, u_fields=np.stack([z] * spec.n), p_field=z if with_p else None)


@pytest.mark.parametrize("call, error, message", [
    (lambda g: divergence_residual(z_fields(g, EQUAL_AB), CONST, g),
     ShapeMismatchError, "fields carry 1 components, spec has 2"),
    (lambda g: divergence_residual(z_fields(g, EQUAL_AB), EQUAL_AB, g),
     ShapeMismatchError, "darcy mode requires a pressure field"),
    (lambda g: theta_linearity(linear_solution(EQUAL_AB), EQUAL_AB),
     ValueError, "the theta diagnostic applies to molecular problems"),
    (lambda g: compare_fields(z_fields(g, CONST), z_fields(g, EQUAL_AB)),
     ShapeMismatchError, "component counts differ: 2 vs 1"),
    (lambda g: compare_fields(z_fields(g, EQUAL_AB, with_p=True), z_fields(g, EQUAL_AB)),
     ShapeMismatchError, "one field set has a pressure field, the other does not"),
    (lambda g: divergence_residual(z_fields(g, CONST), CONST, build_annulus(9, 9, 1.0, 2.0)),
     ShapeMismatchError, "grids differ: cartesian vs polar"),
    (lambda g: divergence_residual(z_fields(g, CONST), CONST, build_rectangle(9, 9, 1.0, 2.0)),
     ShapeMismatchError, "grids of shape (9, 9) differ in their node coordinates"),
    (lambda g: compare_fields(z_fields(g, CONST), z_fields(build_annulus(9, 9, 1.0, 2.0), CONST)),
     ShapeMismatchError, "grids differ: cartesian vs polar"),
    (lambda g: compare_fields(z_fields(g, CONST), z_fields(build_rectangle(9, 9, 2.0, 1.0), CONST)),
     ShapeMismatchError, "grids of shape (9, 9) differ in their node coordinates"),
], ids=["residual-component-count", "residual-without-pressure", "theta-on-darcy",
        "compare-component-count", "compare-pressure", "residual-other-system",
        "residual-other-nodes", "compare-other-system", "compare-other-nodes"])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call(build_rectangle(9, 9, 1.0, 1.0))
    assert type(info.value) is error and str(info.value) == message

def test_residual_refinement_ratio_equal_coeff():
    sol = solve_scalar(EQUAL_AB, bracket_hints=(1.0, 1.0), n_nodes=2049, tol=1e-11)
    res = []
    for n in (33, 65):
        grid = build_rectangle(n, n, 1.0, 1.0)
        piv = solve_pivot(grid, 1e-11)
        fields = darcy_reconstruct(sol, piv, EQUAL_AB)
        rep = divergence_residual(fields, EQUAL_AB, grid)
        res.append(max(rep.per_equation_linf))
    assert 3.0 <= res[0] / res[1] <= 5.0


def test_residual_polar_flux_form():
    # composed fields on the annulus must satisfy the polar stencil to
    # pivot-solve accuracy when the face quadrature is exact for the profile
    grid = build_annulus(33, 33, 1.0, 2.0)
    piv = solve_pivot(grid, 1e-11)
    fields = compose_fields(linear_solution(CONST), piv, CONST)
    rep = divergence_residual(fields, CONST, grid)
    assert max(rep.per_equation_linf) <= 1e-8


# --- theta linearity -----------------------------------------------------------

def test_theta_linear_profiles_constant_A():
    sol = linear_solution(CONST, 1001)
    gamma = np.array([[2.0, 1.0], [1.0, 2.0]]) @ CONST.u_star
    sol = ProfileSolution(mesh=sol.mesh, profiles=sol.profiles, gamma=gamma,
                          two_point_residual=0.0, boundary_error=0.0)
    dev = theta_linearity(sol, CONST)
    assert np.max(dev) <= 1e-12


def test_theta_detects_perturbation():
    sol = linear_solution(CONST, 1001)
    gamma = np.array([[2.0, 1.0], [1.0, 2.0]]) @ CONST.u_star
    prof = sol.profiles + sol.mesh * (1 - sol.mesh) * 0.05
    bad = ProfileSolution(mesh=sol.mesh, profiles=prof, gamma=gamma,
                          two_point_residual=0.0, boundary_error=0.0)
    # d = A U' - gamma = 0.15 (1 - 2z) in both rows, linear in z, so the
    # midpoint rule integrates it exactly: max 0.15 z (1 - z) = 0.0375 at z = 1/2
    np.testing.assert_allclose(theta_linearity(bad, CONST), 0.0375, rtol=0, atol=1e-12)


def test_theta_converged_solution():
    from funcsol.twopoint import solve_fixed_point
    spec = ProblemSpec.from_strings(2, [["1+u1", "0"], ["0", "1"]], u_star=(1.0, 0.0))
    sol = solve_fixed_point(spec, n_nodes=1001, tol=1e-8)
    assert np.max(theta_linearity(sol, spec)) <= 1e-6


def test_theta_deviation_tracks_solver_tolerance():
    from funcsol.twopoint import solve_fixed_point
    spec = ProblemSpec.from_strings(2, [["1+u1", "0"], ["0", "1"]], u_star=(1.0, 0.0))
    devs = []
    for tol in (1e-6, 1e-8, 1e-10):
        sol = solve_fixed_point(spec, n_nodes=1001, tol=tol, damping=0.55)
        devs.append(float(np.max(theta_linearity(sol, spec))))
    # linear-in-tolerance scaling: each 100x drop in tol cuts the deviation
    # by roughly 100x (granular in the contraction factor)
    assert devs[0] > devs[1] > devs[2]
    assert 20.0 <= devs[0] / devs[1] <= 500.0
    assert 20.0 <= devs[1] / devs[2] <= 500.0


# --- compare_fields -------------------------------------------------------------

def test_compare_identical():
    grid = build_rectangle(9, 9, 1.0, 1.0)
    piv = solve_pivot(grid, 1e-10)
    f = compose_fields(linear_solution(CONST), piv, CONST)
    out = compare_fields(f, f)
    assert out == {"linf": 0.0, "l2": 0.0}


def test_compare_constant_offset():
    grid = build_rectangle(9, 9, 1.0, 1.0)
    piv = solve_pivot(grid, 1e-10)
    f = compose_fields(linear_solution(CONST), piv, CONST)
    u = f.u_fields.copy()
    u[1] += 0.5
    g = FieldSet(grid=grid, u_fields=u)
    assert compare_fields(f, g)["linf"] == pytest.approx(0.5)


def test_residual_refuses_fields_on_another_grid_of_the_same_shape():
    # the annulus fields checked on the rectangle's stencil read linf ~ 1 silently
    annulus, rectangle = build_annulus(33, 33, 1.0, 2.0), build_rectangle(33, 33, 1.0, 1.0)
    fields = compose_fields(linear_solution(CONST), solve_pivot(annulus, 1e-10), CONST)
    assert divergence_residual(fields, CONST, annulus).max_linf <= 1e-8
    with pytest.raises(ShapeMismatchError):
        divergence_residual(fields, CONST, rectangle)
    same_nodes = build_annulus(33, 33, 1.0, 2.0)
    assert divergence_residual(fields, CONST, same_nodes).max_linf <= 1e-8


def test_compare_shape_mismatch():
    a = build_rectangle(9, 9, 1.0, 1.0)
    b = build_rectangle(11, 9, 1.0, 1.0)
    fa = compose_fields(linear_solution(CONST), solve_pivot(a, 1e-9), CONST)
    fb = compose_fields(linear_solution(CONST), solve_pivot(b, 1e-9), CONST)
    with pytest.raises(ShapeMismatchError):
        compare_fields(fa, fb)


# --- direct coupled solver -------------------------------------------------------

def test_direct_equal_coeff_functional_identity():
    grid = build_rectangle(33, 33, 1.0, 1.0)
    fields = direct_coupled_solve(EQUAL_AB, grid, tol=1e-10)
    assert np.max(np.abs(fields.u_fields[0] - 2.0 * fields.p_field)) <= 1e-6


def test_direct_constant_matches_composition():
    grid = build_rectangle(17, 17, 1.0, 1.0)
    piv = solve_pivot(grid, 1e-12)
    composed = compose_fields(linear_solution(CONST), piv, CONST)
    direct = direct_coupled_solve(CONST, grid, tol=1e-11)
    assert compare_fields(composed, direct)["linf"] <= 1e-10


def test_direct_two_law_scalar_agrees_with_functional():
    # a != b, both positive, mixed u*p dependence so neither face quadrature
    # is exact: the direct classical solve must land within the
    # discretization error of the (node-exact) functional reconstruction
    spec = ProblemSpec.from_strings(1, [["1+u1*p"]], b=["2+p"], u_star=(1.0,),
                                    p_star=1.0, mode="scalar")
    sol = solve_scalar(spec, n_nodes=2049, tol=1e-11)
    diffs, residuals = [], []
    for n in (17, 33):
        grid = build_rectangle(n, n, 1.0, 1.0)
        piv = solve_pivot(grid, 1e-11)
        functional = darcy_reconstruct(sol, piv, spec)
        direct = direct_coupled_solve(spec, grid, tol=1e-10)
        diffs.append(compare_fields(functional, direct)["linf"])
        residuals.append(max(divergence_residual(functional, spec, grid).per_equation_linf))
    # O(h^2) cross-method difference, bounded by the max-principle estimate
    # |e| <= C_dom * r_inf with C_dom = width^2/8 for the unit square
    assert 2.5 <= diffs[0] / diffs[1] <= 6.0
    assert diffs[1] <= 5.0 * residuals[1] * 0.125


@pytest.mark.parametrize("b, b_next", [(None, "exp(p)"), (["0"], None)], ids=["no_b1", "no_b_next"])
def test_direct_darcy_without_optional_terms(b, b_next):
    # no b1 (no pressure flux in the u-law) or no b_next (it defaults to 1)
    spec = ProblemSpec.from_strings(1, [["1"]], b=b, b_next=b_next, u_star=(1.0,),
                                    p_star=1.0, mode="darcy")
    grid = build_rectangle(17, 17, 1.0, 1.0)
    functional = darcy_reconstruct(solve_shooting(spec, n_nodes=2049, tol=1e-12),
                                   solve_pivot(grid, 1e-12), spec)
    direct = direct_coupled_solve(spec, grid, tol=1e-11)
    assert compare_fields(functional, direct)["linf"] <= 1e-6


def test_direct_outer_iteration_cap(monkeypatch):
    monkeypatch.setattr(verify, "MAX_SWEEPS", 2)
    with pytest.raises(OuterDivergenceError, match=r"did not reach 1\.000e-12 in 2 sweeps"):
        direct_coupled_solve(EQUAL_AB, build_rectangle(17, 17, 1.0, 1.0), tol=1e-12)


def test_direct_outer_iteration_aborts_on_growing_updates(monkeypatch):
    """A = [[1+u2^2, 4u1], [-4u1, 1]] is elliptic, but the skew coupling
    makes the outer updates grow from 0.47 to 38 in four sweeps; from
    there they wander between 6 and 200, never settling nor growing five
    times in a row, and the sweep cap aborts the solve."""
    spec = ProblemSpec.from_strings(2, [["1+u2^2", "4*u1"], ["-4*u1", "1"]], u_star=(1.0, 1.0))
    monkeypatch.setattr(verify, "MAX_SWEEPS", 60)
    with pytest.raises(OuterDivergenceError, match=r"did not reach 1\.000e-06 in 60 sweeps"):
        direct_coupled_solve(spec, build_rectangle(17, 17, 1.0, 1.0), tol=1e-6)


def test_direct_outer_iteration_aborts_on_five_growths():
    """The updates of A = [[1, 2u2], [-2u2, 1]] fall once, then grow from
    sweep 3 on (0.55, 2.3, 3.6, 21, 6.3e3): five growths in a row abort
    the solve before the fields leave their scale."""
    spec = ProblemSpec.from_strings(2, [["1", "2*u2"], ["-2*u2", "1"]], u_star=(1.0, 1.0))
    with pytest.raises(OuterDivergenceError, match="grew for 5 consecutive iterations"):
        direct_coupled_solve(spec, build_rectangle(17, 17, 1.0, 1.0), tol=1e-9)


@pytest.mark.parametrize("a, tol", [
    ([["1", "5*u2"], ["-5*u2", "1"]], 1e-6),
    ([["1", "3*(1+u1)"], ["-3*(1+u1)", "1"]], 1e-9),
], ids=["5u2", "3(1+u1)"])
def test_direct_divergence_is_not_a_linear_solve_error(a, tol):
    """As the outer updates grow, so does the cross-term source of each
    linear solve. A diverging sweep is the outer iteration's failure, not a
    linear solve's: it ends as OuterDivergenceError. Gauss-Seidel sweeps
    square the growth (5u2: 1.1, 49, 8.6e5, 5.1e18; 3(1+u1): 1.3, 39,
    2.5e3, 3.4e8), so the fields leave every scale of their data within
    four sweeps, before the next sweep's solves can overflow."""
    spec = ProblemSpec.from_strings(2, a, u_star=(1.0, 1.0))
    with pytest.raises(OuterDivergenceError, match="at sweep 4 left the fields' scale"):
        direct_coupled_solve(spec, build_rectangle(17, 17, 1.0, 1.0), tol=tol)


DARCY_COUPLED = ProblemSpec.from_strings(
    2, [["2+0.5*sin(u1)", "0.3+0.1*u2"], ["0.3+0.1*u2", "1.5+0.2*u1"]],
    b=["0.2*p", "0.1"], b_next="1+0.5*p", u_star=(0.5, 0.3), p_star=1.0, mode="darcy")


@pytest.fixture(scope="module")
def darcy_coupled_profiles():
    return solve_shooting(DARCY_COUPLED, n_nodes=4097, tol=1e-11)


@pytest.mark.parametrize("grid, limit", [
    (build_rectangle(33, 33, 1.0, 1.0), 1e-7),       # measured 5.2e-8
    (build_annulus(33, 33, 1.0, 2.0), 3e-7),         # measured 1.3e-7
], ids=["rectangle", "annulus"])
def test_direct_darcy_coupled_agrees_with_functional(grid, limit, darcy_coupled_profiles):
    """Darcy n = 2, where each sweep solves the pressure law, then u1, then
    u2 with u1's new value: the direct fields land within the direct
    solver's O(h^2) error of the shooting reconstruction."""
    functional = darcy_reconstruct(darcy_coupled_profiles, solve_pivot(grid, 1e-12), DARCY_COUPLED)
    direct = direct_coupled_solve(DARCY_COUPLED, grid, tol=1e-10)
    assert compare_fields(functional, direct)["linf"] <= limit


@pytest.mark.parametrize("grid", [build_rectangle(17, 9, 2.0, 1.0), build_annulus(17, 9, 1.0, 2.0)],
                         ids=["rectangle", "annulus"])
def test_direct_fields_are_column_views(grid):
    """Every system the direct solver poses is invariant along x2, so it
    sweeps one x1 column and returns each field on the caller's grid as
    a read-only view of its column, as stage 3 does."""
    direct = direct_coupled_solve(DARCY_COUPLED, grid)
    assert direct.grid is grid
    assert direct.u_fields.shape == (2,) + grid.shape
    for field in (*direct.u_fields, direct.p_field):
        assert field.shape == grid.shape and field.strides[1] == 0
        assert not field.flags.writeable


def test_direct_domain_error_names_the_expression():
    spec = ProblemSpec.from_strings(2, [["1", "0"], ["0", "2+log(u2)"]], u_star=(1.0, 1.0))
    with pytest.raises(EvalDomainError, match=r"^'2\.0\+log\(u2\)' left its real domain"):
        direct_coupled_solve(spec, build_rectangle(17, 17, 1.0, 1.0))
