import math

import numpy as np
import pytest

from funcsol.errors import NonPositiveWeightError, ProfileRangeError
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.pivot import dirichlet_targets, solve_pivot
from funcsol.reconstruct import compose_fields, darcy_reconstruct, kirchhoff_theta
from funcsol.twopoint import ProblemSpec, ProfileSolution, solve_scalar, solve_shooting


def make_profiles(spec, mesh, values, gamma=None):
    """Hand-built profiles; ``gamma`` must match them where fluxes are read."""
    gamma = np.zeros(spec.n) if gamma is None else np.asarray(gamma, dtype=float)
    return ProfileSolution(mesh=mesh, profiles=values, gamma=gamma,
                           two_point_residual=0.0, boundary_error=0.0)


@pytest.fixture(scope="module")
def square17():
    grid = build_rectangle(17, 17, 1.0, 1.0)
    return solve_pivot(grid, 1e-11)


CONST = ProblemSpec.from_strings(2, [["2", "1"], ["1", "2"]], u_star=(1.0, -0.5))
DIAG = ProblemSpec.from_strings(2, [["1+u1", "0"], ["0", "1"]], u_star=(1.0, 0.0))
DARCY_1 = ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next="1", u_star=(1.0,), mode="darcy")
MESH_5 = np.linspace(0.0, 1.0, 5)


def test_compose_linear_profiles(square17):
    mesh = np.linspace(0.0, 1.0, 101)
    sol = make_profiles(CONST, mesh, mesh[None, :] * np.array([[1.0], [-0.5]]))
    fs = compose_fields(sol, square17, CONST)
    x = square17.grid.x1[:, None]
    np.testing.assert_allclose(fs.u_fields[0], x * np.ones((1, 17)), atol=1e-12)
    np.testing.assert_allclose(fs.u_fields[1], -0.5 * x * np.ones((1, 17)), atol=1e-12)


def test_compose_sqrt_profile_midline(square17):
    mesh = np.linspace(0.0, 1.0, 4001)
    sol = make_profiles(DIAG, mesh,
                        np.vstack([-1 + np.sqrt(1 + 3 * mesh), np.zeros_like(mesh)]))
    fs = compose_fields(sol, square17, DIAG)
    i = 8  # x = 0.5 on the 17-node axis
    assert fs.u_fields[0][i, 5] == pytest.approx(-1 + math.sqrt(2.5), abs=1e-6)


def test_compose_boundary_exactness(square17):
    mesh = np.linspace(0.0, 1.0, 101)
    prof = mesh[None, :] * np.array([[1.0], [-0.5]])
    prof = prof.copy()
    prof[:, -1] += 3e-9  # solver-level endpoint error must not leak to gamma3
    sol = make_profiles(CONST, mesh, prof)
    fs = compose_fields(sol, square17, CONST)
    assert np.all(fs.u_fields[0][-1] == 1.0)         # gamma3, the last row
    assert np.all(fs.u_fields[1][-1] == -0.5)
    assert np.all(fs.u_fields[0][0] == 0.0)          # gamma1, the first row


def test_compose_range_error(square17):
    mesh = np.linspace(0.0, 0.9, 91)  # does not span the pivot range
    sol = make_profiles(CONST, mesh, mesh[None, :] * np.array([[1.0], [-0.5]]))
    with pytest.raises(ProfileRangeError):
        compose_fields(sol, square17, CONST)


@pytest.mark.parametrize("call, message", [
    (lambda piv: compose_fields(make_profiles(DARCY_1, MESH_5, np.zeros((1, 5))), piv, DARCY_1),
     "compose_fields applies to molecular problems"),
    (lambda piv: kirchhoff_theta(make_profiles(CONST, MESH_5, np.zeros((2, 5))), CONST),
     "the Kirchhoff map applies to darcy problems"),
], ids=["compose-on-darcy", "kirchhoff-on-molecular"])
def test_refusals(square17, call, message):
    with pytest.raises(ValueError) as info:
        call(square17)
    assert type(info.value) is ValueError and str(info.value) == message


# --- Kirchhoff map -------------------------------------------------------------

def darcy1(b_next, u_star=1.0, p_star=1.0):
    return ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next=b_next,
                                    u_star=(u_star,), p_star=p_star, mode="darcy")


def test_theta_unit_weight():
    spec = darcy1("1")
    mesh = np.linspace(0.0, 1.0, 101)
    sol = make_profiles(spec, mesh, np.zeros((1, 101)))
    theta = kirchhoff_theta(sol, spec)
    np.testing.assert_allclose(theta, mesh, atol=1e-14)
    assert theta[-1] == pytest.approx(1.0)


def test_theta_exponential_weight():
    spec = darcy1("exp(p)")
    mesh = np.linspace(0.0, 1.0, 1001)
    sol = make_profiles(spec, mesh, np.zeros((1, 1001)))
    theta = kirchhoff_theta(sol, spec)
    np.testing.assert_allclose(theta, np.exp(mesh) - 1.0, atol=1e-12)
    assert theta[-1] == pytest.approx(math.e - 1.0, abs=1e-12)


def test_theta_rejects_non_positive_weight():
    spec = darcy1("p")  # vanishes at p = 0
    mesh = np.linspace(0.0, 1.0, 101)
    sol = make_profiles(spec, mesh, np.zeros((1, 101)))
    with pytest.raises(NonPositiveWeightError):
        kirchhoff_theta(sol, spec)


def test_theta_map_requires_increasing_values():
    # b_next > 0 at every node, but the cubic through the nodes (1, 0, 0, 1)
    # dips below zero between the middle two: that increment is negative
    spec = ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next="1e-9+u1^2",
                                    u_star=(1.0,), mode="darcy")
    mesh = np.linspace(0.0, 1.0, 9)
    sol = make_profiles(spec, mesh, np.array([[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]]))
    with pytest.raises(NonPositiveWeightError, match="not strictly increasing"):
        kirchhoff_theta(sol, spec)


def test_theta_round_trip():
    spec = darcy1("exp(p)")
    mesh = np.linspace(0.0, 1.0, 1001)
    sol = make_profiles(spec, mesh, np.zeros((1, 1001)))
    theta = kirchhoff_theta(sol, spec)
    rng = np.random.default_rng(123)
    ps = rng.uniform(0.0, 1.0, 100)
    assert np.max(np.abs(np.interp(np.interp(ps, mesh, theta), theta, mesh) - ps)) <= 1e-10


# --- pressure reconstruction ----------------------------------------------------

def test_pressure_unit_weight_scales_pivot(square17):
    spec = darcy1("1", p_star=2.5)
    mesh = np.linspace(0.0, 2.5, 101)
    sol = make_profiles(spec, mesh, np.zeros((1, 101)))
    p = darcy_reconstruct(sol, square17, spec).p_field
    np.testing.assert_allclose(p, 2.5 * square17.values, atol=1e-12)


def test_pressure_exponential_value(square17):
    spec = darcy1("exp(p)")
    mesh = np.linspace(0.0, 1.0, 2001)
    sol = make_profiles(spec, mesh, np.zeros((1, 2001)))
    p = darcy_reconstruct(sol, square17, spec).p_field
    assert p[8, 3] == pytest.approx(math.log(1 + (math.e - 1) * 0.5), abs=1e-6)
    assert abs(p[8, 3] - 0.62012) < 1e-4
    # endpoints exact
    assert np.all(p[0, :] == 0.0)
    np.testing.assert_allclose(p[-1, :], 1.0, atol=1e-12)


def test_pressure_monotone_in_pivot(square17):
    spec = darcy1("1+p^2")
    mesh = np.linspace(0.0, 1.0, 501)
    sol = make_profiles(spec, mesh, np.zeros((1, 501)))
    p = darcy_reconstruct(sol, square17, spec).p_field
    order = np.argsort(square17.values.ravel(), kind="stable")
    assert np.all(np.diff(p.ravel()[order]) >= 0.0)


# --- full darcy reconstruction ---------------------------------------------------

def test_darcy_equal_coeff_rule(square17):
    spec = ProblemSpec.from_strings(1, [["1+u1^2+p^2"]], b=["1+u1^2+p^2"],
                                    u_star=(2.0,), p_star=1.0, mode="scalar")
    sol = solve_scalar(spec, bracket_hints=(1.0, 1.0), n_nodes=2049, tol=1e-11)
    fs = darcy_reconstruct(sol, square17, spec)
    assert np.max(np.abs(fs.u_fields[0] - 2.0 * fs.p_field)) <= 1e-9


def test_darcy_unit_weight_linear_profiles(square17):
    spec = ProblemSpec.from_strings(2, [["1", "0"], ["0", "1"]], b=["0", "0"],
                                    b_next="1", u_star=(1.0, -2.0), p_star=1.0,
                                    mode="darcy")
    mesh = np.linspace(0.0, 1.0, 101)
    sol = make_profiles(spec, mesh, mesh[None, :] * np.array([[1.0], [-2.0]]))
    fs = darcy_reconstruct(sol, square17, spec)
    np.testing.assert_allclose(fs.u_fields[0], square17.values, atol=1e-12)
    np.testing.assert_allclose(fs.u_fields[1], -2.0 * square17.values, atol=1e-12)


def test_darcy_sincos_trivial_fields(square17):
    spec = ProblemSpec.from_strings(2, [["1", "0"], ["0", "1"]], b=["-u2", "u1"],
                                    b_next="1", u_star=(0.0, 0.0), p_star=math.pi,
                                    mode="darcy")
    sol = solve_shooting(spec, n_nodes=257, tol=1e-10)
    fs = darcy_reconstruct(sol, square17, spec)
    assert np.max(np.abs(fs.u_fields)) <= 1e-10
    np.testing.assert_allclose(fs.p_field, math.pi * square17.values, atol=1e-10)


def test_darcy_flux_fields(square17):
    spec = darcy1("1", p_star=1.0)
    mesh = np.linspace(0.0, 1.0, 101)
    sol = make_profiles(spec, mesh, mesh[None, :].copy(), gamma=(1.0,))
    fs = darcy_reconstruct(sol, square17, spec, with_fluxes=True)
    assert "v" in fs.flux_fields
    # v = -grad p : p = z = x on the square, so v = (-1, 0)
    np.testing.assert_allclose(fs.flux_fields["v"][0], -1.0, atol=1e-9)
    np.testing.assert_allclose(fs.flux_fields["v"][1], 0.0, atol=1e-9)


def test_molecular_flux_fields(square17):
    # u = (x, -0.5 x) under A = [[2, 1], [1, 2]]: q_h = (2 - 0.5, 0), q_m = (1 - 1, 0)
    mesh = np.linspace(0.0, 1.0, 101)
    sol = make_profiles(CONST, mesh, mesh[None, :] * np.array([[1.0], [-0.5]]),
                        gamma=(1.5, 0.0))
    fs = compose_fields(sol, square17, CONST, with_fluxes=True)
    assert list(fs.flux_fields) == ["q_h", "q_m"]
    np.testing.assert_allclose(fs.flux_fields["q_h"][0], 1.5, atol=1e-9)
    np.testing.assert_allclose(fs.flux_fields["q_h"][1], 0.0, atol=1e-9)
    np.testing.assert_allclose(fs.flux_fields["q_m"], 0.0, atol=1e-9)


def test_darcy_flux_fields_with_pressure_term(square17):
    # a = 1, b1 = 2, b_next = 3 and linear profiles: p = p* x and u = u* x,
    # so q_1 = (u* + 2 p*, 0) and v = (-3 p*, 0)
    u_star, p_star = 0.75, 1.5
    spec = ProblemSpec.from_strings(1, [["1"]], b=["2"], b_next="3", u_star=(u_star,),
                                    p_star=p_star, mode="darcy")
    mesh = np.linspace(0.0, p_star, 101)
    sol = make_profiles(spec, mesh, (u_star / p_star) * mesh[None, :],
                        gamma=((u_star / p_star + 2.0) / 3.0,))
    fs = darcy_reconstruct(sol, square17, spec, with_fluxes=True)
    assert list(fs.flux_fields) == ["q_1", "v"]
    np.testing.assert_allclose(fs.flux_fields["q_1"][0], u_star + 2.0 * p_star, atol=1e-9)
    np.testing.assert_allclose(fs.flux_fields["q_1"][1], 0.0, atol=1e-9)
    np.testing.assert_allclose(fs.flux_fields["v"][0], -3.0 * p_star, atol=1e-9)
    np.testing.assert_allclose(fs.flux_fields["v"][1], 0.0, atol=1e-9)


def test_structural_flux_against_closed_form_on_annulus():
    # a = 1, b1 = 0, b_next = exp(p), u* = p* = 1 on 1 <= r <= 2: eta* = e - 1
    # and z = ln(r)/ln 2, so v = -eta* grad z = (-(e - 1)/(r ln 2), 0)
    spec = ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next="exp(p)", u_star=(1.0,),
                                    p_star=1.0, mode="darcy")
    sol = solve_shooting(spec, n_nodes=1025, tol=1e-12)
    errors = []
    for n, limit in ((33, 2e-3), (65, 5e-4), (129, 1.3e-4)):
        grid = build_annulus(n, n, 1.0, 2.0)
        fs = darcy_reconstruct(sol, solve_pivot(grid, 1e-10), spec, with_fluxes=True)
        v = fs.flux_fields["v"]
        exact = -(math.e - 1.0) / (grid.x1[:, None] * math.log(2.0))
        errors.append(np.max(np.abs(v[0] - exact)))
        assert errors[-1] <= limit
        assert np.all(v[1] == 0.0)
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5                                 # O(h^2)


# --- stage 3 on the pivot's column ----------------------------------------------

def full_grid_fields(sol, piv, spec, targets):
    """Each profile interpolated at all n1 x n2 ``targets``, then each law's
    field (u_1..u_n, then ``targets`` as p) stamped with its Dirichlet rows."""
    fields = [*(np.interp(targets, sol.mesh, prof) for prof in sol.profiles), targets]
    dirichlet = ~piv.grid.unknown_mask
    for field, boundary, _ in spec.laws():
        fields[field][dirichlet] = dirichlet_targets(piv.grid, boundary)[dirichlet]
    return np.stack(fields[:spec.n]), fields[-1]


def full_grid_gradient(piv):
    grad_z = np.zeros((2,) + piv.grid.shape)
    grad_z[0] = np.gradient(piv.values, piv.grid.spacing[0], axis=0, edge_order=2)
    return grad_z


def assert_column_view(array, expected):
    """``array`` is bit-equal to ``expected``, strides 0 along x2 and is read-only."""
    assert array.shape == expected.shape and array.strides[-1] == 0
    assert array.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        array[...] = 0.0


@pytest.fixture(scope="module")
def annulus33x17():
    return solve_pivot(build_annulus(33, 17, 1.0, 2.0), 1e-10)


def test_compose_fields_are_column_views_of_the_full_grid_rule(annulus33x17):
    mesh = np.linspace(0.0, 1.0, 401)
    profiles = np.vstack([-1 + np.sqrt(1 + 3 * mesh), 0.2 * mesh * (1 - mesh)])
    profiles[:, [0, -1]] += 3e-9         # endpoint errors the stamping must hide
    sol = make_profiles(DIAG, mesh, profiles, gamma=(1.5, -0.25))
    fs = compose_fields(sol, annulus33x17, DIAG, with_fluxes=True)
    u, _ = full_grid_fields(sol, annulus33x17, DIAG, annulus33x17.values)
    grad_z = full_grid_gradient(annulus33x17)
    assert fs.p_field is None
    assert_column_view(fs.u_fields, u)
    assert list(fs.flux_fields) == ["q_h", "q_m"]
    assert_column_view(fs.flux_fields["q_h"], 1.5 * grad_z)
    assert_column_view(fs.flux_fields["q_m"], -0.25 * grad_z)


def test_darcy_fields_are_column_views_of_the_full_grid_rule(annulus33x17):
    spec = ProblemSpec.from_strings(1, [["1"]], b=["2"], b_next="exp(p)", u_star=(0.75,),
                                    p_star=1.5, mode="darcy")
    mesh = np.linspace(0.0, 1.5, 301)
    sol = make_profiles(spec, mesh, (0.5 * mesh + 0.1 * np.sin(mesh))[None, :], gamma=(0.3,))
    fs = darcy_reconstruct(sol, annulus33x17, spec, with_fluxes=True)
    theta = kirchhoff_theta(sol, spec)
    u, p = full_grid_fields(sol, annulus33x17, spec,
                            np.interp(theta[-1] * annulus33x17.values, theta, mesh))
    grad_z = full_grid_gradient(annulus33x17)
    assert_column_view(fs.u_fields, u)
    assert_column_view(fs.p_field, p)
    assert list(fs.flux_fields) == ["q_1", "v"]
    assert_column_view(fs.flux_fields["q_1"], 0.3 * theta[-1] * grad_z)
    assert_column_view(fs.flux_fields["v"], -theta[-1] * grad_z)
