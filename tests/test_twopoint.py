import math
import warnings

import numpy as np
import pytest

from funcsol.errors import (
    BracketFailureError,
    DegenerateLinearizationError,
    EvalDomainError,
    MaxIterationError,
    NonEllipticError,
    NonPositiveFError,
    SingularJacobianError,
    SingularMatrixError,
)
from funcsol.exprlang import render
from funcsol.twopoint import (
    ProblemSpec,
    apply_fixed_point_operator,
    collocation_residual,
    ellipticity_bounds,
    gamma_functional,
    integrate_profiles,
    shooting_jacobian,
    solve_fixed_point,
    solve_scalar,
    solve_shooting,
)


def molecular(a, u_star):
    return ProblemSpec.from_strings(len(u_star), a, u_star=u_star, mode="molecular")


DIAG = molecular([["1+u1", "0"], ["0", "1"]], (1.0, 0.0))
CONST = molecular([["2", "1"], ["1", "2"]], (1.0, 0.0))


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


# --- ellipticity ----------------------------------------------------------------

def test_ellipticity_constant_matrix():
    b = ellipticity_bounds(CONST, samples=3)
    assert b.m == pytest.approx(1.0)
    assert b.M == pytest.approx(3.0)


def test_ellipticity_identity():
    b = ellipticity_bounds(molecular([["1", "0"], ["0", "1"]], (1.0, 0.0)), samples=2)
    assert (b.m, b.M) == (1.0, 1.0)


def test_ellipticity_sampled_sine():
    spec = molecular([["2+sin(u1)", "0"], ["0", "1"]], (0.0, 0.0))
    b = ellipticity_bounds(spec, box={"u1": (-math.pi, math.pi)}, samples=10001)
    assert b.m == pytest.approx(1.0, abs=1e-6)
    assert b.M == pytest.approx(3.0, abs=1e-6)


def test_ellipticity_failure():
    spec = molecular([["u1", "0"], ["0", "1"]], (1.0, 0.0))
    with pytest.raises(NonEllipticError):
        ellipticity_bounds(spec, box={"u1": (-1.0, 1.0)}, samples=5)


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


def test_shooting_degenerate_origin():
    spec = ProblemSpec.from_strings(2, [["1", "1"], ["1", "1"]], u_star=(0.5, 0.5))
    with pytest.raises(DegenerateLinearizationError):
        solve_shooting(spec)


def test_shooting_max_iteration_error():
    with pytest.raises(MaxIterationError):
        solve_shooting(DIAG, n_nodes=257, tol=1e-12, max_newton=1)


def test_fixed_point_requires_ellipticity():
    spec = molecular([["u1", "0"], ["0", "1"]], (1.0, 0.0))
    with pytest.raises(NonEllipticError):
        solve_fixed_point(spec)


def test_shooting_map_determinant():
    for p_star in (math.pi / 2, math.pi, 1.5 * math.pi):
        J, _ = shooting_jacobian(sincos(p_star), np.zeros(2), 1001)
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
    with pytest.raises(NonPositiveFError):
        solve_scalar(scalar_spec("1+u1^2", "-1", 1.0))


def test_scalar_bracket_failure(monkeypatch):
    # a bounded endpoint map can never straddle an out-of-range target;
    # the expansion must give up after its 60 tries
    import funcsol.twopoint as tp
    calls = []

    def bounded_endpoint(spec, gammas, n_nodes):
        calls.extend(np.ravel(gammas).tolist())
        return None, np.arctan(np.asarray(gammas, dtype=float))[None]

    monkeypatch.setattr(tp, "_integrate_batch", bounded_endpoint)
    with pytest.raises(BracketFailureError):
        tp.solve_scalar(scalar_spec("1+u1^2", "1", 2.0), n_nodes=65)
    assert len(calls) > 60


def test_scalar_unhinted_expansion_hits_root():
    # F = 1, so the first expansion endpoint gamma = u*/p* = 2 is the root
    # exactly; it must be accepted rather than expanded past
    sol = solve_scalar(scalar_spec("1+u1^2+p^2", "1+u1^2+p^2", 2.0), n_nodes=257, tol=1e-11)
    assert sol.gamma[0] == 2.0


def test_scalar_ksection_passes():
    # each pass shrinks the bracket 32-fold: from width e - 1 to 1e-10 in
    # about 7 passes, plus the two hint endpoints
    sol = solve_scalar(scalar_spec("exp(u1)", "1", 1.0),
                       bracket_hints=(math.exp(-1.0), 1.0), n_nodes=257, tol=1e-10)
    assert sol.stats["iterations"] <= 10
    assert sol.stats["endpoint_evaluations"] == sol.stats["monotone_samples"] >= 6
    assert sol.boundary_error <= 1e-10


def test_scalar_ksection_pass_budget():
    # max_bisect counts halvings; 5 of them buy a single 32-fold pass
    with pytest.raises(MaxIterationError):
        solve_scalar(scalar_spec("exp(u1)", "1", 1.0), n_nodes=65, tol=1e-10, max_bisect=5)


@pytest.mark.parametrize("u_star,solvable", [(1.0, True), (0.7, False)])
def test_scalar_tol_below_roundoff(u_star, solvable, monkeypatch):
    # below the endpoint map's rounding noise, candidates a few ulps apart
    # tie or swap: an exact hit is accepted, otherwise the bracket stalls
    import funcsol.twopoint as tp
    spec = scalar_spec("exp(u1)", "1", u_star)
    if solvable:
        assert solve_scalar(spec, n_nodes=65, tol=1e-30).boundary_error == 0.0
    else:
        # which targets RK4 lets the map hit exactly is an accident of its
        # rounding, so stall on a strictly increasing map that steps over u*
        def stepped_endpoints(spec, gammas, n_nodes):
            g = np.asarray(gammas, dtype=float)
            return None, np.where(g < u_star, g, g + 1e-9)[None]

        monkeypatch.setattr(tp, "_integrate_batch", stepped_endpoints)
        with pytest.raises(MaxIterationError):
            tp.solve_scalar(spec, n_nodes=65, tol=1e-30)


def test_scalar_monotone_endpoint_map():
    from funcsol.twopoint import _integrate_batch
    spec = scalar_spec("exp(u1)", "1", 1.0)
    gammas = np.linspace(0.1, 3.0, 6)
    ends = _integrate_batch(spec, gammas[:, None], 257)[1][-1, :, 0]
    assert all(a < b for a, b in zip(ends, ends[1:]))


def test_scalar_integrates_each_gamma_once(monkeypatch):
    # F = 1 + U with hints r = 1, q = 1 + u*: the bracket ends share one
    # batch, every pass adds KSECTION_WIDTH new candidates, and the profile
    # is the winner's trajectory from its pass rather than a rerun
    import funcsol.twopoint as tp
    batches = []
    integrate = tp._integrate_batch

    def counted(spec, gammas, *args, **kwargs):
        batches.append(np.ravel(gammas).tolist())
        return integrate(spec, gammas, *args, **kwargs)

    monkeypatch.setattr(tp, "_integrate_batch", counted)
    spec = scalar_spec("1", "1+u1", 1.0)
    sol = tp.solve_scalar(spec, bracket_hints=(1.0, 2.0), n_nodes=2049, tol=1e-11)
    monkeypatch.undo()
    seen = [gam for widths in batches for gam in widths]
    assert len(seen) == len(set(seen))
    assert sol.stats["iterations"] == len(batches)
    assert [len(b) for b in batches] == [2] + [tp.KSECTION_WIDTH] * (len(batches) - 1)
    assert sol.boundary_error <= 1e-11
    assert integrate_profiles(spec, sol.gamma, 2049)[1].tobytes() == sol.profiles.tobytes()


# --- the scalar spelling is darcy with n = 1 ----------------------------------

def test_scalar_spelling_lowers_to_darcy():
    spec = scalar_spec("1+u1^2+p^2", "2+p", 1.0)
    assert (spec.mode, spec.b) == ("darcy", None)
    assert render(spec.b_next) == "2.0+p"


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
