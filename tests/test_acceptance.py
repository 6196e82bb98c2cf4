"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Everything asserts at the stated tolerances; grid sizes,
mesh sizes and solver options are pinned here and in the oracle registry.
"""

import functools
import math

import numpy as np
import pytest

from funcsol.cli import main
from funcsol.errors import SingularJacobianError
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.oracles import get_oracle
from funcsol.pivot import solve_pivot
from funcsol.reconstruct import (
    compose_fields,
    darcy_reconstruct,
    kirchhoff_theta,
)
from funcsol.twopoint import (
    MOLECULAR,
    ProfileSolution,
    shooting_jacobian,
    solve_fixed_point,
    solve_scalar,
    solve_shooting,
)
from funcsol.verify import (
    compare_fields,
    direct_coupled_solve,
    divergence_residual,
    theta_linearity,
)

MOLECULAR_ORACLES = ("constant_A_molecular", "diag_nonlinear_molecular")
RECONSTRUCTED_ORACLES = ("constant_A_molecular", "diag_nonlinear_molecular",
                         "thm44_scalar", "sincos_regular", "kirchhoff_exp")
FINE_PROFILE_NODES = 262145     # keeps piecewise-linear lookup noise below truncation
DEGENERACY_FLOOR = 1e-6         # below this the stencil reproduces the fields exactly


def report(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")


@functools.cache
def square_pivot(n):
    return solve_pivot(build_rectangle(n, n, 1.0, 1.0), 1e-10)


@functools.cache
def fixed_point_run(name, tol=1e-10, damping=1.0):
    case = get_oracle(name)
    return solve_fixed_point(case.spec, n_nodes=case.n_nodes, tol=tol, damping=damping)


@functools.cache
def shooting_run(name, tol=1e-10):
    case = get_oracle(name)
    return solve_shooting(case.spec, n_nodes=case.n_nodes, tol=tol)


def fine_closed_form_solution(name):
    """ProfileSolution assembled from the oracle's closed form on a fine mesh."""
    case = get_oracle(name)
    mesh = np.linspace(0.0, case.spec.p_star, FINE_PROFILE_NODES)
    return ProfileSolution(mesh=mesh, profiles=case.expected_profile(mesh),
                           gamma=np.asarray(case.expected_gamma, dtype=float),
                           two_point_residual=0.0, boundary_error=0.0)


def test_criterion_1_pivot_exactness():
    piv = square_pivot(65)
    err_sq = float(np.max(np.abs(piv.values - piv.grid.x1[:, None])))

    errs = {}
    for n in (64, 128):
        grid = build_annulus(n, n, 1.0, 2.0)
        f = solve_pivot(grid, 1e-8)
        exact = (np.log(grid.x1) / math.log(2.0))[:, None]
        errs[n] = float(np.max(np.abs(f.values - exact)))
    ratio = errs[64] / errs[128]

    ok = err_sq <= 1e-10 and errs[64] <= 5e-3 and 3.0 <= ratio <= 5.0
    report(1, "pivot exactness", ok,
           f"square max|z-x| = {err_sq:.2e} (<= 1e-10), annulus err = {errs[64]:.2e} "
           f"(<= 5e-3), refinement ratio = {ratio:.2f} (in [3, 5])")
    assert err_sq <= 1e-10
    assert errs[64] <= 5e-3
    assert 3.0 <= ratio <= 5.0


def test_criterion_2_fixed_point_solver():
    sol = fixed_point_run("diag_nonlinear_molecular")
    assert sol.mesh.size == 1001
    gamma_err = abs(sol.gamma[0] - 1.5)
    u_err = float(np.max(np.abs(sol.profiles[0] - (-1.0 + np.sqrt(1.0 + 3.0 * sol.mesh)))))
    ok = gamma_err <= 1e-8 and u_err <= 1e-7
    report(2, "fixed-point solver", ok,
           f"|gamma1 - 1.5| = {gamma_err:.2e} (<= 1e-8), "
           f"sup|U1 - closed form| = {u_err:.2e} (<= 1e-7, N = 1001)")
    assert gamma_err <= 1e-8
    assert u_err <= 1e-7


def test_criterion_3_shooting_solver():
    regular = shooting_run("sincos_regular")
    gamma_err = float(np.max(np.abs(regular.gamma)))

    with pytest.raises(SingularJacobianError) as exc:
        shooting_run("sincos_resonant")
    condition = exc.value.condition

    det_errs = []
    for p_star in (math.pi / 2, math.pi, 1.5 * math.pi):
        from funcsol.twopoint import ProblemSpec
        spec = ProblemSpec.from_strings(
            2, [["1", "0"], ["0", "1"]], b=["-u2", "u1"], b_next="1",
            u_star=(0.0, 0.0), p_star=p_star, mode="darcy")
        J = shooting_jacobian(spec, np.zeros(2), 1001)[0]
        det_errs.append(abs(np.linalg.det(J) - 2.0 * (1.0 - math.cos(p_star))))
    det_err = max(det_errs)

    ok = gamma_err <= 1e-10 and condition > 1e8 and det_err <= 1e-8
    report(3, "shooting solver", ok,
           f"gamma(pi) = {gamma_err:.2e} (<= 1e-10), resonance condition = "
           f"{condition:.2e} (> 1e8), max det error = {det_err:.2e} (<= 1e-8)")
    assert gamma_err <= 1e-10
    assert condition > 1e8
    assert det_err <= 1e-8


def test_criterion_4_backend_agreement():
    worst = 0.0
    for name in MOLECULAR_ORACLES:
        fp = fixed_point_run(name)
        sh = shooting_run(name)
        scale = max(float(np.linalg.norm(fp.gamma)), 1e-30)
        worst = max(worst, float(np.linalg.norm(fp.gamma - sh.gamma)) / scale)
    ok = worst <= 1e-6
    report(4, "backend agreement", ok,
           f"max relative gamma difference = {worst:.2e} (<= 1e-6) "
           f"over {len(MOLECULAR_ORACLES)} molecular oracles")
    assert worst <= 1e-6


def test_criterion_5_iterate_bound():
    worst = 0.0
    for name in MOLECULAR_ORACLES:
        sol = fixed_point_run(name)
        worst = max(worst, sol.stats["iterate_bound_ratio"])
    ok = worst <= 1.0 + 1e-12
    report(5, "fixed-point iterate bound", ok,
           f"max sup|T[U]| / ((M/m)|u*|) = {worst:.6f} (<= 1)")
    assert worst <= 1.0 + 1e-12


def test_criterion_6_functional_classical_witness():
    case = get_oracle("thm44_scalar")
    grid = build_rectangle(33, 33, 1.0, 1.0)
    piv = solve_pivot(grid, 1e-10)
    sol = solve_scalar(case.spec, bracket_hints=case.bracket_hints,
                       n_nodes=case.n_nodes, tol=case.tol)
    functional = darcy_reconstruct(sol, piv, case.spec)
    direct = direct_coupled_solve(case.spec, grid, tol=1e-10)

    rule_f = float(np.max(np.abs(functional.u_fields[0] - 2.0 * functional.p_field)))
    rule_d = float(np.max(np.abs(direct.u_fields[0] - 2.0 * direct.p_field)))
    cross = compare_fields(functional, direct)["linf"]

    ok = rule_f <= 1e-6 and rule_d <= 1e-6 and cross <= 1e-6
    report(6, "C_F = C witness", ok,
           f"max|u-2p| functional = {rule_f:.2e}, direct = {rule_d:.2e} (<= 1e-6), "
           f"cross-method Linf = {cross:.2e} (<= 1e-6)")
    assert rule_f <= 1e-6
    assert rule_d <= 1e-6
    assert cross <= 1e-6


def test_criterion_7_theta_linearity():
    worst = 0.0
    for name in MOLECULAR_ORACLES:
        case = get_oracle(name)
        sol = solve_fixed_point(case.spec, n_nodes=case.n_nodes, tol=1e-8)
        worst = max(worst, float(np.max(theta_linearity(sol, case.spec))))

    # tolerance scaling measured at a damping that holds the contraction
    # near 1/2, so the stopping index tracks tol with factor-2 granularity
    case = get_oracle("diag_nonlinear_molecular")
    devs = {}
    for tol in (1e-6, 1e-8):
        sol = solve_fixed_point(case.spec, n_nodes=case.n_nodes, tol=tol, damping=0.55)
        devs[tol] = float(np.max(theta_linearity(sol, case.spec)))
    scaling = devs[1e-6] / devs[1e-8]

    ok = worst <= 1e-6 and 50.0 <= scaling <= 200.0
    report(7, "theta-linearity diagnostic", ok,
           f"max deviation at tol 1e-8 = {worst:.2e} (<= 1e-6), "
           f"deviation ratio 1e-6/1e-8 = {scaling:.1f} (in [50, 200])")
    assert worst <= 1e-6
    assert 50.0 <= scaling <= 200.0


def test_criterion_8_kirchhoff_reconstruction():
    case = get_oracle("kirchhoff_exp")
    sol = shooting_run("kirchhoff_exp")
    piv = square_pivot(33)
    fields = darcy_reconstruct(sol, piv, case.spec)
    p_err = float(np.max(np.abs(
        fields.p_field - np.log1p((math.e - 1.0) * piv.values))))

    theta = kirchhoff_theta(sol, case.spec)
    rng = np.random.default_rng(20240817)
    samples = rng.uniform(0.0, case.spec.p_star, 100)
    round_trip = float(np.max(np.abs(
        np.interp(np.interp(samples, sol.mesh, theta), theta, sol.mesh) - samples)))

    ok = p_err <= 1e-6 and round_trip <= 1e-10
    report(8, "Kirchhoff reconstruction", ok,
           f"max|p - log(1+(e-1)z)| = {p_err:.2e} (<= 1e-6), "
           f"Theta round-trip = {round_trip:.2e} (<= 1e-10, 100 samples)")
    assert p_err <= 1e-6
    assert round_trip <= 1e-10


def test_criterion_9_residual_convergence():
    details = []
    ok = True
    for name in RECONSTRUCTED_ORACLES:
        case = get_oracle(name)
        sol = fine_closed_form_solution(name)
        linf = {}
        for n in (33, 65):
            piv = square_pivot(n)
            if case.spec.mode == MOLECULAR:
                fields = compose_fields(sol, piv, case.spec)
            else:
                fields = darcy_reconstruct(sol, piv, case.spec)
            rep = divergence_residual(fields, case.spec, piv.grid)
            linf[n] = rep.per_equation_linf
        for eq, (r33, r65) in enumerate(zip(linf[33], linf[65])):
            if r33 <= DEGENERACY_FLOOR:
                # stencil-exact law (constant or path-linear coefficients):
                # stays at rounding level instead of showing a ratio
                good = r65 <= DEGENERACY_FLOOR
                details.append(f"{name}/eq{eq + 1}: exact ({r33:.1e} -> {r65:.1e})")
            else:
                ratio = r33 / r65
                good = 3.0 <= ratio <= 5.0
                details.append(f"{name}/eq{eq + 1}: ratio {ratio:.2f}")
            ok = ok and good
    report(9, "divergence residual convergence", ok, "; ".join(details))
    assert ok, details


def test_criterion_10_scalar_bracket():
    import funcsol.twopoint as tp
    spec = tp.ProblemSpec.from_strings(1, [["exp(u1)"]], b=["1"], u_star=(1.0,),
                                       p_star=1.0, mode="scalar")
    # constant bounds r = exp(-u*_max) <= F = exp(-u) <= 1 = q
    r_int, q_int = math.exp(-1.0), 1.0
    sol = solve_scalar(spec, bracket_hints=(r_int, q_int), tol=1e-10)
    gamma = sol.gamma[0]
    gamma_err = abs(gamma - (math.e - 1.0))
    lo, hi = 1.0 / q_int, 1.0 / r_int
    inside = lo <= gamma <= hi
    ok = gamma_err <= 1e-8 and inside
    report(10, "scalar solver bracket", ok,
           f"|gamma - (e-1)| = {gamma_err:.2e} (<= 1e-8), gamma = {gamma:.6f} "
           f"inside [{lo:.4f}, {hi:.4f}] = {inside}")
    assert gamma_err <= 1e-8
    assert inside


def test_criterion_11_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["oracle", "--grid", "33", "--out", str(out_a)]) == 0
    assert main(["oracle", "--grid", "33", "--out", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    identical = files_a == files_b and all(
        (out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files_a)
    n_files = len(files_a)
    report(11, "determinism", identical,
           f"two oracle runs at grid 33 produced {n_files} byte-identical files")
    assert files_a, "oracle run wrote no files"
    assert identical
