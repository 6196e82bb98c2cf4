"""Independent checks of reconstructed fields plus a direct coupled solver.

``divergence_residual`` re-discretizes each conservation law in flux form
with arithmetic node-mean face coefficients and reports the defect of the
given fields; for second-order-accurate inputs it shrinks like h^2 under
grid refinement. Note that fields composed from piecewise-linear profiles
carry an interpolation wiggle of order h_profile^2 that the stencil
amplifies by 1/h^2, so refinement studies need the profile mesh fine
enough that h_profile^2 stays well below h^2 * (target residual).
``theta_linearity`` runs the transformed-flux diagnostic for molecular
solutions: the cumulative flux integrals must be linear in the pivot with
slopes gamma_i.

``direct_coupled_solve`` attacks the PDE system head on (frozen
coefficient Picard iterations around the pivot module's linear machinery)
and serves as the cross-validation oracle for comparing functional
solutions against plain classical ones. Its face coefficients use a
Simpson blend (endpoint values plus a midpoint-state evaluation) rather
than the checker's plain mean: the blend integrates quadratic coefficient
profiles across a face exactly, which is what makes the linear-profile
Kirchhoff benchmarks agree with the functional pipeline to solver
precision instead of to discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .errors import OuterDivergenceError, ShapeMismatchError
from .geometry import GAMMA1, GAMMA3, Grid
from .numerics import cumulative_simpson, derivative_4th
from .pivot import (DivergenceStencil, arithmetic_mean_faces, dirichlet_targets,
                    unit_faces)
from .reconstruct import FieldSet
from .twopoint import DARCY, MOLECULAR, ProblemSpec, ProfileSolution


@dataclass(frozen=True)
class ResidualReport:
    per_equation_linf: tuple
    per_equation_l2: tuple
    boundary_max_error: float
    grid_spacing: tuple

    @property
    def max_linf(self):
        return max(self.per_equation_linf)


def _check_fields(fields: FieldSet, spec: ProblemSpec, grid: Grid):
    if fields.grid.shape != grid.shape:
        raise ShapeMismatchError(
            f"fields shaped {fields.grid.shape} do not match grid {grid.shape}")
    if fields.n != spec.n:
        raise ShapeMismatchError(f"fields carry {fields.n} components, spec has {spec.n}")
    if spec.mode == DARCY and fields.p_field is None:
        raise ShapeMismatchError(f"{spec.mode} mode requires a pressure field")


def _equation_fluxpairs(spec: ProblemSpec, u_fields, p_field):
    """Per conservation law: list of (coefficient nodes, field) flux pairs."""
    A, b, b_next = spec.coefficients(u_fields, 0.0 if p_field is None else p_field)
    equations = []
    for i in range(spec.n):
        pairs = [(A[..., i, j], u_fields[j]) for j in range(spec.n)]
        if b is not None:
            pairs.append((b[..., i], p_field))
        equations.append(pairs)
    if spec.mode == DARCY:
        equations.append([(b_next, p_field)])
    return equations


def divergence_residual(fields: FieldSet, spec: ProblemSpec, grid: Grid) -> ResidualReport:
    """Flux-form defect of each conservation law on the equation rows.

    Face coefficients are arithmetic means of the node values; gamma2 rows
    fold in through ghost reflection exactly as the solvers treat them, and
    norms run over all non-Dirichlet nodes (L2 as the root mean square).
    """
    _check_fields(fields, spec, grid)
    shape = grid.shape
    p = fields.p_field
    mask = grid.unknown_mask
    linf, l2 = [], []
    for pairs in _equation_fluxpairs(spec, fields.u_fields, p):
        total = np.zeros(shape)
        for c_nodes, f in pairs:
            cfx, cfy = arithmetic_mean_faces(c_nodes)
            total += DivergenceStencil(grid, cfx, cfy).apply(f)
        vals = total[mask]
        linf.append(float(np.max(np.abs(vals))))
        l2.append(float(np.sqrt(np.mean(vals**2))))
    bmax = 0.0
    for i in range(spec.n):
        bmax = max(bmax, float(np.max(np.abs(fields.u_fields[i][grid.mask(GAMMA1)]))))
        bmax = max(bmax, float(np.max(np.abs(fields.u_fields[i][grid.mask(GAMMA3)] - spec.u_star[i]))))
    if p is not None:
        bmax = max(bmax, float(np.max(np.abs(p[grid.mask(GAMMA1)]))))
        bmax = max(bmax, float(np.max(np.abs(p[grid.mask(GAMMA3)] - spec.p_star))))
    return ResidualReport(
        per_equation_linf=tuple(linf),
        per_equation_l2=tuple(l2),
        boundary_max_error=bmax,
        grid_spacing=grid.spacing,
    )


def theta_linearity(sol: ProfileSolution, spec: ProblemSpec) -> np.ndarray:
    """Deviation of the cumulative transformed fluxes from gamma_i * z.

    theta_i(z) = int_0^z sum_j a_ij(U(t)) U_j'(t) dt must equal gamma_i z
    for an exact solution; the returned vector holds max_z |theta_i - gamma_i z|.
    """
    if spec.mode != MOLECULAR:
        raise ValueError("the theta diagnostic applies to molecular problems")
    mesh, U = sol.mesh, sol.profiles
    h = mesh[1] - mesh[0]
    dU = derivative_4th(U, h, axis=-1)
    A = spec.coefficients(U, mesh)[0]
    integrand = np.einsum("kij,jk->ik", A, dU)
    theta = cumulative_simpson(integrand, h, axis=-1)
    return np.max(np.abs(theta - sol.gamma[:, None] * mesh[None, :]), axis=-1)


def compare_fields(a: FieldSet, b: FieldSet) -> dict:
    """Node-wise difference norms over the fields both sets carry."""
    if a.grid.shape != b.grid.shape:
        raise ShapeMismatchError(f"grids differ: {a.grid.shape} vs {b.grid.shape}")
    if a.n != b.n:
        raise ShapeMismatchError(f"component counts differ: {a.n} vs {b.n}")
    diffs = [a.u_fields - b.u_fields]
    if (a.p_field is None) != (b.p_field is None):
        raise ShapeMismatchError("one field set has a pressure field, the other does not")
    if a.p_field is not None:
        diffs.append((a.p_field - b.p_field)[None, :, :])
    stacked = np.concatenate([d.ravel() for d in diffs])
    return {"linf": float(np.max(np.abs(stacked))),
            "l2": float(np.sqrt(np.mean(stacked**2)))}


def _simpson_faces(expr, states):
    """Simpson-blend face coefficients (x faces, y faces) of one expression.

    ``states`` maps variable names to node arrays; the face value combines
    the two endpoint evaluations with four times the evaluation at the
    averaged state, making the quadrature exact for coefficients quadratic
    along the face.
    """
    def at(average):
        env = {k: average(v) for k, v in states.items()}
        return np.broadcast_to(exprlang.evaluate(expr, env), env["p"].shape)

    c = at(lambda v: v)
    cfx = (c[:-1, :] + 4.0 * at(lambda v: 0.5 * (v[:-1, :] + v[1:, :])) + c[1:, :]) / 6.0
    return cfx, (c[:, :-1] + 4.0 * at(lambda v: 0.5 * (v[:, :-1] + v[:, 1:])) + c[:, 1:]) / 6.0


def direct_coupled_solve(spec: ProblemSpec, grid: Grid, tol: float = 1e-9,
                         max_outer: int = 200) -> FieldSet:
    """Frozen-coefficient Picard iteration on the coupled PDE system.

    Each outer sweep freezes every coefficient at the current fields and
    solves one linear divergence-form problem per unknown field: first the
    pressure law (if present), then each u_i with the off-diagonal and
    pressure fluxes moved to the right-hand side. Stops when the largest
    nodewise field update drops below tol; five consecutive growths of the
    update norm abort with an outer-divergence error. Each linear solve
    runs to 0.005 * tol, or to the stencil's roundoff floor if that is larger.
    """
    value_scale = float(max(np.max(np.abs(spec.u_star)), spec.p_star, 1.0))

    def solve_eq(stencil, bc, source, x0):
        eff = max(0.005 * tol, stencil.residual_floor(value_scale))
        return stencil.solve(bc, source=source, tol=eff, x0=x0)[0]

    # initial fields: the constant-coefficient solution u_i = u_i* z, p = p* z
    z0 = solve_eq(DivergenceStencil(grid, *unit_faces(grid)), dirichlet_targets(grid, 0.0, 1.0),
                  None, None)
    u = np.stack([us * z0 for us in spec.u_star])
    p = spec.p_star * z0 if spec.mode == DARCY else None

    grow_streak = 0
    prev_update = np.inf
    for outer in range(1, max_outer + 1):
        states = {f"u{i+1}": u[i] for i in range(spec.n)}
        states["p"] = np.zeros(grid.shape) if p is None else p
        update = 0.0
        p_new = p
        if p is not None:
            cfx, cfy = _simpson_faces(spec.b_next, states)
            p_new = solve_eq(DivergenceStencil(grid, cfx, cfy),
                             dirichlet_targets(grid, 0.0, spec.p_star), None, p)
            update = max(update, float(np.max(np.abs(p_new - p))))
        u_new = np.empty_like(u)
        for i in range(spec.n):
            cfx, cfy = _simpson_faces(spec.a[i][i], states)
            source = np.zeros(grid.shape)
            for j in range(spec.n):
                if j != i:
                    ox, oy = _simpson_faces(spec.a[i][j], states)
                    source -= DivergenceStencil(grid, ox, oy).apply(u[j])
            if spec.b is not None:
                bx, by = _simpson_faces(spec.b[i], states)
                source -= DivergenceStencil(grid, bx, by).apply(p_new)
            u_new[i] = solve_eq(DivergenceStencil(grid, cfx, cfy),
                                dirichlet_targets(grid, 0.0, spec.u_star[i]), source, u[i])
            update = max(update, float(np.max(np.abs(u_new[i] - u[i]))))
        u, p = u_new, p_new
        if update <= tol:
            break
        grow_streak = grow_streak + 1 if update > prev_update else 0
        if grow_streak >= 5:
            raise OuterDivergenceError(
                f"outer Picard updates grew for {grow_streak} consecutive iterations "
                f"(last update {update:.3e})")
        prev_update = update
    else:
        raise OuterDivergenceError(
            f"outer Picard iteration did not reach {tol:.3e} in {max_outer} sweeps "
            f"(last update {update:.3e})")
    return FieldSet(grid=grid, u_fields=u, p_field=p)
