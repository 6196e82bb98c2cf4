"""Independent checks of reconstructed fields plus a direct coupled solver.

``divergence_residual`` re-discretizes each law of ``ProblemSpec.laws()``
in flux form with arithmetic node-mean face coefficients, reports the
defect of the given fields and checks their boundary values against the
law table; for second-order-accurate inputs the defect shrinks like h^2 under
grid refinement. Note that fields composed from piecewise-linear profiles
carry an interpolation wiggle of order h_profile^2 that the stencil
amplifies by 1/h^2, so refinement studies need the profile mesh fine
enough that h_profile^2 stays well below h^2 * (target residual).
``theta_linearity`` runs the transformed-flux diagnostic for molecular
solutions: the cumulative flux integrals must be linear in the pivot with
slopes gamma_i.

``direct_coupled_solve`` attacks the same laws head on (frozen
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
from .geometry import Grid
from .numerics import cumulative_simpson, derivative_4th, range_scale
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
        return float(np.max(self.per_equation_linf))     # NaN if any law's is


def _check_fields(fields: FieldSet, spec: ProblemSpec, grid: Grid):
    if fields.grid.shape != grid.shape:
        raise ShapeMismatchError(
            f"fields shaped {fields.grid.shape} do not match grid {grid.shape}")
    if fields.n != spec.n:
        raise ShapeMismatchError(f"fields carry {fields.n} components, spec has {spec.n}")
    if spec.mode == DARCY and fields.p_field is None:
        raise ShapeMismatchError(f"{spec.mode} mode requires a pressure field")


def divergence_residual(fields: FieldSet, spec: ProblemSpec, grid: Grid) -> ResidualReport:
    """Flux-form defect of each of ``spec.laws()`` on the equation rows,
    and the largest boundary-value error of the laws' fields.

    Face coefficients are arithmetic means of the node values; gamma2 rows
    fold in through ghost reflection exactly as the solvers treat them, and
    norms run over all non-Dirichlet nodes (L2 as the root mean square).
    """
    _check_fields(fields, spec, grid)
    p = fields.p_field
    state = [*fields.u_fields, p]
    values = spec.values(fields.u_fields, 0.0 if p is None else p)
    mask = grid.unknown_mask
    linf, l2, berr = [], [], []
    for field, boundary, terms in spec.laws():
        total = np.zeros(grid.shape)
        for k, f in terms:
            total += DivergenceStencil(grid, *arithmetic_mean_faces(values[k])).apply(state[f])
        vals = total[mask]
        linf.append(float(np.max(np.abs(vals))))
        scale = range_scale(linf[-1])       # so that vals**2 neither overflows nor underflows
        vals *= scale
        l2.append(float(np.sqrt(np.mean(vals**2))) / scale)
        berr.append(np.max(np.abs(state[field] - dirichlet_targets(grid, boundary))[~mask]))
    return ResidualReport(
        per_equation_linf=tuple(linf),
        per_equation_l2=tuple(l2),
        boundary_max_error=float(np.max(berr)),
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
    solves each law of ``spec.laws()`` for its own field, the law's own
    term implicit and its other flux terms on the right-hand side: first
    the pressure law (if present), then the u_i laws, which read its new
    value but each other's previous values. Stops when the largest nodewise
    field update drops below tol; five consecutive growths of the update
    norm abort with an outer-divergence error. Each linear solve runs to
    0.005 * tol, or to the stencil's roundoff floor if that is larger.
    """
    value_scale = float(max(np.max(np.abs(spec.u_star)), spec.p_star, 1.0))
    laws = spec.laws()
    darcy = spec.mode == DARCY

    def solve_eq(stencil, boundary, source, x0):
        eff = max(0.005 * tol, stencil.residual_floor(value_scale))
        return stencil.solve(dirichlet_targets(grid, boundary), source=source,
                             tol=eff, x0=x0)[0]

    # initial fields: the constant-coefficient solution u_i = u_i* z, p = p* z
    z0 = solve_eq(DivergenceStencil(grid, *unit_faces(grid)), 1.0, None, None)
    fields = [boundary * z0 for _, boundary, _ in laws]

    grow_streak = 0
    prev_update = np.inf
    for outer in range(1, max_outer + 1):
        states = {f"u{i+1}": fields[i] for i in range(spec.n)}
        states["p"] = fields[-1] if darcy else np.zeros(grid.shape)
        new = list(fields)
        for stage in (laws[spec.n:], laws[:spec.n]):    # the pressure law first
            known = list(new)
            for field, boundary, terms in stage:
                source = 0.0
                for k, f in terms:
                    stencil = DivergenceStencil(grid, *_simpson_faces(spec.bundle.nodes[k], states))
                    if f == field:
                        own = stencil
                    else:
                        source = source - stencil.apply(known[f])
                new[field] = solve_eq(own, boundary, source, known[field])
        update = max(float(np.max(np.abs(a - b))) for a, b in zip(new, fields))
        fields = new
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
    return FieldSet(grid=grid, u_fields=np.stack(fields[:spec.n]),
                    p_field=fields[-1] if darcy else None)
