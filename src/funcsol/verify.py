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
slopes gamma_i. It integrates the two-point defect of
``twopoint.collocation_defect``, the one defect whose interior maximum is
the solution's ``two_point_residual``, and evaluates no coefficient itself.

``direct_coupled_solve`` attacks the same laws head on (frozen
coefficient Picard iterations around the pivot module's linear machinery)
and serves as the cross-validation oracle for comparing functional
solutions against plain classical ones. Its face coefficients use a
Simpson blend (endpoint values plus a midpoint-state evaluation) rather
than the checker's plain mean: the blend integrates quadratic coefficient
profiles across a face exactly, which is what makes the linear-profile
Kirchhoff benchmarks agree with the functional pipeline to solver
precision instead of to discretization error. Like the checks, it reads
the spec's compiled coefficients (``ProblemSpec.values``), three calls a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OuterDivergenceError, ShapeMismatchError
from .geometry import Grid
from .numerics import range_scale
from .pivot import DivergenceStencil, arithmetic_mean_faces, dirichlet_targets, pivot_values
from .reconstruct import FieldSet
from .twopoint import DARCY, MOLECULAR, ProblemSpec, ProfileSolution, collocation_defect

MAX_SWEEPS = 200        # outer Picard sweeps of direct_coupled_solve


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
    fold in through ghost reflection exactly as the solvers treat them, the
    norms (L2 as the root mean square) run over the equation rows, and the
    boundary error over the first (gamma1) and last (gamma3) rows.
    """
    _check_fields(fields, spec, grid)
    p = fields.p_field
    state = [*fields.u_fields, p]
    values = spec.values(fields.u_fields, 0.0 if p is None else p)
    linf, l2, berr = [], [], []
    for field, boundary, terms in spec.laws():
        total = np.zeros(grid.shape)
        for k, f in terms:
            total += DivergenceStencil(grid, *arithmetic_mean_faces(values[k])).apply(state[f])
        vals = total[1:-1]
        linf.append(float(np.max(np.abs(vals))))
        scale = range_scale(linf[-1])       # so that vals**2 neither overflows nor underflows
        vals *= scale
        l2.append(float(np.sqrt(np.mean(vals**2))) / scale)
        berr.append(np.max(np.abs(state[field] - dirichlet_targets(grid, boundary))[[0, -1]]))
    return ResidualReport(
        per_equation_linf=tuple(linf),
        per_equation_l2=tuple(l2),
        boundary_max_error=float(np.max(berr)),
        grid_spacing=grid.spacing,
    )


def theta_linearity(sol: ProfileSolution, spec: ProblemSpec) -> np.ndarray:
    """Deviation of the cumulative transformed fluxes from gamma_i * z.

    theta_i(z) = int_0^z sum_j a_ij(U(t)) U_j'(t) dt must equal gamma_i z
    for an exact solution. theta_i - gamma_i z is the running integral of
    the two-point defect d_i = sum_j a_ij U_j' - gamma_i, which
    ``twopoint.collocation_defect`` gives at every interval midpoint; the
    returned vector holds max_z |h cumsum(d_i)|, its midpoint-rule integral.
    """
    if spec.mode != MOLECULAR:
        raise ValueError("the theta diagnostic applies to molecular problems")
    d = collocation_defect(sol.mesh, sol.profiles, sol.gamma, spec)
    return (sol.mesh[1] - sol.mesh[0]) * np.max(np.abs(np.cumsum(d, axis=-1)), axis=-1)


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


def _simpson_faces(spec: ProblemSpec, state, used):
    """Simpson-blend face coefficients {k: (x faces, y faces)} of the entries
    ``used`` of ``spec.values``, at the node fields ``state`` (u_1..u_n, p).

    A face value combines the two endpoint values with four times the value
    at the averaged state, making the quadrature exact for coefficients
    quadratic along the face.
    """
    def at(s):
        return spec.values(s[:-1], s[-1])

    c = at(state)
    mid_x = at([0.5 * (v[:-1, :] + v[1:, :]) for v in state])
    mid_y = at([0.5 * (v[:, :-1] + v[:, 1:]) for v in state])
    return {k: ((c[k][:-1, :] + 4.0 * mid_x[k] + c[k][1:, :]) / 6.0,
                (c[k][:, :-1] + 4.0 * mid_y[k] + c[k][:, 1:]) / 6.0) for k in used}


def direct_coupled_solve(spec: ProblemSpec, grid: Grid, tol: float = 1e-9) -> FieldSet:
    """Frozen-coefficient Picard iteration on the coupled PDE system.

    Each outer sweep freezes every coefficient at the current fields and
    solves each law of ``spec.laws()`` for its own field, the law's own
    term implicit and its other flux terms on the right-hand side: first
    the pressure law (if present), then the u_i laws, each law reading the
    newest value of every field (Gauss-Seidel order). Stops when the largest
    nodewise field update drops below tol; five consecutive growths of the
    update, an update past value_scale / sqrt(eps) (or not finite), or
    MAX_SWEEPS sweeps abort with an outer-divergence error. Each linear
    solve runs to 0.005 * tol, or to the stencil's roundoff floor for its
    source if larger: a diverging sweep's source grows with its fields.
    """
    value_scale = float(max(np.max(np.abs(spec.u_star)), spec.p_star, 1.0))
    blow_up = value_scale / np.sqrt(np.finfo(float).eps)
    laws = spec.laws()
    darcy = spec.mode == DARCY
    used = [k for _, _, terms in laws for k, _ in terms]

    def solve_eq(stencil, boundary, source, x0):
        eff = max(0.005 * tol, stencil.residual_floor(value_scale, source))
        return stencil.solve(dirichlet_targets(grid, boundary), source=source,
                             tol=eff, x0=x0)[0]

    # initial fields: the constant-coefficient solution u_i = u_i* z, p = p* z
    z0 = pivot_values(grid)
    fields = [boundary * z0 for _, boundary, _ in laws]

    grow_streak = 0
    prev_update = np.inf
    for outer in range(1, MAX_SWEEPS + 1):
        faces = _simpson_faces(spec, fields if darcy else [*fields, np.zeros(grid.shape)], used)
        new = list(fields)
        for field, boundary, terms in laws[spec.n:] + laws[:spec.n]:    # the pressure law first
            source = 0.0
            for k, f in terms:
                stencil = DivergenceStencil(grid, *faces.pop(k))    # read once
                if f == field:
                    own = stencil
                else:
                    source = source - stencil.apply(new[f])
            new[field] = solve_eq(own, boundary, source, new[field])
        update = max(float(np.max(np.abs(a - b))) for a, b in zip(new, fields))
        fields = new
        if update <= tol:
            break
        if not update <= blow_up:
            raise OuterDivergenceError(f"outer Picard update {update:.3e} at sweep {outer} "
                                       f"left the fields' scale (limit {blow_up:.3e})")
        grow_streak = grow_streak + 1 if update > prev_update else 0
        if grow_streak >= 5:
            raise OuterDivergenceError(
                f"outer Picard updates grew for {grow_streak} consecutive iterations "
                f"(last update {update:.3e})")
        prev_update = update
    else:
        raise OuterDivergenceError(
            f"outer Picard iteration did not reach {tol:.3e} in {MAX_SWEEPS} sweeps "
            f"(last update {update:.3e})")
    return FieldSet(grid=grid, u_fields=np.stack(fields[:spec.n]),
                    p_field=fields[-1] if darcy else None)
