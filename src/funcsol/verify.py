"""Independent checks of reconstructed fields plus a direct coupled solver.

``divergence_residual`` re-discretizes each law of ``ProblemSpec.laws()``
in flux form with arithmetic node-mean face coefficients, reports the
defect of the given fields and checks their boundary values against the
law table; for second-order-accurate inputs the defect shrinks like h^2 under
grid refinement. Note that fields composed from piecewise-linear profiles
carry an interpolation wiggle of order h_profile^2 that the stencil
amplifies by 1/h^2, so refinement studies need the profile mesh fine
enough that h_profile^2 stays well below h^2 * (target residual).
Every field stage 3 and the direct solver build is constant along x2, as
the pivot is. When each row of every field a check reads holds one bit
pattern (``numerics.on_columns``), ``divergence_residual`` and
``compare_fields`` read the first x1 column, at O(n1) cost, and report
the whole grid's numbers with their bits (``compare_fields``' L2 up to
rounding); any other field is checked on the whole grid. Both refuse
fields whose grid differs from the other in shape, coordinate system or
any node.
``theta_linearity`` runs the transformed-flux diagnostic for molecular
solutions: the cumulative flux integrals must be linear in the pivot with
slopes gamma_i. It integrates the two-point defect of
``twopoint.collocation_defect``, the one defect whose interior maximum is
the solution's ``two_point_residual``, and evaluates no coefficient itself.

``direct_coupled_solve`` attacks the same laws head on (frozen
coefficient Picard iterations around the pivot module's stencil) and
serves as the cross-validation oracle for comparing functional
solutions against plain classical ones. Its face coefficients use a
Simpson blend (endpoint values plus a midpoint-state evaluation) rather
than the checker's plain mean: the blend integrates quadratic coefficient
profiles across a face exactly, which is what makes the linear-profile
Kirchhoff benchmarks agree with the functional pipeline to solver
precision instead of to discretization error. Like the checks, it reads
the spec's compiled coefficients (``ProblemSpec.values``), two calls a sweep.
Every system it poses is invariant along x2: the Dirichlet data fill whole
rows with one value each, the gamma2 columns are insulated and the
coefficients read only the fields. So each sweep's solution is constant
along x2, no flux crosses a y-face, and each law's solve is one exact
tridiagonal elimination along x1 (``DivergenceStencil.solve``). The
solver sweeps one column of the caller's x1 nodes, with x-faces alone;
its fields come back as read-only views of their columns broadcast over
the caller's grid, as stage 3's do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OuterDivergenceError, ShapeMismatchError
from .geometry import Grid
from .numerics import check_tol, on_columns, range_scale
from .pivot import DivergenceStencil, dirichlet_targets, flux_divergence, pivot_values
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


def _check_same_grid(a: Grid, b: Grid):
    """Refuse, as ShapeMismatchError, grids that differ in shape, coordinate
    system or any node coordinate."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"grids differ: {a.shape} vs {b.shape}")
    if a.coord_system != b.coord_system:
        raise ShapeMismatchError(f"grids differ: {a.coord_system} vs {b.coord_system}")
    if not (np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)):
        raise ShapeMismatchError(f"grids of shape {a.shape} differ in their node coordinates")


def _check_fields(fields: FieldSet, spec: ProblemSpec, grid: Grid):
    _check_same_grid(fields.grid, grid)
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
    boundary error over the first (gamma1) and last (gamma3) rows. When the
    rows of every field each hold one bit pattern, all of it runs on the
    fields' first columns (``flux_divergence`` with m = 1), with the same
    bits: the L2 mean runs over the column's squares repeated along x2,
    which sums the whole grid's squares in their order.
    """
    _check_fields(fields, spec, grid)
    u, p = on_columns(fields.u_fields, fields.p_field)
    state = [*u, p]
    values = spec.values(u, 0.0 if p is None else p)
    linf, l2, berr = [], [], []
    for field, boundary, terms in spec.laws():
        vals = sum(flux_divergence(grid, values[k], state[f]) for k, f in terms)[1:-1]
        linf.append(float(np.max(np.abs(vals))))
        scale = range_scale(linf[-1])       # so that vals**2 neither overflows nor underflows
        vals *= scale
        # a column's squares repeated along x2: the whole grid's squares, in their order
        l2.append(float(np.sqrt(np.mean(np.repeat(vals**2, grid.n2 // vals.shape[1], axis=1))))
                  / scale)
        targets = dirichlet_targets(grid, boundary)[:, :vals.shape[1]]
        berr.append(np.max(np.abs(state[field] - targets)[[0, -1]]))
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
    """Node-wise difference norms over the fields both sets carry, on the
    same grid. When the rows of every field each hold one bit pattern, both
    run on the fields' first columns: linf keeps the whole grid's bits, and
    the L2 mean of the column equals the whole grid's up to rounding."""
    _check_same_grid(a.grid, b.grid)
    if a.n != b.n:
        raise ShapeMismatchError(f"component counts differ: {a.n} vs {b.n}")
    if (a.p_field is None) != (b.p_field is None):
        raise ShapeMismatchError("one field set has a pressure field, the other does not")
    au, ap, bu, bp = on_columns(a.u_fields, a.p_field, b.u_fields, b.p_field)
    diffs = [au - bu]
    if ap is not None:
        diffs.append((ap - bp)[None])
    stacked = np.concatenate([d.ravel() for d in diffs])
    return {"linf": float(np.max(np.abs(stacked))),
            "l2": float(np.sqrt(np.mean(stacked**2)))}


def _simpson_faces(spec: ProblemSpec, state, used):
    """Simpson-blend x-face coefficients {k: faces} of the entries ``used``
    of ``spec.values``, at the node columns ``state`` (u_1..u_n, p).

    A face value combines the two endpoint values with four times the value
    at the averaged state, making the quadrature exact for coefficients
    quadratic along the face.
    """
    def at(s):
        return spec.values(s[:-1], s[-1])

    c = at(state)
    mid = at([0.5 * (v[:-1] + v[1:]) for v in state])
    return {k: (c[k][:-1] + 4.0 * mid[k] + c[k][1:]) / 6.0 for k in used}


def direct_coupled_solve(spec: ProblemSpec, grid: Grid, tol: float = 1e-9) -> FieldSet:
    """Frozen-coefficient Picard iteration on the coupled PDE system.

    Each outer sweep freezes every coefficient at the current fields and
    solves each law of ``spec.laws()`` for its own field, the law's own
    term implicit and its other flux terms on the right-hand side: first
    the pressure law (if present), then the u_i laws, each law reading the
    newest value of every field (Gauss-Seidel order). Stops when the largest
    nodewise field update drops below tol; five consecutive growths of the
    update, an update past value_scale / sqrt(eps) (or not finite), or
    MAX_SWEEPS sweeps abort with an outer-divergence error. Each law's
    solve is exact, one elimination along x1 from no starting guess, and a
    frozen system that is not positive definite ends as the stencil's
    PivotConvergenceError. The sweeps run on (n1,) columns (exact: module
    docstring); the fields come back on ``grid`` as read-only views of their
    columns.
    """
    check_tol(tol)
    value_scale = float(max(np.max(np.abs(spec.u_star)), spec.p_star, 1.0))
    blow_up = value_scale / np.sqrt(np.finfo(float).eps)
    laws = spec.laws()
    darcy = spec.mode == DARCY
    used = [k for _, _, terms in laws for k, _ in terms]

    # initial fields: the constant-coefficient solution u_i = u_i* z, p = p* z
    z0 = pivot_values(grid)[:, 0]
    fields = [boundary * z0 for _, boundary, _ in laws]

    grow_streak = 0
    prev_update = np.inf
    for outer in range(1, MAX_SWEEPS + 1):
        faces = _simpson_faces(spec, fields if darcy else [*fields, np.zeros(grid.n1)], used)
        new = list(fields)
        for field, boundary, terms in laws[spec.n:] + laws[:spec.n]:    # the pressure law first
            source = 0.0
            for k, f in terms:
                stencil = DivergenceStencil(grid, faces.pop(k))     # read once
                if f == field:
                    own = stencil
                else:
                    source = source - stencil.apply(new[f])
            new[field] = own.solve(dirichlet_targets(grid, boundary)[:, 0], source)[0]
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
    u = np.broadcast_to(np.stack(fields[:spec.n])[:, :, None], (spec.n,) + grid.shape)
    p = np.broadcast_to(fields[-1][:, None], grid.shape) if darcy else None
    return FieldSet(grid=grid, u_fields=u, p_field=p)
