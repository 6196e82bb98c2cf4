"""Mixed Dirichlet/Neumann solver for the pivot field and its linear machinery.

The pivot z solves Laplace's equation with z=0 on gamma1, dz/dn=0 on
gamma2 and z=1 on gamma3, discretized by the 5-point stencil (flux form,
ghost-node reflection on Neumann edges, identity rows on Dirichlet
nodes). On polar grids the operator carries the metric terms
z_rr + z_r/r + z_tt/r^2, which the face-radius flux form reproduces
node-exactly.

The same machinery generalizes to variable coefficients div(c grad u) = s
and is reused by the direct coupled solver and the residual checker. Rows
are symmetrized with half weights on Neumann edges (and a factor r on
polar grids), which makes the reduced system SPD so plain conjugate
gradients with diagonal scaling applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PivotConvergenceError
from .geometry import GAMMA1, GAMMA3, POLAR, Grid

CG_ITER_FACTOR = 50


@dataclass(frozen=True)
class PivotField:
    grid: Grid
    values: np.ndarray
    achieved_residual: float
    iterations: int

    def __post_init__(self):
        self.values.setflags(write=False)


class DivergenceStencil:
    """Flux-form div(c grad u) on one grid, with fixed face coefficients.

    cfx has shape (n1-1, n2) (faces along axis 1), cfy has shape (n1, n2-1).
    apply() returns the physical divergence on equation rows (interior and
    gamma2 nodes, ghost-reflected) and zero elsewhere.
    """

    def __init__(self, grid: Grid, cfx: np.ndarray, cfy: np.ndarray):
        n1, n2 = grid.shape
        if cfx.shape != (n1 - 1, n2) or cfy.shape != (n1, n2 - 1):
            raise ValueError("face coefficient arrays do not match the grid")
        self.grid = grid
        self.h1, self.h2 = grid.spacing
        if grid.coord_system == POLAR:
            self.rvec = np.asarray(grid.x1, dtype=float)
        else:
            self.rvec = np.ones(n1)
        rface = 0.5 * (self.rvec[:-1] + self.rvec[1:])
        self.cfx = cfx * rface[:, None]
        self.cfy = cfy
        self.unknown = grid.unknown_mask
        # row symmetrization weights: half cells on Neumann edges (per
        # column), times the metric r
        self.w_edge = np.ones(n2)
        self.w_edge[0] *= 0.5
        self.w_edge[-1] *= 0.5
        self.w_sym = self.w_edge * self.rvec[:, None]
        self.n_unknowns = int(self.unknown.sum())

    def _metric_div(self, u):
        """r * div(c grad u) on equation rows, zero on Dirichlet rows."""
        out = np.zeros(self.grid.shape)
        fx = self.cfx * (u[1:, :] - u[:-1, :])
        out[1:-1, :] += (fx[1:, :] - fx[:-1, :]) / self.h1**2
        fy = self.cfy * (u[:, 1:] - u[:, :-1])
        rcol = self.rvec[:, None]
        out[:, 1:-1] += (fy[:, 1:] - fy[:, :-1]) / (self.h2**2 * rcol)
        out[:, 0] += 2.0 * fy[:, 0] / (self.h2**2 * self.rvec)
        out[:, -1] += -2.0 * fy[:, -1] / (self.h2**2 * self.rvec)
        out[~self.unknown] = 0.0
        return out

    def apply(self, u):
        return self._metric_div(u) / self.rvec[:, None]

    def _sym_op(self, v):
        """SPD operator on masked unknowns: -w_edge * r * div(c grad .)."""
        return -(self._metric_div(v * self.unknown) * self.w_edge) * self.unknown

    def _sym_diag(self):
        d = np.zeros(self.grid.shape)
        d[1:-1, :] += (self.cfx[1:, :] + self.cfx[:-1, :]) / self.h1**2
        rcol = self.rvec[:, None]
        d[:, 1:-1] += (self.cfy[:, 1:] + self.cfy[:, :-1]) / (self.h2**2 * rcol)
        d[:, 0] += 2.0 * self.cfy[:, 0] / (self.h2**2 * self.rvec)
        d[:, -1] += 2.0 * self.cfy[:, -1] / (self.h2**2 * self.rvec)
        d *= self.w_edge
        d[~self.unknown] = 1.0
        return d

    def residual_floor(self, value_scale: float = 1.0) -> float:
        """Roundoff level of the physical residual for fields of the given size.

        Row magnitudes scale with the stencil diagonal, so no solution can
        be certified much below eps * diag * |u|; callers picking an inner
        tolerance should not ask for less.
        """
        diag = self._sym_diag() / self.w_edge
        return 30.0 * np.finfo(float).eps * float(diag.max()) * max(1.0, value_scale)

    def solve(self, dirichlet_values, source=None, tol=1e-10, x0=None):
        """Solve div(c grad u) = source with the given Dirichlet data.

        Returns (values, iterations). Diagonally scaled CG stops as soon as
        the recomputed physical residual drops below tol. Otherwise it
        raises PivotConvergenceError at the first exit where more iterations
        cannot help: the CG residual recurrence has fallen to roundoff, CG
        broke down, or the iteration cap was reached.
        """
        grid = self.grid
        u_dir = np.where(self.unknown, 0.0, dirichlet_values)
        src = np.zeros(grid.shape) if source is None else source
        # A x = w*(r div) of the Dirichlet part - w_sym*src, with A = -w*(r div(.))
        b = self._metric_div(u_dir) * self.w_edge - src * self.w_sym
        b[~self.unknown] = 0.0

        def phys_residual(x):
            r = self.apply(x + u_dir) - src
            return float(np.max(np.abs(r[self.unknown])))

        x = np.zeros(grid.shape) if x0 is None else np.where(self.unknown, x0, 0.0)
        diag = self._sym_diag()
        r = (b - self._sym_op(x)) * self.unknown
        z = r / diag
        p = z.copy()
        rz = float(np.sum(r * z))
        cap = CG_ITER_FACTOR * int(np.sqrt(self.n_unknowns)) + 10
        it = 0
        if phys_residual(x) <= tol:
            return x + u_dir, 0
        stop = "it reached the iteration cap"
        while it < cap:
            it += 1
            Ap = self._sym_op(p)
            pAp = float(np.sum(p * Ap))
            if pAp <= 0.0 or not np.isfinite(pAp):
                stop = "CG broke down"
                break
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            if it % 10 == 0 or rz < 1e-30:
                if phys_residual(x) <= tol:
                    return x + u_dir, it
                if rz < 1e-30:
                    stop = "its residual recurrence fell to roundoff"
                    break
            z = r / diag
            rz_new = float(np.sum(r * z))
            if rz_new <= 0.0 or not np.isfinite(rz_new):
                stop = "CG broke down"
                break
            p = z + (rz_new / rz) * p
            rz = rz_new
        res = phys_residual(x)
        if res <= tol:
            return x + u_dir, it
        raise PivotConvergenceError(
            f"linear solve stopped at residual {res:.3e} (target {tol:.3e}) after {it} "
            f"CG iterations on {self.n_unknowns} unknowns: {stop}"
        )


def unit_faces(grid: Grid):
    n1, n2 = grid.shape
    return np.ones((n1 - 1, n2)), np.ones((n1, n2 - 1))


def arithmetic_mean_faces(c_nodes: np.ndarray):
    """Face coefficients as plain arithmetic means of the node values."""
    cfx = 0.5 * (c_nodes[:-1, :] + c_nodes[1:, :])
    cfy = 0.5 * (c_nodes[:, :-1] + c_nodes[:, 1:])
    return cfx, cfy


def dirichlet_targets(grid: Grid, gamma1_value: float, gamma3_value: float):
    d = np.zeros(grid.shape)
    d[grid.mask(GAMMA1)] = gamma1_value
    d[grid.mask(GAMMA3)] = gamma3_value
    return d


def _ramp_guess(grid: Grid):
    t = (grid.x1 - grid.x1[0]) / (grid.x1[-1] - grid.x1[0])
    return np.repeat(t[:, None], grid.n2, axis=1)


def solve_pivot(grid: Grid, tol: float, initial_guess: np.ndarray | None = None) -> PivotField:
    """Solve the mixed pivot problem to a discrete L-inf residual <= tol."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    cfx, cfy = unit_faces(grid)
    stencil = DivergenceStencil(grid, cfx, cfy)
    bc = dirichlet_targets(grid, 0.0, 1.0)
    x0 = _ramp_guess(grid) if initial_guess is None else initial_guess
    values, iters = stencil.solve(bc, tol=tol, x0=x0)
    field = PivotField(grid, values, achieved_residual=pivot_residual_values(grid, values),
                       iterations=iters)
    vmin, vmax = float(values.min()), float(values.max())
    if vmin < 0.0 or vmax > 1.0:
        raise PivotConvergenceError(
            f"discrete maximum principle violated: values span [{vmin}, {vmax}]"
        )
    return field


def pivot_residual_values(grid: Grid, values: np.ndarray) -> float:
    """L-inf norm of the plain 5-point residual, recomputed independently.

    Uses the non-conservative stencil (second differences plus metric
    terms) rather than the solver's flux form; the two agree node-exactly,
    which makes this an independent check of the assembly.
    """
    h1, h2 = grid.spacing
    u = values
    lap = np.zeros(grid.shape)
    lap[1:-1, :] += (u[:-2, :] - 2.0 * u[1:-1, :] + u[2:, :]) / h1**2
    if grid.coord_system == POLAR:
        r = grid.x1[:, None]
        lap[1:-1, :] += (u[2:, :] - u[:-2, :]) / (2.0 * h1 * r[1:-1])
        tfac = 1.0 / (h2**2 * r**2)
    else:
        tfac = np.full((grid.n1, 1), 1.0 / h2**2)
    lap[:, 1:-1] += (u[:, :-2] - 2.0 * u[:, 1:-1] + u[:, 2:]) * tfac
    lap[:, 0] += 2.0 * (u[:, 1] - u[:, 0]) * tfac[:, 0]
    lap[:, -1] += 2.0 * (u[:, -2] - u[:, -1]) * tfac[:, 0]
    return float(np.max(np.abs(lap[grid.unknown_mask])))


def pivot_residual(field: PivotField) -> float:
    return pivot_residual_values(field.grid, field.values)
