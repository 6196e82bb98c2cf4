"""The pivot field in closed form, and the stencil machinery of the other stages.

The pivot z solves Laplace's equation with z=0 on gamma1, dz/dn=0 on
gamma2 and z=1 on gamma3, discretized by the 5-point stencil (flux form,
ghost-node reflection on Neumann edges, identity rows on Dirichlet
nodes). On polar grids the operator carries the metric terms
z_rr + z_r/r + z_tt/r^2, which the face-radius flux form reproduces
node-exactly. Gamma1 and gamma3 are whole rows on both grid families, so
the discrete pivot depends on x1 alone: a 1D sum gives it exactly, with
no iteration (pivot_values).

The stencil generalizes to div(c grad u) = s for the direct coupled
solver and the residual checker. The residual checker applies it to
any field on the whole grid. Only the direct solver solves with it, and
every system that solver poses is constant along x2: faces, Dirichlet
data and source. Such a system's solution is constant along x2 too, so
no flux crosses a y-face, and on the equation rows it is a two-point
problem along x1: a symmetric tridiagonal system of n1 - 2 unknowns,
which one elimination (the Thomas algorithm) solves exactly. Its pivots
are all positive exactly when that system is positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PivotConvergenceError
from .geometry import POLAR, Grid
from .numerics import check_tol


@dataclass(frozen=True, eq=False)
class PivotField:
    """The pivot z on a grid. ``solve_pivot`` fills ``values`` with
    ``pivot_values``' read-only broadcast view; one built from another array
    keeps that array's flags."""
    grid: Grid
    values: np.ndarray
    achieved_residual: float
    iterations: int         # always 0: the closed form takes no iteration


class _GridFactors:
    """What a DivergenceStencil needs of its grid alone, built once per grid
    and shared by its stencils: the metric r, the face radii and the
    squared spacings."""

    def __init__(self, grid: Grid):
        h1, h2 = grid.spacing
        self.h1sq = h1**2
        self.rvec = np.asarray(grid.x1, dtype=float) if grid.coord_system == POLAR else np.ones(grid.n1)
        self.rface = 0.5 * (self.rvec[:-1] + self.rvec[1:])
        self.h2r = h2**2 * self.rvec


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
        self.factors = grid.__dict__.get("_stencil_factors") or _GridFactors(grid)
        object.__setattr__(grid, "_stencil_factors", self.factors)  # cached on the grid
        self.cfx = cfx * self.factors.rface[:, None]
        self.cfy = cfy

    def _metric_div(self, u):
        """r * div(c grad u) on the equation rows, zero on the Dirichlet rows
        (the first and the last)."""
        f = self.factors
        out = np.zeros(self.grid.shape)
        eq, h2r = out[1:-1], f.h2r[1:-1]
        fx = self.cfx * (u[1:, :] - u[:-1, :])
        eq += (fx[1:, :] - fx[:-1, :]) / f.h1sq
        fy = self.cfy[1:-1] * (u[1:-1, 1:] - u[1:-1, :-1])
        eq[:, 1:-1] += (fy[:, 1:] - fy[:, :-1]) / h2r[:, None]
        eq[:, 0] += 2.0 * fy[:, 0] / h2r
        eq[:, -1] += -2.0 * fy[:, -1] / h2r
        return out

    def apply(self, u):
        return self._metric_div(u) / self.factors.rvec[:, None]

    def solve(self, dirichlet_values, source=0.0):
        """Solve div(c grad u) = source with the given Dirichlet data, for
        faces, data and source constant along x2.

        Returns (values, 0): the solution, a read-only view of its (n1, 1)
        column broadcast along x2, and no iterations. Such a solution has no
        flux across the y-faces, so with c the r_face-weighted x-faces of
        one column, equation row i reads
        -c[i-1] u[i-1] + (c[i-1] + c[i]) u[i] - c[i] u[i+1] = -h1^2 r[i] s[i],
        and one forward elimination and one back substitution solve the
        rows 1 .. n1-2. Raises ValueError for faces, Dirichlet rows or an
        equation-row source that vary along x2 (bit patterns compared), and
        PivotConvergenceError naming the row of the first pivot that is not
        positive and finite.
        """
        f, shape = self.factors, self.grid.shape
        data = np.broadcast_to(np.asarray(dirichlet_values, dtype=float), shape)[[0, -1]]
        source = np.broadcast_to(np.asarray(source, dtype=float), shape)[1:-1]
        for name, a in (("faces", self.cfx), ("faces", self.cfy),
                        ("Dirichlet data", data), ("source", source)):
            bits = a.view(np.int64)     # bit patterns, so that NaN equals itself
            if not (bits == bits[:, :1]).all():
                raise ValueError(f"the {name} vary along x2: the stencil solves "
                                 f"x2-constant systems only")
        c = self.cfx[:, 0].tolist()
        rhs = (-f.h1sq * f.rvec[1:-1] * source[:, 0]).tolist()
        low, high = data[:, 0].tolist()
        rhs[0] += c[0] * low        # the last row's c[-1] * high enters at the back substitution
        pivots, y = [], []
        piv, yi = math.inf, 0.0     # the first row has no row above to eliminate
        for i, b in enumerate(rhs):
            w = c[i] / piv
            piv = c[i] + c[i + 1] - w * c[i]
            if not 0.0 < piv < math.inf:     # NaN fails too
                raise PivotConvergenceError(
                    f"the stencil's elimination pivot at row {i + 1} is {piv!r}, not positive "
                    f"and finite: the system is not positive definite")
            yi = b + w * yi
            pivots.append(piv)
            y.append(yi)
        u = [high]
        for i in reversed(range(len(y))):
            u.append((y[i] + c[i + 1] * u[-1]) / pivots[i])
        u.append(low)
        return np.broadcast_to(np.array(u[::-1])[:, None], shape), 0


def arithmetic_mean_faces(c_nodes: np.ndarray):
    """Face coefficients as plain arithmetic means of the node values."""
    cfx = 0.5 * (c_nodes[:-1, :] + c_nodes[1:, :])
    cfy = 0.5 * (c_nodes[:, :-1] + c_nodes[:, 1:])
    return cfx, cfy


def dirichlet_targets(grid: Grid, boundary: float):
    """Every field's Dirichlet data: 0 on gamma1 (the first row) and
    ``boundary`` on gamma3 (the last row), zero on the equation rows; a
    read-only view of its (n1, 1) column broadcast along x2."""
    d = np.zeros((grid.n1, 1))
    d[-1] = boundary
    return np.broadcast_to(d, grid.shape)


def pivot_values(grid: Grid) -> np.ndarray:
    """The discrete pivot, exactly: constant along each row, with the flux
    r_face * (z[i+1] - z[i]) / h1 equal on every face, so z = psi / psi[-1]
    for psi[i] = sum over k < i of h1 / r_face[k] (x1 - x1[0] on rectangles).
    A read-only view of its (n1, 1) column broadcast along x2."""
    if grid.coord_system == POLAR:
        rface = 0.5 * (grid.x1[:-1] + grid.x1[1:])      # the stencil's face radii
        psi = np.concatenate(([0.0], np.cumsum(grid.spacing[0] / rface)))
    else:
        psi = grid.x1 - grid.x1[0]
    return np.broadcast_to((psi / psi[-1])[:, None], grid.shape)


def solve_pivot(grid: Grid, tol: float) -> PivotField:
    """pivot_values, certified by the independent 5-point residual <= tol."""
    check_tol(tol)
    values = pivot_values(grid)
    residual = pivot_residual_values(grid, values)
    if not residual <= tol:
        raise PivotConvergenceError(f"the exact discrete pivot has residual {residual:.3e}: "
                                    f"the target {tol:.3e} lies below this grid's roundoff floor")
    vmin, vmax = float(values.min()), float(values.max())
    if vmin < 0.0 or vmax > 1.0:
        raise PivotConvergenceError(
            f"discrete maximum principle violated: values span [{vmin}, {vmax}]"
        )
    return PivotField(grid, values, achieved_residual=residual, iterations=0)


def pivot_residual_values(grid: Grid, values: np.ndarray) -> float:
    """L-inf norm of the plain 5-point residual on the equation rows (every
    row but the first and the last), recomputed independently.

    Uses the non-conservative stencil (second differences plus metric
    terms) rather than the flux form that pivot_values solves; the two agree
    node-exactly, which makes this an independent check of the closed form.
    """
    h1, h2 = grid.spacing
    u, mid = values, values[1:-1]
    polar = grid.coord_system == POLAR
    r = grid.x1[1:-1, None] if polar else np.ones((grid.n1 - 2, 1))
    lap = (u[:-2, :] - 2.0 * mid + u[2:, :]) / h1**2
    if polar:
        lap += (u[2:, :] - u[:-2, :]) / (2.0 * h1 * r)
    tfac = 1.0 / (h2**2 * r**2)
    lap[:, 1:-1] += (mid[:, :-2] - 2.0 * mid[:, 1:-1] + mid[:, 2:]) * tfac
    lap[:, 0] += 2.0 * (mid[:, 1] - mid[:, 0]) * tfac[:, 0]
    lap[:, -1] += 2.0 * (mid[:, -2] - mid[:, -1]) * tfac[:, 0]
    return float(np.max(np.abs(lap)))
