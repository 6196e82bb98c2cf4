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
solver and the residual checker. The residual checker applies it to any
field (flux_divergence): on the whole grid, or on the first column of
fields whose rows each hold one bit pattern (numerics.on_columns), which
gives the whole grid's residual norms at 1/n2 of the cost; the pivot's own
check (pivot_residual_values) does the same. Only the direct solver
solves with it, and every system that solver poses is constant along
x2: faces, Dirichlet data and source. Such a system's solution is
constant along x2 too, so no flux crosses a y-face, and on the equation
rows it is a two-point problem along x1: a symmetric tridiagonal system
of n1 - 2 unknowns, which one elimination (the Thomas algorithm) solves
exactly. Its pivots are all positive exactly when that system is
positive definite. DivergenceStencil is that operator on one x1 column,
with x-faces alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PivotConvergenceError
from .geometry import POLAR, Grid
from .numerics import check_tol, on_columns


@dataclass(frozen=True, eq=False)
class PivotField:
    """The pivot z on a grid. ``solve_pivot`` fills ``values`` with
    ``pivot_values``' read-only broadcast view; one built from another array
    keeps that array's flags."""
    grid: Grid
    values: np.ndarray
    achieved_residual: float
    iterations: int         # always 0: the closed form takes no iteration


def _radii(grid: Grid):
    """The metric r at the nodes and at the x-faces: the radii on the
    annulus, ones on the rectangle."""
    r = np.asarray(grid.x1, dtype=float) if grid.coord_system == POLAR else np.ones(grid.n1)
    return r, 0.5 * (r[:-1] + r[1:])


def flux_divergence(grid: Grid, c: np.ndarray, u: np.ndarray):
    """Flux-form div(c grad u) of a field u on (n1, m) arrays, each face
    coefficient the arithmetic mean of the node values c at its ends: the
    physical divergence on the equation rows (interior and gamma2 nodes,
    ghost-reflected), zero on the Dirichlet rows (the first and the last).

    m = n2 is the whole grid. m = 1 is the first column of fields whose rows
    each hold one bit pattern: the column is its own x2 neighbour, so its
    y-flux 0.5 (c + c)(u - u) is the one the whole grid forms on every node
    of such a row, +-0 for finite data and NaN otherwise, and each entry has
    the magnitude of every node of its row."""
    h1, h2 = grid.spacing
    r, rface = _radii(grid)
    out = np.zeros(u.shape)         # r * div(c grad u) until the last line
    eq, h2r = out[1:-1], h2**2 * r[1:-1]
    fx = 0.5 * (c[:-1, :] + c[1:, :]) * rface[:, None] * (u[1:, :] - u[:-1, :])
    eq += (fx[1:, :] - fx[:-1, :]) / h1**2
    lo, hi = (slice(None, -1), slice(1, None)) if u.shape[1] > 1 else (slice(None),) * 2
    fy = 0.5 * (c[1:-1, lo] + c[1:-1, hi]) * (u[1:-1, hi] - u[1:-1, lo])
    eq[:, 1:-1] += (fy[:, 1:] - fy[:, :-1]) / h2r[:, None]
    eq[:, 0] += 2.0 * fy[:, 0] / h2r
    eq[:, -1] += -2.0 * fy[:, -1] / h2r
    return out / r[:, None]


class DivergenceStencil:
    """Flux-form div(c grad u) along x1 on one column of a grid, with the
    x-face coefficients ``faces``, shaped (n1-1,): the operator of a system
    constant along x2, which has no flux across a y-face (module docstring).
    """

    def __init__(self, grid: Grid, faces: np.ndarray):
        if faces.shape != (grid.n1 - 1,):
            raise ValueError("face coefficient arrays do not match the grid")
        self.r, rface = _radii(grid)
        self.h1sq = grid.spacing[0] ** 2
        self.c = faces * rface          # the r_face-weighted faces

    def apply(self, u):
        """div(c grad u) of the column u on its equation entries, 0 on its
        two Dirichlet entries (the first and the last)."""
        out = np.zeros(self.r.shape)
        fx = self.c * (u[1:] - u[:-1])
        out[1:-1] = (fx[1:] - fx[:-1]) / self.h1sq
        return out / self.r

    def solve(self, dirichlet_column, source=0.0):
        """Solve div(c grad u) = source for the column u that takes the
        first and last entries of ``dirichlet_column``.

        Returns (u, 0): the solution and no iterations. Equation row i reads
        -c[i-1] u[i-1] + (c[i-1] + c[i]) u[i] - c[i] u[i+1] = -h1^2 r[i] s[i],
        and one forward elimination and one back substitution solve the
        rows 1 .. n1-2. Raises PivotConvergenceError naming the row of the
        first pivot that is not positive and finite.
        """
        c = self.c.tolist()
        rhs = (-self.h1sq * self.r[1:-1] * np.broadcast_to(source, self.r.shape)[1:-1]).tolist()
        low, high = float(dirichlet_column[0]), float(dirichlet_column[-1])
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
        return np.array(u[::-1]), 0


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
        psi = np.concatenate(([0.0], np.cumsum(grid.spacing[0] / _radii(grid)[1])))
    else:
        psi = grid.x1 - grid.x1[0]
    return np.broadcast_to((psi / psi[-1])[:, None], grid.shape)


def solve_pivot(grid: Grid, tol: float) -> PivotField:
    """pivot_values, certified by the independent 5-point residual <= tol."""
    check_tol(tol)
    values = pivot_values(grid)
    column, = on_columns(values)
    residual = pivot_residual_values(grid, column)
    if not residual <= tol:
        raise PivotConvergenceError(f"the exact discrete pivot has residual {residual:.3e}: "
                                    f"the target {tol:.3e} lies below this grid's roundoff floor")
    vmin, vmax = float(column.min()), float(column.max())
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
    ``values`` is (n1, n2) or its (n1, 1) column. Values whose rows each
    hold one bit pattern are checked on three copies of their column: an
    interior node between the two ghost-reflected gamma2 ends, every kind of
    node such a row has, so the norm keeps the whole grid's bits.
    """
    h1, h2 = grid.spacing
    u, = on_columns(values)
    u = np.broadcast_to(u, (grid.n1, max(u.shape[1], 3)))     # a column: three copies
    mid = u[1:-1]
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
