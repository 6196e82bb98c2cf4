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
solver and the residual checker. Rows are symmetrized with half weights on
Neumann edges (and a factor r on polar grids), which makes the reduced
system SPD. The direct solver's linear solves are conjugate gradients with
a separable fast preconditioner, exact for unit faces (_fast_inverse): a
cosine transform across axis 2, a DCT-I taken as the rfft of each row's
even extension, and per cosine mode a tridiagonal solve along axis 1 by a
two-level blocked scan. Its grid-only part is built once per grid
(_GridFactors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PivotConvergenceError
from .geometry import POLAR, Grid

CG_ITER_FACTOR = 50


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
    and shared by its stencils: metric, weights, denominators and,
    from the first solve on, the face-independent part of the fast inverse."""

    def __init__(self, grid: Grid):
        n1, n2 = grid.shape
        h1, self.h2 = grid.spacing
        self.h1sq = h1**2
        self.rvec = np.asarray(grid.x1, dtype=float) if grid.coord_system == POLAR else np.ones(n1)
        self.rface = 0.5 * (self.rvec[:-1] + self.rvec[1:])
        self.h2r = self.h2**2 * self.rvec
        self.n_unknowns = (n1 - 2) * n2
        # row symmetrization weights: half cells on Neumann edges (per
        # column), times the metric r
        self.w_edge = np.ones(n2)
        self.w_edge[0] *= 0.5
        self.w_edge[-1] *= 0.5
        self.w_sym = self.w_edge * self.rvec[:, None]

    @cached_property
    def inverse(self):
        """What _fast_inverse needs besides its scale: the block size
        B = max(2, isqrt(m)) of the m = n1 - 2 equation rows, the last of
        the q blocks padded with zero rows; the LU multipliers mult, mult[i]
        being row i's share of row i - 1 in the forward sweep and mult[i + 1]
        its share of row i + 1 in the backward one; their in-block products
        up to each row (forward carries, (q, B, n2)) and from each row on
        (backward carries); the inverted pivots of K1 + lambda_k/r per mode
        k, times the transforms' 1/(2(n2-1)); and the unit-face diagonal over
        w_edge, a column."""
        n1, n2 = self.rvec.size, self.w_edge.size
        m = n1 - 2
        block = max(2, math.isqrt(m))
        padded = -(-m // block) * block
        off = -self.rface[1:-1, None] / self.h1sq
        k1_diag = (self.rface[1:, None] + self.rface[:-1, None]) / self.h1sq
        k = np.arange(n2, dtype=float)
        lam = (2.0 - 2.0 * np.cos(np.pi / (n2 - 1) * k)) / self.h2**2
        piv = lam / self.rvec[1:-1, None]
        piv += k1_diag
        for i in range(1, m):
            piv[i - 1] = 1.0 / piv[i - 1]
            piv[i] -= off[i - 1] ** 2 * piv[i - 1]
        piv[-1] = 1.0 / piv[-1]
        mult = np.zeros((padded + 1, n2))
        np.multiply(off, -piv[:-1], out=mult[1:m])
        fwd_carry = np.cumprod(mult[:-1].reshape(-1, block, n2), axis=1)
        bwd_carry = np.cumprod(mult[:0:-1].reshape(-1, block, n2), axis=1)[::-1, ::-1].copy()
        piv *= 0.5 / (n2 - 1)
        return block, mult, fwd_carry, bwd_carry, piv, k1_diag + 2.0 / self.h2r[1:-1, None]


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

    def _sym_op(self, v):
        """SPD operator on the equation rows: -w_edge * r * div(c grad .).

        Every CG vector is zero on the Dirichlet rows and _metric_div returns
        zero there, so neither side needs masking."""
        return -(self._metric_div(v) * self.factors.w_edge)

    @cached_property
    def _sym_diag(self):
        f = self.factors
        d = np.zeros(self.grid.shape)
        d[1:-1, :] += (self.cfx[1:, :] + self.cfx[:-1, :]) / f.h1sq
        d[:, 1:-1] += (self.cfy[:, 1:] + self.cfy[:, :-1]) / f.h2r[:, None]
        d[:, 0] += 2.0 * self.cfy[:, 0] / f.h2r
        d[:, -1] += 2.0 * self.cfy[:, -1] / f.h2r
        d *= f.w_edge
        d[[0, -1]] = 1.0
        return d

    def _fast_inverse(self):
        """Preconditioner: the exact inverse of the unit-face operator.

        With unit faces the operator is W x K1 + K2 x diag(1/r), K1 being
        tridiagonal along axis 1 and K2 the half-weighted Neumann second
        difference along axis 2. K2's W-orthonormal eigenvectors are cosines
        with eigenvalues (2 - 2cos(pi k/(n2-1)))/h2^2, so the inverse is a
        cosine transform, a tridiagonal solve of K1 + lambda_k/r per mode and
        the transform back. Each transform is a DCT-I, the rfft of the rows'
        even extension (edge columns doubled on the way in), which leaves a
        constant 1/(2(n2-1)) that the pivots carry. Each tridiagonal sweep is
        a two-level blocked scan (the partition method; H. H. Wang, ACM TOMS
        7, 1981): the recurrence within every block at once, then across the
        blocks' boundary rows, then each block's carry times the in-block
        multiplier products added to its rows. Other faces scale the inverse
        symmetrically by sqrt(diag(A)/diag(A_unit)) (Concus & Golub, 1973),
        a factor of exactly one on unit faces. Only that scale depends on the
        faces; the rest is built once per grid (_GridFactors.inverse).
        Returns precondition(res, out), which writes M^-1 res into out (zero
        on the Dirichlet rows); both have the grid's shape.
        """
        block, mult, fwd_carry, bwd_carry, piv, k0 = self.factors.inverse
        m, n2 = self.grid.n1 - 2, self.grid.n2
        scale = np.sqrt(k0 * self.factors.w_edge / self._sym_diag[1:-1])
        # the rows' even extensions; both sweeps run in place on their first
        # n2 columns (g3 in blocks, whose padding rows stay zero)
        ext = np.zeros((len(mult) - 1, 2 * n2 - 2))
        g = ext[:m, :n2]
        g3 = ext.reshape(-1, block, ext.shape[1])[:, :, :n2]
        fwd3, bwd3 = mult[:-1].reshape(g3.shape), mult[1:].reshape(g3.shape)

        def cosine_transform():
            """DCT-I of the rows of g, from their even extension."""
            ext[:m, n2:] = ext[:m, n2 - 2:0:-1]
            return np.fft.rfft(ext[:m]).real

        def precondition(res, out):
            np.multiply(res[1:-1], scale, out=g)
            g[:, ::n2 - 1] *= 2.0           # edge columns, which the extension holds once
            g[:] = cosine_transform()
            for t in range(1, block):
                g3[:, t] += fwd3[:, t] * g3[:, t - 1]
            for b in range(1, len(g3)):
                g3[b, -1] += fwd_carry[b, -1] * g3[b - 1, -1]
            g3[1:, :-1] += fwd_carry[1:, :-1] * g3[:-1, -1:]
            g[:] *= piv
            for t in range(block - 2, -1, -1):
                g3[:, t] += bwd3[:, t] * g3[:, t + 1]
            for b in range(len(g3) - 2, -1, -1):
                g3[b, 0] += bwd_carry[b, 0] * g3[b + 1, 0]
            g3[:-1, 1:] += bwd_carry[:-1, 1:] * g3[1:, :1]
            np.multiply(cosine_transform(), scale, out=out[1:-1])
            out[0] = out[-1] = 0.0
            return out

        return precondition

    def residual_floor(self, value_scale: float = 1.0, source=0.0) -> float:
        """Roundoff level of the physical residual for fields of the given
        size and a given source.

        Row magnitudes scale with the stencil diagonal and the source, so no
        solution can be certified much below eps * max(diag * |u|, |source|);
        callers picking an inner tolerance should not ask for less.
        """
        diag = self._sym_diag / self.factors.w_edge
        row = max(float(diag.max()) * max(1.0, value_scale), float(np.max(np.abs(source))))
        return 30.0 * np.finfo(float).eps * row

    def solve(self, dirichlet_values, source=0.0, tol=1e-10, x0=None):
        """Solve div(c grad u) = source with the given Dirichlet data.

        Returns (values, iterations). Conjugate gradients preconditioned by
        the separable fast inverse (_fast_inverse) updates the residual
        r = w_sym * (div(c grad u) - source) by recurrence; where its physical
        size max |r| / w_sym drops below tol, CG recomputes r from the iterate
        and returns if that is below tol too, or restarts from it (residual
        replacement; van der Vorst & Ye, SIAM J. Sci. Comput. 22, 2000). It
        raises PivotConvergenceError at the first exit where more iterations
        cannot help: a recomputed residual above 2 tol or not below half the
        previous one, a recurrence fallen to roundoff, a breakdown, the cap.
        """
        grid, f = self.grid, self.factors
        u_dir = np.array(dirichlet_values, dtype=float)
        u_dir[1:-1] = 0.0
        w_source = source * f.w_sym
        w_source[[0, -1]] = 0.0

        def residual(x):
            r = self._metric_div(x + u_dir) * f.w_edge - w_source
            return r, float(np.max(np.abs(r) / f.w_sym))

        x = np.zeros(grid.shape)
        if x0 is not None:
            x[1:-1] = x0[1:-1]
        r, recomputed = residual(x)
        if recomputed <= tol:
            return x + u_dir, 0
        precondition = self._fast_inverse()
        z = precondition(r, np.empty(grid.shape))
        p = z.copy()
        rz = float(np.sum(r * z))
        cap = CG_ITER_FACTOR * int(np.sqrt(f.n_unknowns)) + 10
        it = 0
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
            if np.max(np.abs(r) / f.w_sym) <= tol:    # a candidate exit
                r, now = residual(x)
                if now <= tol:
                    return x + u_dir, it
                if not now < min(2.0 * tol, 0.5 * recomputed):
                    stop = "its recomputed residual stalled at roundoff"
                    break
                rz, recomputed = np.inf, now    # restart: the next direction is M^-1 r
            elif rz < 1e-30:
                stop = "its residual recurrence fell to roundoff"
                break
            precondition(r, z)
            rz_new = float(np.sum(r * z))
            if rz_new <= 0.0 or not np.isfinite(rz_new):
                stop = "CG broke down"
                break
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise PivotConvergenceError(
            f"linear solve stopped at residual {residual(x)[1]:.3e} (target {tol:.3e}) "
            f"after {it} CG iterations on {f.n_unknowns} unknowns: {stop}"
        )


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
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
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
