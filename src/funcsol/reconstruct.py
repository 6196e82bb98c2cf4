"""Compose profile solutions with the pivot field into full grid fields.

Molecular problems map u_i(x) = U_i(z(x)) directly. Darcy problems, the
scalar spelling included, first recover the pressure through the Kirchhoff
map Theta(p) = int_0^p b_{n+1}(U(t), t) dt: the transformed variable is
harmonic, so eta(x) = eta* z(x) and p(x) = Theta^-1(eta* z(x)). Profiles
are evaluated as piecewise-linear interpolants of their node samples,
which keeps every lookup monotone. Theta is the array of its values at
the profile mesh nodes, and p is read off it by one linear interpolation,
which inverts the piecewise-linear Theta exactly, so the round trip is
accurate to rounding (well inside the advertised 1e-12 tolerance in eta).

The pivot and the Dirichlet data are constant along each row, and come
as read-only views of their (n1, 1) columns broadcast along x2; every
field is built on the pivot's column and returned the same way. Every
field's Dirichlet data and every flux name come from the law table
``ProblemSpec.laws()``. The data is copied onto the column's
Dirichlet entries, so reconstructed fields satisfy the Dirichlet
conditions exactly. The fluxes follow from the functional structure, not
from the fields: law i's flux sum_j a_ij grad u_j + b_i grad p is
gamma_i eta* grad z (eta* = 1 in molecular form), and v = -eta* grad z,
so their x2 components are exactly 0. ``funcsol verify`` does not read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveWeightError, ProfileRangeError
from .geometry import Grid
from .numerics import cumulative_simpson
from .pivot import PivotField, dirichlet_targets
from .twopoint import DARCY, MOLECULAR, ProblemSpec, ProfileSolution

SPAN_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class FieldSet:
    """Grid fields: u_i always, p and fluxes when they exist. The arrays
    stage 3 returns are read-only views, constant along x2."""

    grid: Grid
    u_fields: np.ndarray                 # (n, n1, n2)
    p_field: np.ndarray | None = None    # (n1, n2), darcy only
    flux_fields: dict | None = None      # name -> (2, n1, n2) vectors

    @property
    def n(self):
        return self.u_fields.shape[0]


def _profile_lookup(sol: ProfileSolution, targets: np.ndarray):
    """Piecewise-linear profile evaluation with a span guard."""
    lo, hi = sol.mesh[0], sol.mesh[-1]
    tmin, tmax = float(targets.min()), float(targets.max())
    if tmin < lo - SPAN_SLACK or tmax > hi + SPAN_SLACK:
        raise ProfileRangeError(
            f"pivot values span [{tmin:.6g}, {tmax:.6g}] but the profile mesh "
            f"covers [{lo:.6g}, {hi:.6g}]")
    return np.stack([np.interp(targets, sol.mesh, prof) for prof in sol.profiles])


def _flux_fields(pivot: PivotField, spec: ProblemSpec, gamma, eta_star: float):
    """The flux vector of each u_i law, gamma_i eta* grad z, plus the
    transport velocity v = -eta* grad z, the negated flux of the pressure law.

    The pivot is constant along each row, so grad z is one x1 derivative per
    row and its x2 component is exactly 0."""
    grad_z, shape = np.zeros((2, pivot.grid.n1, 1)), (2,) + pivot.grid.shape
    grad_z[0] = np.gradient(pivot.values[:, :1], pivot.grid.spacing[0], axis=0, edge_order=2)
    fluxes = {}
    for field, _, _ in spec.laws():
        if field == spec.n:
            fluxes["v"] = np.broadcast_to(-eta_star * grad_z, shape)
        else:
            name = ("q_h", "q_m")[field] if spec.n == 2 else f"q_{field+1}"
            fluxes[name] = np.broadcast_to(gamma[field] * eta_star * grad_z, shape)
    return fluxes


def _field_set(grid: Grid, spec: ProblemSpec, u, p, fluxes) -> FieldSet:
    """The FieldSet of the column fields u (n, n1, 1) and p (n1, 1): each
    law's column takes its Dirichlet data on the Dirichlet entries."""
    dirichlet, columns = ~grid.unknown_mask[:, :1], [*u, p]
    for field, boundary, _ in spec.laws():
        columns[field][dirichlet] = dirichlet_targets(grid, boundary)[:, :1][dirichlet]
    return FieldSet(grid=grid, u_fields=np.broadcast_to(u, (len(u),) + grid.shape),
                    p_field=None if p is None else np.broadcast_to(p, grid.shape),
                    flux_fields=fluxes)


def compose_fields(sol: ProfileSolution, pivot: PivotField, spec: ProblemSpec,
                   with_fluxes: bool = False) -> FieldSet:
    """Molecular reconstruction u_i(x) = U_i(z(x))."""
    if spec.mode != MOLECULAR:
        raise ValueError("compose_fields applies to molecular problems")
    fluxes = _flux_fields(pivot, spec, sol.gamma, 1.0) if with_fluxes else None
    u = _profile_lookup(sol, pivot.values[:, :1])
    return _field_set(pivot.grid, spec, u, None, fluxes)


def kirchhoff_theta(sol: ProfileSolution, spec: ProblemSpec) -> np.ndarray:
    """Theta(p) = int_0^p b_{n+1} along the solved profiles, at their mesh
    nodes, a new writable array on each call; Theta[-1] is eta*. A b_{n+1}
    sample <= 0, or a Theta not strictly increasing, makes the map
    non-invertible and is refused."""
    if spec.mode != DARCY:
        raise ValueError("the Kirchhoff map applies to darcy problems")
    w = spec.coefficients(sol.profiles, sol.mesh)[2]
    wmin = float(np.min(w))
    if wmin <= 0.0:
        raise NonPositiveWeightError(
            f"b_next must be strictly positive along the profile; sampled minimum {wmin:.6g}")
    theta = cumulative_simpson(w, sol.mesh[1] - sol.mesh[0])
    if np.any(np.diff(theta) <= 0.0):
        raise NonPositiveWeightError(
            "Kirchhoff map is not strictly increasing; the transform cannot be inverted")
    return theta


def darcy_reconstruct(sol: ProfileSolution, pivot: PivotField, spec: ProblemSpec,
                      with_fluxes: bool = False) -> FieldSet:
    """Full darcy-form reconstruction: the pressure p = Theta^-1(eta* z) via
    Kirchhoff, then u_i = U_i(p)."""
    theta = kirchhoff_theta(sol, spec)
    p = np.interp(theta[-1] * pivot.values[:, :1], theta, sol.mesh)
    fluxes = _flux_fields(pivot, spec, sol.gamma, theta[-1]) if with_fluxes else None
    return _field_set(pivot.grid, spec, _profile_lookup(sol, p), p, fluxes)
