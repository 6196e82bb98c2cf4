"""Compose profile solutions with the pivot field into full grid fields.

Molecular problems map u_i(x) = U_i(z(x)) directly. Darcy problems, the
scalar spelling included, first recover the pressure through the Kirchhoff
map Theta(p) = int_0^p b_{n+1}(U(t), t) dt: the transformed variable is
harmonic, so eta(x) = eta* z(x) and p(x) = Theta^-1(eta* z(x)). Profiles
are evaluated as piecewise-linear interpolants of their node samples,
which keeps every lookup monotone; the sampled Theta map is inverted
segment-exactly, so the round trip is accurate to rounding (well inside
the advertised 1e-12 tolerance in eta).

Every field's Dirichlet data and every flux term come from the law table
``ProblemSpec.laws()``. The data is stamped onto the tagged nodes, so
reconstructed fields satisfy the Dirichlet conditions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveWeightError, ProfileRangeError
from .geometry import POLAR, Grid
from .numerics import cumulative_simpson
from .pivot import PivotField, dirichlet_targets
from .twopoint import DARCY, MOLECULAR, ProblemSpec, ProfileSolution

SPAN_SLACK = 1e-12


@dataclass(frozen=True)
class ThetaMap:
    """Sampled Kirchhoff transform with its piecewise-linear inverse."""

    p_nodes: np.ndarray
    theta_values: np.ndarray
    eta_star: float

    def __post_init__(self):
        if np.any(np.diff(self.theta_values) <= 0.0):
            raise NonPositiveWeightError(
                "Kirchhoff map is not strictly increasing; the transform "
                "cannot be inverted")
        self.p_nodes.setflags(write=False)
        self.theta_values.setflags(write=False)

    def forward(self, p):
        return np.interp(p, self.p_nodes, self.theta_values)

    def invert(self, eta):
        return np.interp(eta, self.theta_values, self.p_nodes)


@dataclass(frozen=True)
class FieldSet:
    """Reconstructed grid fields: u_i always, p and fluxes when they exist."""

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
    clipped = np.clip(targets, lo, hi)
    return np.stack([np.interp(clipped, sol.mesh, prof) for prof in sol.profiles])


def _gradient(grid: Grid, field: np.ndarray):
    """Physical gradient by centered differences (one-sided 2nd order at edges)."""
    h1, h2 = grid.spacing
    g1 = np.gradient(field, h1, axis=0, edge_order=2)
    g2 = np.gradient(field, h2, axis=1, edge_order=2)
    if grid.coord_system == POLAR:
        g2 = g2 / grid.x1[:, None]
    return np.stack([g1, g2])


def _flux_fields(grid: Grid, spec: ProblemSpec, u_fields, p_field):
    """The flux vector of each u_i law, plus the transport velocity v, the
    negated flux of the pressure law."""
    grads = [_gradient(grid, f) for f in [*u_fields, p_field] if f is not None]
    values = spec.values(u_fields, 0.0 if p_field is None else p_field)
    fluxes = {}
    for field, _, terms in spec.laws():
        q = np.zeros((2,) + grid.shape)
        for k, f in terms:
            q += values[k] * grads[f]
        if field == spec.n:
            fluxes["v"] = -q
        else:
            fluxes[("q_h", "q_m")[field] if spec.n == 2 else f"q_{field+1}"] = q
    return fluxes


def _field_set(grid: Grid, spec: ProblemSpec, u, p, with_fluxes) -> FieldSet:
    """The FieldSet of u (and p): each law's field takes its Dirichlet data
    on the Dirichlet nodes, and the fluxes follow when asked for."""
    dirichlet, fields = ~grid.unknown_mask, [*u, p]
    for field, boundary, _ in spec.laws():
        fields[field][dirichlet] = dirichlet_targets(grid, boundary)[dirichlet]
    fluxes = _flux_fields(grid, spec, u, p) if with_fluxes else None
    return FieldSet(grid=grid, u_fields=u, p_field=p, flux_fields=fluxes)


def compose_fields(sol: ProfileSolution, pivot: PivotField, spec: ProblemSpec,
                   with_fluxes: bool = False) -> FieldSet:
    """Molecular reconstruction u_i(x) = U_i(z(x))."""
    if spec.mode != MOLECULAR:
        raise ValueError("compose_fields applies to molecular problems")
    return _field_set(pivot.grid, spec, _profile_lookup(sol, pivot.values), None, with_fluxes)


def kirchhoff_theta(sol: ProfileSolution, spec: ProblemSpec) -> ThetaMap:
    """Cumulative integral of b_{n+1} along the solved profiles.

    The integrand must be strictly positive along the whole profile; zero
    or negative samples make the map non-invertible and are refused.
    """
    if spec.mode != DARCY:
        raise ValueError("the Kirchhoff map applies to darcy problems")
    w = spec.coefficients(sol.profiles, sol.mesh)[2]
    wmin = float(np.min(w))
    if wmin <= 0.0:
        raise NonPositiveWeightError(
            f"b_next must be strictly positive along the profile; sampled minimum {wmin:.6g}")
    h = sol.mesh[1] - sol.mesh[0]
    theta = cumulative_simpson(w, h)
    return ThetaMap(p_nodes=sol.mesh.copy(), theta_values=theta, eta_star=float(theta[-1]))


def pressure_from_pivot(theta: ThetaMap, pivot: PivotField) -> np.ndarray:
    """p(x) = Theta^-1(eta* z(x)) on the grid nodes."""
    return theta.invert(theta.eta_star * pivot.values)


def darcy_reconstruct(sol: ProfileSolution, pivot: PivotField, spec: ProblemSpec,
                      with_fluxes: bool = False) -> FieldSet:
    """Full darcy-form reconstruction: pressure via Kirchhoff, then u_i = U_i(p)."""
    theta = kirchhoff_theta(sol, spec)
    p = pressure_from_pivot(theta, pivot)
    return _field_set(pivot.grid, spec, _profile_lookup(sol, p), p, with_fluxes)
