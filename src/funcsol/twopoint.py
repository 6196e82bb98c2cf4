"""Two-point boundary value problems with unknown flux constants.

Solves, on the pivot interval [0, p*], problems of the form

    sum_j a_ij(U, p) U_j' + b_i(U, p) = gamma_i * b_{n+1}(U, p),
    U(0) = 0,  U(p*) = u*,

where the constants gamma are unknowns fixed by the endpoint data. The
equation forms are molecular (b absent, b_{n+1} = 1) and darcy; the
``scalar`` spelling is darcy with n = 1 and b absent. All coefficients
of a spec come from one compiled (A, b, b_{n+1}) bundle. The backends:

* ``solve_fixed_point``: damped Picard iteration of the integral operator
  T[U](z) = (int_0^z A^-1) (int_0^1 A^-1)^-1 u* for symmetric elliptic
  molecular systems (b absent, b_{n+1} = 1, pivot interval [0, 1]).
* ``solve_shooting``: Newton on the shooting map S(gamma) = U(p*; gamma) - u*
  with a forward-difference Jacobian, initialized from the constant
  coefficient linearization at the origin. A near-singular Jacobian is the
  resonance signal and is reported, never silently resolved. The last
  Jacobian batch's base trajectory is the returned profile.
* ``solve_scalar``: batched k-section on gamma for darcy problems with
  n = 1 and b absent, dU/dp = gamma*F(U, p) with F = b_{n+1}/a > 0, using
  the strict monotonicity of the endpoint in gamma. RK4 integrates a stack
  of gammas for about the cost of one, so each pass integrates
  KSECTION_WIDTH candidates at once.

Profiles are stored as node samples on a uniform odd-count mesh and are
treated as piecewise-linear interpolants by the reconstruction layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import (
    BracketFailureError,
    DegenerateLinearizationError,
    EvalDomainError,
    FuncsolError,
    MaxIterationError,
    NonEllipticError,
    NonPositiveFError,
    SingularJacobianError,
    SingularMatrixError,
)
from .exprlang import collect_variables, parse_expression
from .numerics import (
    cumulative_simpson,
    midpoint_derivatives_4th,
    midpoint_values_4th,
    require_odd,
    simpson_integral,
)

MOLECULAR = "molecular"
DARCY = "darcy"
SCALAR = "scalar"           # a spelling of darcy, lowered by ProblemSpec
MODES = (MOLECULAR, DARCY, SCALAR)

SINGULAR_COND_LIMIT = 1e12
RESONANCE_COND_LIMIT = 1e8
MIN_DAMPING = 1.0 / 16.0
KSECTION_WIDTH = 31         # interior candidates per batched k-section pass
BOX_PAD = 0.5


@dataclass
class ProblemSpec:
    """Coefficient data for one two-point/PDE problem.

    ``a`` is an n x n matrix of expression ASTs over u_1..u_n and p;
    ``b`` is absent (zero) and ``b_next`` absent (one) in the molecular
    case; a darcy ``b_next`` defaults to one. ``mode="scalar"`` is darcy
    with n = 1, its lone coefficient spelled ``b[0]``: it lowers to b
    absent and ``b_next = b[0]``, refusing a ``b_next`` of its own.
    """

    n: int
    a: list
    b: list | None = None
    b_next: object = None
    u_star: np.ndarray = None
    p_star: float = 1.0
    mode: str = MOLECULAR

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode '{self.mode}'")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        self.u_star = np.asarray(self.u_star, dtype=float).reshape(self.n)
        self.p_star = float(self.p_star)
        if self.p_star <= 0:
            raise ValueError(f"p_star must be positive, got {self.p_star}")
        if len(self.a) != self.n or any(len(row) != self.n for row in self.a):
            raise ValueError(f"coefficient matrix must be {self.n}x{self.n}")
        if self.mode == MOLECULAR:
            if self.b is not None or self.b_next is not None:
                raise ValueError("molecular mode takes no b or b_next coefficients")
            if self.p_star != 1.0:
                raise ValueError("molecular mode uses the unit pivot interval, p_star = 1")
        if self.b is not None and len(self.b) != self.n:
            raise ValueError(f"b must have {self.n} entries")
        if self.mode == SCALAR:
            if self.n != 1:
                raise ValueError("scalar mode requires n = 1")
            if self.b is None:
                raise ValueError("scalar mode requires the b coefficient")
            if self.b_next is not None:
                raise ValueError("scalar mode takes b1 as the pressure-law coefficient; "
                                 "b_next is for darcy mode")
            self.mode, self.b, self.b_next = DARCY, None, self.b[0]
        if self.mode == DARCY and self.b_next is None:
            self.b_next = exprlang.Num(1.0)
        allowed = self.variables
        exprs = [e for row in self.a for e in row] + list(self.b or [])
        exprs.append(exprlang.Num(1.0) if self.b_next is None else self.b_next)
        for e in exprs:
            extra = collect_variables(e) - allowed
            if extra:
                raise ValueError(f"expression references undeclared variables {sorted(extra)}")
        if self.mode == MOLECULAR:
            for e in exprs:
                if "p" in collect_variables(e):
                    raise ValueError("molecular coefficients may depend on u_1..u_n only")
        self.bundle = exprlang.Bundle(exprs)

    @property
    def variables(self):
        return frozenset([f"u{i+1}" for i in range(self.n)] + ["p"])

    @classmethod
    def from_strings(cls, n, a, b=None, b_next=None, u_star=(), p_star=1.0, mode=MOLECULAR):
        allowed = [f"u{i+1}" for i in range(n)] + ["p"]
        pa = [[parse_expression(t, allowed) for t in row] for row in a]
        pb = [parse_expression(t, allowed) for t in b] if b is not None else None
        pbn = parse_expression(b_next, allowed) if b_next is not None else None
        return cls(n=n, a=pa, b=pb, b_next=pbn, u_star=u_star, p_star=p_star, mode=mode)

    def laws(self):
        """The system in divergence form, one (field, boundary, terms) row per law.

        Law i is div(sum_j a_ij grad u_j + b_i grad p) = 0, and darcy problems
        end with the pressure law div(b_next grad p) = 0. ``field`` indexes
        u_1..u_n, then p; the field is 0 on gamma1 and ``boundary`` on gamma3.
        ``terms`` are (k, field) pairs: ``values(...)[k]``, the value of
        ``bundle.nodes[k]``, times the gradient of that field.
        """
        n, nn = self.n, self.n * self.n
        laws = [(i, float(self.u_star[i]), [(i * n + j, j) for j in range(n)]
                 + ([] if self.b is None else [(nn + i, n)])) for i in range(n)]
        if self.mode == DARCY:
            laws.append((n, self.p_star, [(len(self.bundle.nodes) - 1, n)]))
        return laws

    def values(self, u_values, p_values):
        """Every coefficient at the states (u_1..u_n, p), broadcast together,
        from one call of the compiled bundle: A row by row, then b when
        present, then b_next (ones when absent)."""
        env = {f"u{i+1}": u for i, u in enumerate(u_values)}
        env["p"] = p_values
        shape = np.broadcast_shapes(*map(np.shape, env.values()))
        return [np.broadcast_to(v, shape) for v in self.bundle(env)]

    def coefficients(self, u_values, p_values):
        """(A, b, b_next) from ``values``: A is (*shape, n, n), b is
        (*shape, n) or None when absent, b_next is (*shape)."""
        values = self.values(u_values, p_values)
        nn = self.n * self.n
        A = np.stack(values[:nn], axis=-1).reshape(values[-1].shape + (self.n, self.n))
        b = None if self.b is None else np.stack(values[nn:-1], axis=-1)
        return A, b, values[-1]


@dataclass(frozen=True)
class EllipticityBounds:
    m: float
    M: float


@dataclass(frozen=True)
class ProfileSolution:
    mesh: np.ndarray            # (m,) strictly increasing, 0 .. p_star
    profiles: np.ndarray        # (n, m) sampled U_i
    gamma: np.ndarray           # (n,)
    two_point_residual: float
    boundary_error: float
    stats: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.profiles.shape[0]


def default_box(spec: ProblemSpec):
    """Per-variable sampling ranges around the data the iterates visit."""
    box = {}
    for i, us in enumerate(spec.u_star):
        box[f"u{i+1}"] = (min(0.0, us) - BOX_PAD, max(0.0, us) + BOX_PAD)
    box["p"] = (0.0, spec.p_star)
    return box


def ellipticity_bounds(spec: ProblemSpec, box=None, samples: int = 33) -> EllipticityBounds:
    """Sampled eigenvalue bounds of the symmetrized coefficient matrix.

    Sweeps a lattice over the variables the matrix actually references and
    raises NonEllipticError when the smallest sampled eigenvalue is not
    positive.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples per axis")
    if box is None:
        box = default_box(spec)
    used = sorted(set().union(*(collect_variables(e) for row in spec.a for e in row)))
    missing = [v for v in used if v not in box]
    if missing:
        raise ValueError(f"box is missing ranges for {missing}")
    axes = [np.linspace(box[v][0], box[v][1], samples) for v in used]
    lattice = {v: g.ravel() for v, g in zip(used, np.meshgrid(*axes, indexing="ij"))}
    # variables the matrix ignores sit at the launch point, 0, where the
    # solvers evaluate every coefficient anyway
    A = spec.coefficients([lattice.get(f"u{i+1}", 0.0) for i in range(spec.n)],
                          lattice.get("p", 0.0))[0]
    sym = 0.5 * (A + np.swapaxes(A, -1, -2))
    eigs = np.linalg.eigvalsh(sym)
    m = float(eigs.min())
    M = float(eigs.max())
    if m <= 0.0:
        raise NonEllipticError(f"sampled ellipticity failed: smallest eigenvalue {m:.6g} <= 0", m=m)
    return EllipticityBounds(m=m, M=M)


def _inverse_along(spec: ProblemSpec, mesh, profiles):
    """A^-1 at every mesh node, with a condition guard."""
    A = spec.coefficients(profiles, mesh)[0]
    conds = np.linalg.cond(A)
    worst = float(np.max(conds))
    if not np.isfinite(worst) or worst > SINGULAR_COND_LIMIT:
        k = int(np.argmax(conds))
        raise SingularMatrixError(
            f"coefficient matrix numerically singular at pivot value {mesh[k]:.6g} "
            f"(condition estimate {worst:.3e})"
        )
    return np.linalg.inv(A)


def gamma_functional(mesh, profiles, spec: ProblemSpec):
    """gamma[U] = (int_0^1 A^-1(U(t)) dt)^-1 u* by composite Simpson."""
    if spec.mode != MOLECULAR:
        raise ValueError("gamma functional applies to molecular problems")
    h = mesh[1] - mesh[0]
    Ainv = _inverse_along(spec, mesh, np.asarray(profiles, dtype=float))
    avg = simpson_integral(Ainv, h)
    cond = float(np.linalg.cond(avg))
    if not np.isfinite(cond) or cond > SINGULAR_COND_LIMIT:
        raise SingularMatrixError(f"averaged inverse matrix singular (condition {cond:.3e})")
    return np.linalg.solve(avg, spec.u_star)


def apply_fixed_point_operator(mesh, profiles, spec: ProblemSpec):
    """T[U](z) = (int_0^z A^-1)(int_0^1 A^-1)^-1 u* on the same mesh."""
    if spec.mode != MOLECULAR:
        raise ValueError("the fixed point operator applies to molecular problems")
    h = mesh[1] - mesh[0]
    Ainv = _inverse_along(spec, mesh, np.asarray(profiles, dtype=float))
    C = cumulative_simpson(Ainv, h)
    total = C[-1]
    cond = float(np.linalg.cond(total))
    if not np.isfinite(cond) or cond > SINGULAR_COND_LIMIT:
        raise SingularMatrixError(f"averaged inverse matrix singular (condition {cond:.3e})")
    w = np.linalg.solve(total, spec.u_star)
    out = (C @ w).T
    out[:, 0] = 0.0
    out[:, -1] = spec.u_star
    return out


def collocation_residual(mesh, profiles, gamma, spec: ProblemSpec) -> float:
    """Max equation defect at interior interval midpoints.

    Midpoint states and slopes come from 4th-order formulas so the defect
    tracks the integrator's own order instead of the piecewise-linear
    interpolation error.
    """
    profiles = np.asarray(profiles, dtype=float)
    h = mesh[1] - mesh[0]
    u_mid = midpoint_values_4th(profiles)
    du_mid = midpoint_derivatives_4th(profiles, h)
    p_mid = midpoint_values_4th(mesh[None, :])[0]
    A, b, b_next = spec.coefficients(u_mid, p_mid)
    gamma = np.asarray(gamma, dtype=float)
    defect = np.einsum("kij,jk->ik", A, du_mid)
    if b is not None:
        defect += b.T
    defect -= gamma[:, None] * b_next[None, :]
    return float(np.max(np.abs(defect)))


def _solution(spec: ProblemSpec, mesh, profiles, gamma, **stats) -> ProfileSolution:
    """The ProfileSolution every backend returns, its residuals measured here."""
    return ProfileSolution(
        mesh=mesh,
        profiles=profiles,
        gamma=gamma,
        two_point_residual=collocation_residual(mesh, profiles, gamma, spec),
        boundary_error=float(np.max(np.abs(profiles[:, -1] - spec.u_star))),
        stats=stats,
    )


def solve_fixed_point(spec: ProblemSpec, n_nodes: int = 1001, tol: float = 1e-10,
                      max_iter: int = 200, damping: float = 1.0) -> ProfileSolution:
    """Damped Picard iteration on T[U], started from the linear ramp z*u*.

    The damping halves (down to 1/16) whenever the sup-norm update grows.
    Every iterate is checked against the operator bound
    sup_z |T[U](z)|_2 <= (M/m) |u*|_2 from the sampled ellipticity
    constants; if an iterate leaves the sampling box, the box grows and
    the bounds are re-sampled.
    """
    if spec.mode != MOLECULAR:
        raise ValueError("solve_fixed_point applies to molecular problems")
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    m_nodes = require_odd(n_nodes)
    mesh = np.linspace(0.0, 1.0, m_nodes)
    box = default_box(spec)
    bounds = ellipticity_bounds(spec, box)
    u_norm = float(np.linalg.norm(spec.u_star))
    U = mesh[None, :] * spec.u_star[:, None]
    prev_update = np.inf
    bound_ratio = 0.0
    converged = False
    iterations = 0
    update = np.inf
    for iterations in range(1, max_iter + 1):
        # keep the sampled bounds valid for whatever the iterates visit
        for i in range(spec.n):
            lo, hi = box[f"u{i+1}"]
            umin, umax = float(U[i].min()), float(U[i].max())
            if umin < lo or umax > hi:
                box[f"u{i+1}"] = (min(lo, umin) - BOX_PAD, max(hi, umax) + BOX_PAD)
                bounds = ellipticity_bounds(spec, box)
        TU = apply_fixed_point_operator(mesh, U, spec)
        limit = (bounds.M / bounds.m) * u_norm
        sup = float(np.max(np.linalg.norm(TU, axis=0)))
        if u_norm > 0.0:
            bound_ratio = max(bound_ratio, sup / limit)
            if sup > limit * (1.0 + 1e-9):
                raise FuncsolError(
                    f"fixed point iterate escaped the operator bound: "
                    f"sup |T[U]| = {sup:.6g} > (M/m)|u*| = {limit:.6g}"
                )
        U_new = (1.0 - damping) * U + damping * TU
        update = float(np.max(np.abs(U_new - U)))
        U = U_new
        if update <= tol:
            converged = True
            break
        if update > prev_update:
            damping = max(damping / 2.0, MIN_DAMPING)
        prev_update = update
    if not converged:
        raise MaxIterationError(
            f"fixed point iteration did not reach {tol:.3e} in {max_iter} iterations "
            f"(last update {update:.3e})", last_update=update)
    return _solution(spec, mesh, U, gamma_functional(mesh, U, spec), method="fixed_point",
                     iterations=iterations, final_update=update, damping_final=damping,
                     ellipticity_m=bounds.m, ellipticity_M=bounds.M,
                     iterate_bound_ratio=bound_ratio)


def _integrate_batch(spec: ProblemSpec, gammas, n_nodes):
    """Classical RK4 for U' = A^-1 (gamma*b_next - b) on a uniform mesh,
    batched over a stack of gammas, under one raising numpy error state: a
    floating point exception is an EvalDomainError naming the coefficient
    at fault, if one is. Returns the mesh and the (m, k, n) trajectory."""
    gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
    k, n = gammas.shape[0], spec.n
    m = require_odd(n_nodes)
    mesh = np.linspace(0.0, spec.p_star, m)
    h = mesh[1] - mesh[0]
    traj = np.zeros((m, k, n))
    raw, names, nn = spec.bundle.raw, [f"u{i+1}" for i in range(n)], n * n
    has_b = spec.b is not None
    env = dict.fromkeys(names + ["p"], 0.0)         # the launch point

    def singular(p, worst):
        return SingularMatrixError(f"coefficient matrix numerically singular at p = {p:.6g} "
                                   f"(condition estimate {worst:.3e})")

    if n == 1:
        # |A|_F / |det A| is identically 1 for n = 1, so measure |a| against
        # its value at the launch point instead; a singular launch trips at once
        a_launch = abs(float(spec.bundle(env)[0]))
        a_floor, g = a_launch / SINGULAR_COND_LIMIT or math.inf, gammas[:, 0]

        def f(p, state):
            env["u1"], env["p"] = state[:, 0], p
            values = raw(env)
            a, rhs = values[0], g * values[-1]
            if has_b:
                rhs = rhs - values[1]
            if not (abs(a) > a_floor).all():
                with np.errstate(all="ignore"):
                    raise singular(p, np.max(a_launch / np.abs(a)))
            return (rhs / a)[:, None]
    else:
        def f(p, state):
            env.update(zip(names, state.T))
            env["p"] = p
            values = raw(env)
            rhs = [g * values[-1] for g in gammas.T]
            if has_b:
                rhs = [r - b for r, b in zip(rhs, values[nn:-1])]
            if n == 2:
                a00, a01, a10, a11 = values[:4]
                det = a00 * a11 - a01 * a10
                fro2 = a00**2 + a01**2 + a10**2 + a11**2
            else:
                A = np.stack([np.broadcast_to(v, (k,)) for v in values[:nn]], -1).reshape(k, n, n)
                det = np.linalg.det(A)
                fro2 = np.einsum("kij,kij->k", A, A)
            # cheap condition estimate |A|_F^n / |det A|; coarse but plenty to
            # trip the 1e12 singularity guard
            worst = float(np.max(np.sqrt(fro2) ** n / np.maximum(np.abs(det), 1e-300)))
            if not np.isfinite(worst) or worst > SINGULAR_COND_LIMIT:
                raise singular(p, worst)
            if n == 2:
                return np.stack([(a11 * rhs[0] - a01 * rhs[1]) / det,
                                 (a00 * rhs[1] - a10 * rhs[0]) / det], axis=1)
            return np.linalg.solve(A, np.stack(rhs, axis=1)[:, :, None])[:, :, 0]

    try:
        with np.errstate(**exprlang.RAISE):
            for step in range(m - 1):
                p0, U = mesh[step], traj[step]
                k1 = f(p0, U)
                k2 = f(p0 + 0.5 * h, U + 0.5 * h * k1)
                k3 = f(p0 + 0.5 * h, U + 0.5 * h * k2)
                k4 = f(p0 + h, U + h * k3)
                traj[step + 1] = U + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    except (FloatingPointError, ZeroDivisionError) as exc:
        spec.bundle(env)        # raises the EvalDomainError naming the coefficient at fault
        raise EvalDomainError(f"the two-point integration left the floating point range "
                              f"near p = {float(env['p']):.6g}: {exc}") from None
    return mesh, traj


def integrate_profiles(spec: ProblemSpec, gamma, n_nodes: int):
    """Integrate the initial value problem for a given gamma; returns (mesh, profiles)."""
    mesh, traj = _integrate_batch(spec, np.asarray(gamma, dtype=float)[None, :], n_nodes)
    return mesh, traj[:, 0, :].T


def _origin_linearization(spec: ProblemSpec):
    """gamma0 and the shooting-map scale from the origin linearization.

    Freezing the coefficients at the origin makes the profiles linear, so
    gamma0 = (A(0) u*/p* + b(0)) / b_{n+1}(0) and the linearized map
    gamma -> U(p*) has Jacobian J0 = p* b_{n+1}(0) A(0)^-1. J0's norm is
    the natural sensitivity scale the resonance check measures against.
    """
    A, b, bn = spec.coefficients(np.zeros((spec.n, 1)), 0.0)
    A0, bn0 = A[0], float(bn[0])
    b0 = 0.0 if b is None else b[0]
    det = float(np.linalg.det(A0))
    scale = max(1.0, float(np.abs(A0).max()) ** spec.n)
    if abs(det) <= 1e-14 * scale:
        raise DegenerateLinearizationError(
            f"origin coefficient determinant D = {det:.3e} is degenerate", determinant=det)
    if abs(bn0) <= 1e-14:
        raise DegenerateLinearizationError(
            f"origin value of b_next ({bn0:.3e}) is degenerate", determinant=bn0)
    gamma0 = (A0 @ spec.u_star / spec.p_star + b0) / bn0
    j0_norm = float(np.linalg.norm(spec.p_star * bn0 * np.linalg.inv(A0), 2))
    return gamma0, j0_norm


def _jacobian_batch(spec: ProblemSpec, gamma, n_nodes):
    """Forward-difference Jacobian of gamma -> U(p*; gamma), with the mesh
    and the (n, m) profiles of the unperturbed run, from one batch."""
    gamma = np.asarray(gamma, dtype=float)
    steps = 1e-6 * (1.0 + np.abs(gamma))
    gammas = np.vstack([gamma, gamma + np.diag(steps)])
    mesh, traj = _integrate_batch(spec, gammas, n_nodes)
    J = (traj[-1, 1:] - traj[-1, 0]).T / steps[None, :]
    return J, mesh, traj[:, 0, :].T


def shooting_jacobian(spec: ProblemSpec, gamma, n_nodes: int = 1001):
    """Forward-difference Jacobian of gamma -> U(p*; gamma)."""
    J, _, profiles = _jacobian_batch(spec, gamma, n_nodes)
    return J, profiles[:, -1]


def solve_shooting(spec: ProblemSpec, n_nodes: int = 1001, tol: float = 1e-10,
                   max_newton: int = 30) -> ProfileSolution:
    """Newton iteration on the shooting map S(gamma) = U(p*; gamma) - u*.

    The Jacobian condition is checked before accepting convergence, so a
    resonant problem (singular shooting map) raises SingularJacobianError
    even when the trivial data would satisfy the endpoint immediately.
    """
    if spec.mode not in (MOLECULAR, DARCY):
        raise ValueError("solve_shooting applies to molecular and darcy problems")
    gamma, j0_norm = _origin_linearization(spec)
    residual = np.inf
    converged = False
    cond = np.inf
    iterations = 0
    for iterations in range(1, max_newton + 1):
        # keep the base trajectory: the converged one is the solution
        J, mesh, profiles = _jacobian_batch(spec, gamma, n_nodes)
        end = profiles[:, -1]
        # at a resonance the endpoint map loses rank, but discretization
        # error leaves a uniformly tiny, well-conditioned J; measure the
        # smallest singular value against the map's natural scale instead
        s = np.linalg.svd(J, compute_uv=False)
        smin = float(s[-1])
        cond = np.inf if smin == 0.0 else max(float(s[0]), j0_norm) / smin
        if not np.isfinite(cond) or cond > RESONANCE_COND_LIMIT:
            raise SingularJacobianError(
                f"shooting Jacobian condition estimate {cond:.3e} exceeds "
                f"{RESONANCE_COND_LIMIT:.0e}: the two-point problem is at or near "
                f"a resonance and does not determine gamma", condition=cond)
        S = end - spec.u_star
        residual = float(np.max(np.abs(S)))
        if residual <= tol:
            converged = True
            break
        gamma = gamma + np.linalg.solve(J, -S)
    if not converged:
        raise MaxIterationError(
            f"shooting did not reach {tol:.3e} in {max_newton} Newton iterations "
            f"(endpoint mismatch {residual:.3e})", last_update=residual)
    return _solution(spec, mesh, profiles, gamma, method="shooting", iterations=iterations,
                     jacobian_condition=cond)


def _check_f_positive(spec: ProblemSpec):
    box = default_box(spec)
    uu, pp = np.meshgrid(*(np.linspace(*box[v], 65) for v in ("u1", "p")), indexing="ij")
    A, _, b_next = spec.coefficients([uu], pp)
    a = A[..., 0, 0]
    if not np.all(a):
        raise SingularMatrixError("scalar coefficient a vanishes on the sampled rectangle")
    with np.errstate(over="ignore"):        # an infinite F is still positive
        F = b_next / a
    fmin = float(np.min(F))
    if fmin <= 0.0:
        raise NonPositiveFError(
            f"F = b_next/a must be positive on the sampled rectangle; min sampled value {fmin:.6g}")


def solve_scalar(spec: ProblemSpec, bracket_hints=None, n_nodes: int = 1001,
                 tol: float = 1e-10, max_bisect: int = 200) -> ProfileSolution:
    """Batched k-section on gamma for dU/dp = gamma*F(U,p), F = b_next/a > 0,
    the darcy problems with n = 1 and b absent (the ``scalar`` spelling).

    ``bracket_hints``, when given, are the integrals (int_0^p* r, int_0^p* q)
    of lower/upper bounds r <= F <= q, yielding the analytic initial bracket
    [u*/int q, u*/int r]. Otherwise the bracket grows geometrically from 0.
    Every gamma goes through one memoized batch integration: both bracket
    ends in one batch, then KSECTION_WIDTH interior candidates per pass, and
    no gamma twice. ``max_bisect`` halvings buy ceil(max_bisect / 5) passes.
    The returned profile is the winning candidate's own trajectory, kept
    from its batch. The endpoint map's strict monotonicity in gamma is
    asserted on every sampled pair.
    """
    if spec.mode != DARCY or spec.n != 1 or spec.b is not None:
        raise ValueError("solve_scalar applies to darcy problems with n = 1 and no b")
    _check_f_positive(spec)
    u_star = float(spec.u_star[0])
    evals = {}                  # gamma -> endpoint U(p*)
    hits = {}                   # gamma -> (mesh, profiles) of the endpoints within tol
    runs = 0                    # integrations, each of one batch of gammas

    def batch(gams):
        nonlocal runs
        new = [gam for gam in dict.fromkeys(gams) if gam not in evals]
        if new:
            mesh, traj = _integrate_batch(spec, np.array(new)[:, None], n_nodes)
            runs += 1
            for j, (gam, end) in enumerate(zip(new, traj[-1, :, 0].tolist())):
                evals[gam] = end
                if abs(end - u_star) <= tol:
                    hits[gam] = mesh, traj[:, j, :].T.copy()
        return [evals[gam] for gam in gams]

    if bracket_hints is not None:
        r_int, q_int = float(bracket_hints[0]), float(bracket_hints[1])
        if r_int <= 0 or q_int <= 0:
            raise BracketFailureError("bracket hints must be positive integrals")
        lo, hi = sorted((u_star / q_int, u_star / r_int))
    else:
        lo = hi = 0.0
    # the endpoint map increases in gamma: move whichever end is short
    step = abs(u_star) / spec.p_star
    for grow in range(61):
        miss_lo, miss_hi = (end - u_star for end in batch([lo, hi]))
        gamma = next((c for c in (lo, hi) if c in hits), None)
        if gamma is not None or miss_lo * miss_hi < 0.0:
            break
        if grow == 60:
            raise BracketFailureError(
                f"no sign change in the endpoint map after {grow} expansions "
                f"(gamma in [{lo:.6g}, {hi:.6g}])")
        if miss_hi < 0.0:
            hi += step
        else:
            lo -= step
        step *= 2.0
    passes, best_miss = 0, math.inf
    while gamma is None:
        if passes == math.ceil(max_bisect / 5):
            raise MaxIterationError(f"k-section did not reach {tol:.3e} in {passes} passes",
                                    last_update=best_miss)
        passes += 1
        nodes = np.linspace(lo, hi, KSECTION_WIDTH + 2)
        ends = np.array(batch(nodes[1:-1].tolist()))
        miss = np.abs(ends - u_star)
        best = int(np.argmin(miss))
        best_miss = float(miss[best])
        if best_miss <= tol:
            gamma = float(nodes[1 + best])
            break
        below = int(np.count_nonzero(ends < u_star))
        if not 0.0 < nodes[below + 1] - nodes[below] < hi - lo:
            raise MaxIterationError(
                f"k-section bracket [{lo:.17g}, {hi:.17g}] stopped shrinking before "
                f"the endpoint reached {tol:.3e}", last_update=best_miss)
        lo, hi = float(nodes[below]), float(nodes[below + 1])

    # monotonicity witness: at least 5 sampled gamma pairs, strictly increasing
    # beyond the rounding noise of an m-step integration (tol may lie below it)
    if len(evals) < 6:
        base = gamma if gamma != 0.0 else 1.0
        batch([base * fac for fac in (0.5, 0.75, 1.25, 1.5)])
    gs = [evals[gam] for gam in sorted(evals)]
    slack = require_odd(n_nodes) * np.finfo(float).eps * max(abs(v) for v in gs)
    if any(g2 <= g1 - slack for g1, g2 in zip(gs, gs[1:])):
        raise FuncsolError(
            "endpoint map is not strictly increasing in gamma; "
            "the positivity of F does not hold along the trajectories")

    mesh, profiles = hits[gamma]
    return _solution(spec, mesh, profiles, np.array([gamma]), method="scalar_bisection",
                     iterations=runs, endpoint_evaluations=len(evals), monotone_samples=len(gs))
