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
  the strict monotonicity of the endpoint in gamma. A stack of gammas
  integrates for about the cost of one, so each pass integrates
  KSECTION_WIDTH candidates at once: a uniform pass shrinks the bracket
  32-fold; one aimed through the AIM_SAMPLES endpoints sampled nearest
  the root usually lands within tol. The bracket's batch is the first pass.

Each backend checks its precondition where the solution lives, at the
launch point U = 0, p = 0 and then along the profile it returns: A(U)
elliptic for the fixed point, F > 0 for the k-section.

Every initial value problem goes through one integrator: DOP853, batched
over a stack of gammas that share one step sequence, returning every
column's endpoint. Its steps end on nodes of a uniform mesh of N nodes,
and its dense output fills the nodes in between for the columns a caller
keeps: the mesh sets the output resolution, the error control the step
count. The control's per-step tolerance follows the caller's ``tol``:
tol / 100 within [RTOL_FLOOR, RTOL_CEILING], the floor when no ``tol``
is given. The reconstruction layer treats the node samples as
piecewise-linear interpolants.

Every backend's ``two_point_residual`` measures its profile through
``collocation_defect``: the equation defect at each interval midpoint,
with states and slopes from the cubic through the four nearest nodes.
"""

from __future__ import annotations

import itertools
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
from .numerics import at_least_five_nodes, check_tol, cumulative_simpson, midpoint_cubic

MOLECULAR = "molecular"
DARCY = "darcy"
SCALAR = "scalar"           # a spelling of darcy, lowered by ProblemSpec
MODES = (MOLECULAR, DARCY, SCALAR)
_ONE = parse_expression("1", ())  # an absent b_next

SINGULAR_COND_LIMIT = 1e12
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
RESONANCE_COND_LIMIT = 1e8
MIN_DAMPING = 1.0 / 16.0
KSECTION_WIDTH = 31         # interior candidates per batched k-section pass
AIM_SAMPLES = 12            # sampled endpoints an aimed pass is built from
# each backend's iteration cap: Picard iterations, Newton steps, k-section halvings
MAX_ITER = {"fixed_point": 200, "shooting": 30, "scalar_bisection": 200}
# bounds of the error per two-point step, relative to the largest |U| so far; above
# the ceiling a shooting Jacobian, differenced over a 1e-6 shift, misleads Newton
RTOL_FLOOR, RTOL_CEILING = 1e-15, 1e-13

# DOP853: the explicit 8(5,3) Runge-Kutta pair with 7th order dense output of
# Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6. Column 0 is left out:
# every combination acts on the stage increments K_s - K_0, its K_0 weight
# implied by the row sums (C for A, 1 for B, 0 for E3, E5 and D).
_DOP_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
          0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
          0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
          0.7777777777777778)
_DOP_A = tuple(np.array(row) for row in (
    (), (),
    (0.0591751709536137,),
    (0, 0.08876275643042054),
    (0, -0.8845494793282861, 0.924834003261792),
    (0, 0, 0.17082860872947386, 0.12546768756682242),
    (0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
     0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298),
    (0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0, 0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724,
     -9.15095847217987),
))
_DOP_B = _DOP_A[12]         # the 8th order weights, stage 12 being the step's end
_DOP_E3 = np.array((0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
                    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
                    0.02265179219836082))
_DOP_E5 = np.array((0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
                    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                    0.08192320648511571, -0.022355307863886294))
_DOP_D = np.array((
    (0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
))


@dataclass(eq=False)
class ProblemSpec:
    """Coefficient data for one two-point/PDE problem.

    ``a`` is an n x n matrix of expression programs over u_1..u_n and p;
    ``b`` is absent (zero) and ``b_next`` absent (one) in the molecular
    case; a darcy ``b_next`` defaults to one. ``mode="scalar"`` is darcy
    with n = 1, its lone coefficient spelled ``b[0]``: it lowers to b
    absent and ``b_next = b[0]``, refusing a ``b_next`` of its own.
    """

    n: int
    a: list
    b: list | None = None
    b_next: tuple = None
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
        if not (np.isfinite(self.u_star).all() and 0.0 < self.p_star < math.inf):
            raise ValueError(f"u_star must be finite and p_star positive and finite, "
                             f"got {self.u_star} and {self.p_star}")
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
            self.b_next = _ONE
        exprs = [e for row in self.a for e in row] + list(self.b or [])
        exprs.append(_ONE if self.b_next is None else self.b_next)
        used = collect_variables(*exprs)
        extra = used - self.variables
        if extra:
            raise ValueError(f"expression references undeclared variables {sorted(extra)}")
        if self.mode == MOLECULAR and "p" in used:
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
        ``bundle.programs[k]``, times the gradient of that field.
        """
        n, nn = self.n, self.n * self.n
        laws = [(i, float(self.u_star[i]), [(i * n + j, j) for j in range(n)]
                 + ([] if self.b is None else [(nn + i, n)])) for i in range(n)]
        if self.mode == DARCY:
            laws.append((n, self.p_star, [(len(self.bundle.programs) - 1, n)]))
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


@dataclass(frozen=True, eq=False)
class ProfileSolution:
    mesh: np.ndarray            # (m,) strictly increasing, 0 .. p_star
    profiles: np.ndarray        # (n, m) sampled U_i
    gamma: np.ndarray           # (n,)
    two_point_residual: float
    boundary_error: float
    stats: dict = field(default_factory=dict)


def _singular_at(p, kappa):
    """The error of every per-node singularity refusal: the pivot value p
    and the condition estimate that failed SINGULAR_COND_LIMIT."""
    return SingularMatrixError(f"coefficient matrix numerically singular at p = {p:.6g} "
                               f"(condition estimate {kappa:.3e})")


def _inverse_along(A, p=None):
    """The inverses of a stack of matrices A, refusing any whose Frobenius
    condition number kappa_F = |A|_F |A^-1|_F exceeds SINGULAR_COND_LIMIT:
    the singularity rule for n >= 2. kappa_F is taken of B = A / max|A|, so
    that only kappa_F can overflow; it needs no SVD, and kappa_2 <= kappa_F
    <= n kappa_2. For n = 2 it is |B|_F^2 / |det B|, since |adj B|_F =
    |B|_F, and A^-1 = (adj B / det B) / max|A|; n >= 3 goes through LAPACK.
    A singular or non-finite A counts as inf. The error names the worst
    matrix's pivot value, from ``p`` (one per matrix, or one for the
    stack), or the averaged inverse matrix when ``p`` is None."""
    if A.shape[-1] == 2:
        with np.errstate(all="ignore"):
            s = np.abs(A)
            s = np.maximum(s[..., :1], s[..., 1:])          # each row's max
            s = np.maximum(s[..., :1, :], s[..., 1:, :])    # max|A|, (..., 1, 1)
            B = A / s
            det = B[..., :1, :1] * B[..., 1:, 1:] - B[..., :1, 1:] * B[..., 1:, :1]
            inv = np.swapaxes(B[..., ::-1, ::-1], -1, -2) * _ADJUGATE_SIGNS / det / s
            kappa = np.einsum("...ij,...ij", B, B) / np.abs(det[..., 0, 0])
    else:
        try:
            inv = np.linalg.inv(A)
            s = np.max(np.abs(A), axis=(-2, -1), keepdims=True)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                B, C = A / s, inv * s
                kappa = np.sqrt(np.einsum("...ij,...ij", B, B) * np.einsum("...ij,...ij", C, C))
        except np.linalg.LinAlgError:
            inv, kappa = None, np.where(np.abs(np.linalg.det(A)) > 0.0, 0.0, np.inf)
    if kappa.max() <= SINGULAR_COND_LIMIT:         # False when any kappa is NaN
        return inv
    kappa = np.atleast_1d(np.where(np.isnan(kappa), np.inf, kappa))
    k = int(np.argmax(kappa))
    if p is None:
        raise SingularMatrixError(
            f"averaged inverse matrix singular (condition estimate {kappa[k]:.3e})")
    raise _singular_at(float(np.broadcast_to(p, kappa.shape)[k]), kappa[k])


def _averaged_inverse(mesh, profiles, spec: ProblemSpec, what):
    """C(z) = int_0^z A^-1(U) along a molecular profile, by
    ``cumulative_simpson``, and gamma[U] = C(1)^-1 u*, refusing a
    numerically singular C(1). The one quadrature of T[U] and gamma[U]."""
    if spec.mode != MOLECULAR:
        raise ValueError(f"{what} applies to molecular problems")
    A = spec.coefficients(np.asarray(profiles, dtype=float), mesh)[0]
    C = cumulative_simpson(_inverse_along(A, mesh), mesh[1] - mesh[0])
    _inverse_along(C[-1])
    return C, np.linalg.solve(C[-1], spec.u_star)


def gamma_functional(mesh, profiles, spec: ProblemSpec):
    """gamma[U] = (int_0^1 A^-1(U(t)) dt)^-1 u*."""
    return _averaged_inverse(mesh, profiles, spec, "gamma functional")[1]


def apply_fixed_point_operator(mesh, profiles, spec: ProblemSpec):
    """T[U](z) = (int_0^z A^-1)(int_0^1 A^-1)^-1 u* on the same mesh."""
    C, gamma = _averaged_inverse(mesh, profiles, spec, "the fixed point operator")
    out = (C @ gamma).T
    out[:, 0] = 0.0
    out[:, -1] = spec.u_star
    return out


def collocation_defect(mesh, profiles, gamma, spec: ProblemSpec) -> np.ndarray:
    """The equation defect A(U) U' + b(U, p) - gamma b_{n+1}(U, p), shaped
    (n, m - 1), at the midpoint of every interval of the mesh.

    Midpoint states and slopes come from ``midpoint_cubic``, so the defect
    is O(h^4) in the interior and O(h^3) on the end intervals, not the
    piecewise-linear interpolation error's O(h^2). Its interior maximum is
    ``collocation_residual``; its running integral is ``theta_linearity``'s.
    """
    mid, slopes = midpoint_cubic(np.vstack([profiles, mesh]), mesh[1] - mesh[0])
    A, b, b_next = spec.coefficients(mid[:-1], mid[-1])
    defect = np.einsum("kij,jk->ik", A, slopes[:-1], order="C")   # rows contiguous, for cumsum
    if b is not None:
        defect += b.T
    defect -= np.asarray(gamma, dtype=float)[:, None] * b_next[None, :]
    return defect


def collocation_residual(mesh, profiles, gamma, spec: ProblemSpec) -> float:
    """Max |``collocation_defect``| over the interior intervals, those with
    two nodes on each side."""
    return float(np.max(np.abs(collocation_defect(mesh, profiles, gamma, spec)[:, 1:-1])))


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


def _ellipticity(spec: ProblemSpec, mesh, profiles):
    """m and M, the extreme eigenvalues of the symmetrized A(U) at the nodes
    of a molecular profile, refusing m <= 0 with the node where it fails."""
    A = spec.coefficients(np.asarray(profiles, dtype=float), mesh)[0]
    eigs = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))
    k = int(np.argmin(eigs[:, 0]))
    m, M = float(eigs[k, 0]), float(eigs[:, -1].max())
    if m <= 0.0:
        raise NonEllipticError(f"A(U) is not elliptic at z = {mesh[k]:.6g}: "
                               f"smallest eigenvalue {m:.6g} <= 0")
    return m, M


def solve_fixed_point(spec: ProblemSpec, n_nodes: int = 1001, tol: float = 1e-10,
                      max_iter: int = MAX_ITER["fixed_point"],
                      damping: float = 1.0) -> ProfileSolution:
    """Damped Picard iteration on T[U], started from the linear ramp z*u*.

    The damping halves (down to 1/16) whenever the sup-norm update grows.
    ``tol`` bounds the update only: gamma is as good as the node quadrature
    of int A^-1, 2.0e-4 off at 257 nodes on README's example.
    Ellipticity is checked where the solution lives: at the launch point
    U = 0 before iterating, and along the converged U, whose m and M give
    the operator bound sup_z |U(z)|_2 <= (M/m) |u*|_2 it is checked against.
    """
    if spec.mode != MOLECULAR:
        raise ValueError("solve_fixed_point applies to molecular problems")
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    check_tol(tol)
    m_nodes = at_least_five_nodes(n_nodes)
    mesh = np.linspace(0.0, 1.0, m_nodes)
    _ellipticity(spec, mesh[:1], np.zeros((spec.n, 1)))
    U = mesh[None, :] * spec.u_star[:, None]
    prev_update = update = np.inf
    for iterations in range(1, max_iter + 1):
        U_new = (1.0 - damping) * U + damping * apply_fixed_point_operator(mesh, U, spec)
        update = float(np.max(np.abs(U_new - U)))
        U = U_new
        if update <= tol:
            break
        if update > prev_update:
            damping = max(damping / 2.0, MIN_DAMPING)
        prev_update = update
    else:
        raise MaxIterationError(
            f"fixed point iteration did not reach {tol:.3e} in {max_iter} iterations "
            f"(last update {update:.3e})", last_update=update)
    m, M = _ellipticity(spec, mesh, U)
    limit = (M / m) * float(np.linalg.norm(spec.u_star))
    sup = float(np.max(np.linalg.norm(U, axis=0)))
    if sup > limit * (1.0 + 1e-9):
        raise FuncsolError(f"fixed point solution escaped the operator bound: "
                           f"sup |U| = {sup:.6g} > (M/m)|u*| = {limit:.6g}")
    return _solution(spec, mesh, U, gamma_functional(mesh, U, spec), method="fixed_point",
                     iterations=iterations, final_update=update, damping_final=damping,
                     ellipticity_m=m, ellipticity_M=M,
                     iterate_bound_ratio=sup / limit if limit > 0.0 else 0.0,
                     integration_steps=0, rhs_evaluations=0)


def _integrate_batch(spec: ProblemSpec, gammas, n_nodes, steps=None, tol=None):
    """DOP853 for U' = A^-1 (gamma*b_next - b) from U(0) = 0, batched over a
    stack of gammas and sampled on the uniform mesh of ``n_nodes`` nodes.

    Every step runs from one mesh node to a later one, and the columns of
    the batch share one step sequence. The first step tries the whole
    interval; each next length comes from the last error estimate (the
    usual 0.9 * err^(-1/8), within [0.2, 10]) rounded down to whole mesh
    intervals. A step is rejected when its estimate, in any column,
    exceeds rtol times the largest |U| seen in that column: ``tol`` / 100
    within [RTOL_FLOOR, RTOL_CEILING], RTOL_FLOOR when ``tol`` is None. A
    one-interval step is accepted whatever its estimate, so there are at
    most m - 1 steps and the guards below still meet every node a
    trajectory cannot step over. ``steps``, the step-end node indices of an earlier batch,
    replays that sequence instead of running the controller, so ``tol``
    does not affect it.

    Every stage runs the singularity guards under one raising numpy error
    state. A floating point exception or a tripped guard rejects a
    controlled step of more than one interval; anywhere else the guard
    raises its SingularMatrixError and the exception an EvalDomainError
    naming the coefficient at fault, if one is. Returns the (k, n)
    endpoints U(p*), the step-end node indices, the number of
    right-hand-side evaluations and ``profile``, which gives the mesh and
    column c's (n, m) trajectory as ``profile(c)``: each step's own end
    value and, inside the step, the dense output of its kept stages. It
    is elementwise, so a column's trajectory does not depend on the width
    of its batch, and only the columns a caller keeps pay for the mesh.
    """
    gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
    k, n = gammas.shape[0], spec.n
    m = at_least_five_nodes(n_nodes)
    mesh = np.linspace(0.0, spec.p_star, m)
    raw, names, nn = spec.bundle.raw, [f"u{i+1}" for i in range(n)], n * n
    has_b = spec.b is not None
    rtol = RTOL_FLOOR if tol is None else max(RTOL_FLOOR, min(RTOL_CEILING, tol / 100.0))
    env = dict.fromkeys(names + ["p"], 0.0)         # the launch point

    if n == 1:
        # kappa_F is identically 1 for n = 1, so measure |a| against its
        # value at the launch point instead; a singular launch trips at once
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
                    raise _singular_at(p, np.max(a_launch / np.abs(a)))
            return (rhs / a)[:, None]
    else:
        # every coefficient's column: A row by row, then b, then b_next.
        # _inverse_along applies the kappa_F rule to A / max|A|, so only a
        # singular A, not a huge or tiny one, stops a step
        columns = np.empty((k, len(spec.bundle.programs)))

        def f(p, state):
            env.update(zip(names, state.T))
            env["p"] = p
            for j, v in enumerate(raw(env)):
                columns[:, j] = v
            rhs = gammas * columns[:, -1:]
            if has_b:
                rhs -= columns[:, nn:-1]
            A = columns[:, :nn].reshape(k, n, n)
            return (_inverse_along(A, p) @ rhs[:, :, None])[:, :, 0]

    calls = 0

    def slope(p, state):
        nonlocal calls
        calls += 1
        return f(p, state.reshape(k, n)).ravel()

    # dK[:, s - 1] = K_s - K_0 for the stages s = 1..15 of the current step.
    # Every combination is an elementwise product summed along rows, so a
    # column's arithmetic does not depend on the width of its batch
    dK = np.zeros((k * n, 15))

    def combine(row):
        return (dK[:, :len(row)] * row).sum(axis=1)

    def stage(s, p, y, H, K0):
        dK[:, s - 1] = slope(p, y + H * (_DOP_C[s] * K0 + combine(_DOP_A[s]))) - K0

    ends, records = [], []              # each accepted step's dense output data
    peak = np.zeros(k)                  # the largest |U| seen in each column
    i, span, rejected, y = 0, float(m - 1), False, np.zeros(k * n)
    try:
        with np.errstate(**exprlang.RAISE):
            K0 = slope(0.0, y)
            while i < m - 1:
                j = min(max(int(span), 1), m - 1 - i) if steps is None else steps[len(ends)] - i
                p0, p1 = mesh[i], mesh[i + j]
                H = p1 - p0
                try:
                    for s in range(1, 12):
                        stage(s, p1 if _DOP_C[s] == 1.0 else p0 + _DOP_C[s] * H, y, H, K0)
                    delta = H * combine(_DOP_B)
                    y1 = y + (H * K0 + delta)
                    ratio = 0.0 if steps is not None else _error_ratio(
                        H * combine(_DOP_E5), H * combine(_DOP_E3), y1, peak, k, n, rtol)
                    accept = j == 1 or ratio <= 1.0
                    if accept:
                        dK[:, 11] = slope(p1, y1) - K0      # K_0 of the next step
                        if j > 1:
                            for s in (13, 14, 15):
                                stage(s, p0 + _DOP_C[s] * H, y, H, K0)
                except (FloatingPointError, ZeroDivisionError, SingularMatrixError):
                    if j == 1 or steps is not None:
                        raise
                    ratio, accept = math.inf, False
                if steps is None:
                    # inf ** -0.125 == 0 clamps to 0.2, but 0.0 ** -0.125 raises
                    grow = 10.0 if ratio == 0.0 else min(10.0, max(0.2, 0.9 * ratio ** -0.125))
                    span = j * (min(grow, 1.0) if rejected else grow)
                    rejected = not accept
                if not accept:
                    continue
                records.append((i, j, y, K0, dK.copy() if j > 1 else None, delta, y1))
                peak = np.maximum(peak, np.abs(y1).reshape(k, n).max(axis=1))
                y, K0 = y1, K0 + dK[:, 11]
                i += j
                ends.append(i)
    except (FloatingPointError, ZeroDivisionError) as exc:
        spec.bundle(env)        # raises the EvalDomainError naming the coefficient at fault
        raise EvalDomainError(f"the two-point integration left the floating point range "
                              f"near p = {float(env['p']):.6g}: {exc}") from None

    def profile(c):
        cols, out = slice(c * n, (c + 1) * n), np.zeros((n, m))
        for i, j, y, K0, dK, delta, y1 in records:
            if j > 1:
                p0 = mesh[i]
                H = mesh[i + j] - p0
                # the 7th order dense output with its linear part (p - p0) K_0
                # split off, so that a constant F stays exact
                F = H * (dK[cols] * _DOP_D[:, None, :]).sum(axis=2)
                x = ((mesh[i + 1:i + j] - p0) / H)[:, None]
                q = F[2] + x * F[3]
                q = F[1] + (1.0 - x) * q
                q = F[0] + x * q
                q = 2.0 * delta[cols] - H * dK[cols, 11] + (1.0 - x) * q
                q = -delta[cols] + x * q
                q = delta[cols] + (1.0 - x) * q
                out[:, i + 1:i + j] = (y[cols] + (mesh[i + 1:i + j, None] - p0) * K0[cols]
                                       + x * q).T
            out[:, i + j] = y1[cols]
        return mesh, out

    return y.reshape(k, n), tuple(ends), calls, profile


def _error_ratio(err5, err3, y1, peak, k, n, rtol):
    """The batch's DOP853 error estimate against its tolerance: the largest
    over the columns, each measured against ``rtol`` times the largest |U|
    it has reached. No absolute term, so small finite-difference columns
    keep their relative accuracy."""
    with np.errstate(all="ignore"):
        sq5 = (err5.reshape(k, n) ** 2).sum(axis=1)
        sq3 = (err3.reshape(k, n) ** 2).sum(axis=1)
        scale = rtol * np.maximum(peak, np.abs(y1).reshape(k, n).max(axis=1))
        ratio = np.where(sq5 > 0.0, sq5 / (np.sqrt(sq5 + 0.01 * sq3) * scale), 0.0)
    return float(np.max(ratio))


def integrate_profiles(spec: ProblemSpec, gamma, n_nodes: int):
    """Integrate the initial value problem for a given gamma; returns (mesh, profiles)."""
    return _integrate_batch(spec, np.asarray(gamma, dtype=float)[None, :], n_nodes)[3](0)


def _origin_linearization(spec: ProblemSpec):
    """gamma0 and the shooting-map scale from the origin linearization.

    Freezing the coefficients at the origin makes the profiles linear, so
    gamma0 = (A(0) u*/p* + b(0)) / b_{n+1}(0) and the linearized map
    gamma -> U(p*) has Jacobian J0 = p* b_{n+1}(0) A(0)^-1. J0's norm is
    the natural sensitivity scale the resonance check measures against.
    A(0)^-1 comes from ``_inverse_along``; its refusal makes the
    linearization degenerate.
    """
    A, b, bn = spec.coefficients(np.zeros((spec.n, 1)), 0.0)
    bn0 = float(bn[0])
    b0 = 0.0 if b is None else b[0]
    try:
        inv0 = _inverse_along(A, 0.0)[0]
    except SingularMatrixError as exc:
        raise DegenerateLinearizationError(f"origin linearization is degenerate: {exc}") from None
    with np.errstate(all="ignore"):
        gamma0 = (A[0] @ spec.u_star / spec.p_star + b0) / bn0
    if bn0 == 0.0 or not np.all(np.isfinite(gamma0)):
        raise DegenerateLinearizationError(f"origin value of b_next ({bn0:.3e}) is degenerate")
    j0_norm = float(np.linalg.norm(spec.p_star * bn0 * inv0, 2))
    return gamma0, j0_norm


def shooting_jacobian(spec: ProblemSpec, gamma, n_nodes: int = 1001, tol=None):
    """Forward-difference Jacobian of gamma -> U(p*; gamma) from the
    endpoints of one batch integrated to ``tol``, with the mesh and the
    (n, m) profiles of the unperturbed run, the one column whose mesh is
    filled; also the batch's step count and right-hand-side evaluations."""
    gamma = np.asarray(gamma, dtype=float)
    shifts = 1e-6 * (1.0 + np.abs(gamma))
    gammas = np.vstack([gamma, gamma + np.diag(shifts)])
    U, steps, calls, profile = _integrate_batch(spec, gammas, n_nodes, tol=tol)
    J = (U[1:] - U[0]).T / shifts[None, :]
    return J, *profile(0), (len(steps), calls)


def solve_shooting(spec: ProblemSpec, n_nodes: int = 1001, tol: float = 1e-10,
                   max_iter: int = MAX_ITER["shooting"]) -> ProfileSolution:
    """Newton iteration on the shooting map S(gamma) = U(p*; gamma) - u*,
    at most ``max_iter`` steps.

    The Jacobian condition is checked before accepting convergence, so a
    resonant problem (singular shooting map) raises SingularJacobianError
    even when the trivial data would satisfy the endpoint immediately.
    """
    check_tol(tol)
    gamma, j0_norm = _origin_linearization(spec)
    residual = np.inf
    steps = calls = 0
    for iterations in range(1, max_iter + 1):
        # keep the base trajectory: the converged one is the solution
        J, mesh, profiles, work = shooting_jacobian(spec, gamma, n_nodes, tol)
        steps, calls = steps + work[0], calls + work[1]
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
            break
        gamma = gamma + np.linalg.solve(J, -S)
    else:
        raise MaxIterationError(
            f"shooting did not reach {tol:.3e} in {max_iter} Newton iterations "
            f"(endpoint mismatch {residual:.3e})", last_update=residual)
    return _solution(spec, mesh, profiles, gamma, method="shooting", iterations=iterations,
                     jacobian_condition=cond, integration_steps=steps, rhs_evaluations=calls)


def allowed_backends(spec: ProblemSpec):
    """Two-point backends that accept ``spec``; k-section needs n = 1 and no b."""
    if spec.mode == MOLECULAR:
        return ("fixed_point", "shooting")
    return ("shooting", "scalar_bisection") if spec.n == 1 and spec.b is None else ("shooting",)


def solve_two_point(spec: ProblemSpec, backend: str, n_nodes: int, tol: float,
                    bracket_hints=None, max_iter=None, damping=None) -> ProfileSolution:
    """Solve with ``backend``, one of ``allowed_backends(spec)``. ``max_iter``
    caps its loop (Picard iterations, Newton steps or k-section halvings),
    ``damping`` is fixed_point's and ``bracket_hints`` scalar_bisection's;
    None keeps the backend's default. The backends are looked up in this
    module at each call, so a wrapper installed here sees every solve."""
    options = {} if max_iter is None else {"max_iter": max_iter}
    if backend == "fixed_point":
        if damping is not None:
            options["damping"] = damping
        return solve_fixed_point(spec, n_nodes, tol, **options)
    if backend == "shooting":
        return solve_shooting(spec, n_nodes, tol, **options)
    if backend == "scalar_bisection":
        return solve_scalar(spec, n_nodes, tol, bracket_hints=bracket_hints, **options)
    raise ValueError(f"unknown two-point backend '{backend}'")


def _check_f_positive(spec: ProblemSpec, mesh, profiles):
    """Refuse F = b_next/a <= 0 at the nodes of a scalar profile (1, k). A
    vanishing a is left to ``_integrate_batch``'s launch guard, the one
    singularity rule, so a NaN F (a = b_next = 0) passes here."""
    A, _, b_next = spec.coefficients(profiles, mesh)
    with np.errstate(all="ignore"):         # an infinite F is still positive
        F = b_next / A[..., 0, 0]
    k = int(np.argmin(np.where(F <= 0.0, F, np.inf)))
    if F[k] <= 0.0:
        raise NonPositiveFError(f"F = b_next/a must be positive; it is {F[k]:.6g} "
                                f"at u1 = {profiles[0, k]:.6g}, p = {mesh[k]:.6g}")


def _aimed_window(gammas, ends, u_star, tol, lo, hi):
    """The window (a, b) of an aimed k-section pass: around the root of the
    inverse polynomial gamma(U) through four or more (gamma, U(p*)) samples
    straddling u*, by Neville's scheme at U = u*, its half-width 4 times the
    change from the order below, at least 16 tol in U by the straddling
    pair's slope, clipped strictly inside (lo, hi). NaN when the samples do
    not increase or the estimate is NaN (max, min keep a NaN)."""
    if not all(e1 < e2 for e1, e2 in zip(ends, ends[1:])):
        return math.nan, math.nan
    g = list(gammas)
    for k in range(1, len(g)):
        lower = g[0]            # at the last k: the order below
        g = [((u_star - ends[i + k]) * g[i] + (ends[i] - u_star) * g[i + 1])
             / (ends[i] - ends[i + k]) for i in range(len(g) - 1)]
    j = min(max(sum(e < u_star for e in ends), 1), len(ends) - 1)
    half = max(4.0 * abs(g[0] - lower),
               16.0 * tol * (gammas[j] - gammas[j - 1]) / (ends[j] - ends[j - 1]))
    return max(g[0] - half, math.nextafter(lo, hi)), min(g[0] + half, math.nextafter(hi, lo))


def solve_scalar(spec: ProblemSpec, n_nodes: int = 1001, tol: float = 1e-10,
                 max_iter: int = MAX_ITER["scalar_bisection"],
                 bracket_hints=None) -> ProfileSolution:
    """Batched k-section on gamma for dU/dp = gamma*F(U,p), F = b_next/a > 0,
    the darcy problems with n = 1 and b absent (the ``scalar`` spelling).

    ``bracket_hints``, when given, are the integrals (int_0^p* r, int_0^p* q)
    of lower/upper bounds r <= F <= q, yielding the analytic initial bracket
    [u*/int q, u*/int r]. Otherwise the bracket grows geometrically from 0
    while its ends stay finite, in steps that start at |u*| / p* (the smallest
    positive float where that underflows) and double.
    Every gamma goes through one memoized batch integration, and no gamma
    twice; each bracket's batch holds its ends and the first uniform pass.
    Once the bracket straddles u*, its controlled batch's step sequence is
    frozen: every later candidate replays it, so all the endpoints compared
    come from one discrete map. A pass whose sign change falls between two
    of its candidates aims the next over ``_aimed_window`` through its
    AIM_SAMPLES nodes nearest the change, half on each side unless a pass
    end is nearer; the window's spacing is about tol in U. A miss shrinks
    the bracket to the side beside the window; the pass after it, or after
    an empty or NaN window, is uniform again. ``max_iter`` halvings buy
    ceil(max_iter / 5) passes, aimed or not, the first counted too.
    The returned profile is the winner's trajectory, the one mesh its
    batch fills. F > 0 is checked at the launch point and at the nodes of
    that trajectory; the endpoint map's strict monotonicity in gamma is
    asserted on every sampled pair.
    """
    if "scalar_bisection" not in allowed_backends(spec):
        raise ValueError("solve_scalar applies to darcy problems with n = 1 and no b")
    check_tol(tol)
    _check_f_positive(spec, np.zeros(1), np.zeros((1, 1)))     # the launch point
    u_star = float(spec.u_star[0])
    evals = {}                  # gamma -> endpoint U(p*)
    hits = {}                   # gamma -> (profile, column) of the endpoints within tol
    runs = taken = calls = 0    # integrations, each of one batch of gammas, and their work
    frozen = last = None        # the step sequence every candidate replays; the latest one

    def batch(gams):
        nonlocal runs, taken, calls, last
        new = [gam for gam in dict.fromkeys(gams) if gam not in evals]
        if new:
            U, last, work, profile = _integrate_batch(spec, np.array(new)[:, None], n_nodes,
                                                      frozen, tol=tol)
            runs, taken, calls = runs + 1, taken + len(last), calls + work
            for j, (gam, end) in enumerate(zip(new, U[:, 0].tolist())):
                evals[gam] = end
                if abs(end - u_star) <= tol:
                    hits[gam] = profile, j
        return [evals[gam] for gam in gams]

    if bracket_hints is not None:
        r_int, q_int = float(bracket_hints[0]), float(bracket_hints[1])
        if not (r_int > 0 and q_int > 0):       # NaN too
            raise BracketFailureError("bracket hints must be positive integrals")
        lo, hi = sorted((u_star / q_int, u_star / r_int))
    else:
        lo = hi = 0.0
    # the endpoint map increases in gamma: move whichever end is short; a zero
    # step would never move it
    step = max(abs(u_star) / spec.p_star, math.ulp(0.0))
    for grow in itertools.count():
        evals.clear()           # the ends and the first pass from one batch, on one step sequence
        hits.clear()
        first = batch(np.linspace(lo, hi, KSECTION_WIDTH + 2).tolist())
        miss_lo, miss_hi = first[0] - u_star, first[-1] - u_star
        gamma = next((c for c in (lo, hi) if c in hits), None)
        if gamma is not None or miss_lo * miss_hi < 0.0:
            break
        next_end = hi + step if miss_hi < 0.0 else lo - step
        if not math.isfinite(next_end):
            raise BracketFailureError(
                f"no sign change in the endpoint map after {grow} expansions, the next "
                f"one out of range (gamma in [{lo:.6g}, {hi:.6g}])")
        lo, hi = (lo, next_end) if miss_hi < 0.0 else (next_end, hi)
        step *= 2.0
    frozen = last
    passes, best_miss, aim = 0, math.inf, None
    while gamma is None:
        if passes == math.ceil(max_iter / 5):
            raise MaxIterationError(f"k-section did not reach {tol:.3e} in {passes} passes",
                                    last_update=best_miss)
        passes += 1
        nodes = np.linspace(lo, hi, KSECTION_WIDTH + 2)
        a, b = (math.nan, math.nan) if aim is None else _aimed_window(*aim, u_star, tol, lo, hi)
        if a < b:
            nodes[1:-1] = np.linspace(a, b, KSECTION_WIDTH)
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
        # aim the next pass at a sign change between two candidates
        start = min(max(below - AIM_SAMPLES // 2 + 1, 0), len(nodes) - AIM_SAMPLES)
        near = nodes[start:start + AIM_SAMPLES].tolist()
        aim = (near, batch(near)) if 0 < below < KSECTION_WIDTH else None

    profile, column = hits[gamma]
    mesh, profiles = profile(column)
    _check_f_positive(spec, mesh, profiles)
    # monotonicity witness: at least 5 sampled gamma pairs of the one discrete
    # map, strictly increasing beyond the rounding noise of its at most m - 1
    # steps (tol may lie below it)
    if len(evals) < 6:
        base = gamma if gamma != 0.0 else 1.0
        batch([base * fac for fac in (0.5, 0.75, 1.25, 1.5)])
    gs = [evals[gam] for gam in sorted(evals)]
    slack = at_least_five_nodes(n_nodes) * np.finfo(float).eps * max(abs(v) for v in gs)
    if any(g2 <= g1 - slack for g1, g2 in zip(gs, gs[1:])):
        raise FuncsolError(
            "endpoint map is not strictly increasing in gamma; "
            "the positivity of F does not hold along the trajectories")

    return _solution(spec, mesh, profiles, np.array([gamma]), method="scalar_bisection",
                     iterations=runs, endpoint_evaluations=len(evals), monotone_samples=len(gs),
                     integration_steps=taken, rhs_evaluations=calls)
