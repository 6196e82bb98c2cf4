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
  KSECTION_WIDTH candidates at once.

Every initial value problem goes through one integrator: DOP853, batched
over a stack of gammas that share one step sequence. Its steps end on
nodes of a uniform odd-count mesh, and its dense output samples the
profiles at the nodes in between, so the mesh sets the output resolution
and the error control (RTOL) sets the step count. The reconstruction layer
treats the node samples as piecewise-linear interpolants.
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
    range_scale,
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
RTOL = 1e-15                # error per two-point step, relative to the largest |U| so far

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


def default_box(spec: ProblemSpec):
    """Per-variable sampling ranges around the data the iterates visit."""
    box = {}
    for i, us in enumerate(spec.u_star):
        box[f"u{i+1}"] = (min(0.0, us) - BOX_PAD, max(0.0, us) + BOX_PAD)
    box["p"] = (0.0, spec.p_star)
    return box


def _sample_box(spec: ProblemSpec, box, variables, samples: int):
    """``spec.coefficients`` on the lattice of ``samples`` points per axis
    over the ``box`` ranges of ``variables``, flattened. The other variables
    sit at the launch point, 0, where the solvers evaluate every coefficient
    anyway."""
    axes = [np.linspace(*box[v], samples) for v in variables]
    lattice = {v: g.ravel() for v, g in zip(variables, np.meshgrid(*axes, indexing="ij"))}
    return spec.coefficients([lattice.get(f"u{i+1}", 0.0) for i in range(spec.n)],
                             lattice.get("p", 0.0))


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
    A = _sample_box(spec, box, used, samples)[0]
    sym = 0.5 * (A + np.swapaxes(A, -1, -2))
    eigs = np.linalg.eigvalsh(sym)
    m = float(eigs.min())
    M = float(eigs.max())
    if m <= 0.0:
        raise NonEllipticError(f"sampled ellipticity failed: smallest eigenvalue {m:.6g} <= 0")
    return EllipticityBounds(m=m, M=M)


def _singular_at(p, kappa):
    """The error of every per-node singularity refusal: the pivot value p
    and the condition estimate that failed SINGULAR_COND_LIMIT."""
    return SingularMatrixError(f"coefficient matrix numerically singular at p = {p:.6g} "
                               f"(condition estimate {kappa:.3e})")


def _inverse_along(A, p=None):
    """The inverses of a stack of matrices A, refusing any whose Frobenius
    condition number kappa_F = |A|_F |A^-1|_F, taken of A / max|A| so that
    only kappa_F can overflow, exceeds SINGULAR_COND_LIMIT. This is the
    singularity rule for n >= 2. It needs no SVD, and kappa_2 <= kappa_F <=
    n kappa_2. A singular or non-finite A counts as inf. The error names
    the worst matrix's pivot value, from ``p`` (one per matrix, or one for
    the stack), or the averaged inverse matrix when ``p`` is None."""
    try:
        inv = np.linalg.inv(A)
        s = np.max(np.abs(A), axis=(-2, -1), keepdims=True)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            B, C = A / s, inv * s
            kappa = np.sqrt(np.einsum("...ij,...ij", B, B) * np.einsum("...ij,...ij", C, C))
    except np.linalg.LinAlgError:
        inv, kappa = None, np.where(np.abs(np.linalg.det(A)) > 0.0, 0.0, np.inf)
    kappa = np.atleast_1d(np.where(np.isnan(kappa), np.inf, kappa))
    k = int(np.argmax(kappa))
    if not kappa[k] <= SINGULAR_COND_LIMIT:
        if p is None:
            raise SingularMatrixError(
                f"averaged inverse matrix singular (condition estimate {kappa[k]:.3e})")
        raise _singular_at(float(np.broadcast_to(p, kappa.shape)[k]), kappa[k])
    return inv


def _solve_averaged(total, u_star):
    """(int A^-1)^-1 u*, refusing a numerically singular integral."""
    _inverse_along(total)
    return np.linalg.solve(total, u_star)


def _inverse_on_profile(mesh, profiles, spec: ProblemSpec, what):
    """A^-1(U) at the nodes of a molecular profile, and the mesh spacing."""
    if spec.mode != MOLECULAR:
        raise ValueError(f"{what} applies to molecular problems")
    A = spec.coefficients(np.asarray(profiles, dtype=float), mesh)[0]
    return _inverse_along(A, mesh), mesh[1] - mesh[0]


def gamma_functional(mesh, profiles, spec: ProblemSpec):
    """gamma[U] = (int_0^1 A^-1(U(t)) dt)^-1 u* by composite Simpson."""
    Ainv, h = _inverse_on_profile(mesh, profiles, spec, "gamma functional")
    return _solve_averaged(simpson_integral(Ainv, h), spec.u_star)


def apply_fixed_point_operator(mesh, profiles, spec: ProblemSpec):
    """T[U](z) = (int_0^z A^-1)(int_0^1 A^-1)^-1 u* on the same mesh."""
    C = cumulative_simpson(*_inverse_on_profile(mesh, profiles, spec, "the fixed point operator"))
    out = (C @ _solve_averaged(C[-1], spec.u_star)).T
    out[:, 0] = 0.0
    out[:, -1] = spec.u_star
    return out


def collocation_residual(mesh, profiles, gamma, spec: ProblemSpec) -> float:
    """Max equation defect at interior interval midpoints.

    Midpoint states and slopes come from 4th-order formulas, so the defect
    is O(h^4) in the mesh spacing instead of the piecewise-linear
    interpolation error's O(h^2).
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
    prev_update = update = np.inf
    bound_ratio = 0.0
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
            break
        if update > prev_update:
            damping = max(damping / 2.0, MIN_DAMPING)
        prev_update = update
    else:
        raise MaxIterationError(
            f"fixed point iteration did not reach {tol:.3e} in {max_iter} iterations "
            f"(last update {update:.3e})", last_update=update)
    return _solution(spec, mesh, U, gamma_functional(mesh, U, spec), method="fixed_point",
                     iterations=iterations, final_update=update, damping_final=damping,
                     ellipticity_m=bounds.m, ellipticity_M=bounds.M,
                     iterate_bound_ratio=bound_ratio, integration_steps=0, rhs_evaluations=0)


def _integrate_batch(spec: ProblemSpec, gammas, n_nodes, steps=None):
    """DOP853 for U' = A^-1 (gamma*b_next - b) from U(0) = 0, batched over a
    stack of gammas and sampled on the uniform odd-count mesh of ``n_nodes``.

    Every step runs from one mesh node to a later one, and the columns of
    the batch share one step sequence. The first step tries the whole
    interval; each next length comes from the last error estimate (the
    usual 0.9 * err^(-1/8), within [0.2, 10]) rounded down to whole mesh
    intervals. A step is rejected when its estimate, in any column,
    exceeds RTOL times the largest |U| seen in that column. A one-interval
    step is accepted whatever its estimate, so there are at most m - 1
    steps and the guards below still meet every node a trajectory cannot
    step over. Dense output fills the nodes inside a step; its end node
    gets the step's own value. ``steps``, the step-end node indices of an
    earlier batch, replays that sequence instead of running the controller.

    Every stage runs the singularity guards under one raising numpy error
    state. A floating point exception or a tripped guard rejects a
    controlled step of more than one interval; anywhere else the guard
    raises its SingularMatrixError and the exception an EvalDomainError
    naming the coefficient at fault, if one is. Returns the mesh, the
    (m, k, n) trajectory, the step-end node indices and the number of
    right-hand-side evaluations.
    """
    gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
    k, n = gammas.shape[0], spec.n
    m = require_odd(n_nodes)
    mesh = np.linspace(0.0, spec.p_star, m)
    traj = np.zeros((m, k * n))
    raw, names, nn = spec.bundle.raw, [f"u{i+1}" for i in range(n)], n * n
    has_b = spec.b is not None
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
        # a huge or tiny A would overflow |A|_F^2 or det A in the 2x2 closed
        # form; one power of two from max|A| at the launch point scales every
        # coefficient, A, b and b_next alike, which leaves U' unchanged
        scale = range_scale(max(abs(float(v)) for v in spec.bundle(env)[:nn]))

        def f(p, state):
            env.update(zip(names, state.T))
            env["p"] = p
            values = raw(env)
            if scale != 1.0:
                values = [v * scale for v in values]
            rhs = [g * values[-1] for g in gammas.T]
            if has_b:
                rhs = [r - b for r, b in zip(rhs, values[nn:-1])]
            if n > 2:
                A = np.stack([np.broadcast_to(v, (k,)) for v in values[:nn]], -1).reshape(k, n, n)
                return (_inverse_along(A, p) @ np.stack(rhs, axis=1)[:, :, None])[:, :, 0]
            # the closed form: |A^-1|_F = |A|_F / |det A| for a 2x2, so
            # |A|_F^2 / |det A| is its kappa_F, inf or NaN when det A = 0
            a00, a01, a10, a11 = values[:4]
            det = a00 * a11 - a01 * a10
            fro2 = a00**2 + a01**2 + a10**2 + a11**2
            with np.errstate(all="ignore"):
                kappa = float(np.max(fro2 / np.abs(det)))
            if not kappa <= SINGULAR_COND_LIMIT:
                raise _singular_at(p, kappa)
            return np.stack([(a11 * rhs[0] - a01 * rhs[1]) / det,
                             (a00 * rhs[1] - a10 * rhs[0]) / det], axis=1)

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

    ends = []
    peak = np.zeros(k)                  # the largest |U| seen in each column
    i, span, rejected = 0, float(m - 1), False
    try:
        with np.errstate(**exprlang.RAISE):
            K0 = slope(0.0, traj[0])
            while i < m - 1:
                j = min(max(int(span), 1), m - 1 - i) if steps is None else steps[len(ends)] - i
                p0, p1 = mesh[i], mesh[i + j]
                H, y = p1 - p0, traj[i]
                try:
                    for s in range(1, 12):
                        stage(s, p1 if _DOP_C[s] == 1.0 else p0 + _DOP_C[s] * H, y, H, K0)
                    delta = H * combine(_DOP_B)
                    y1 = y + (H * K0 + delta)
                    ratio = 0.0 if steps is not None else _error_ratio(
                        H * combine(_DOP_E5), H * combine(_DOP_E3), y1, peak, k, n)
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
                if j > 1:
                    # the 7th order dense output with its linear part (p - p0) K_0
                    # split off, so that a constant F stays exact
                    F = H * (dK * _DOP_D[:, None, :]).sum(axis=2)
                    x = ((mesh[i + 1:i + j] - p0) / H)[:, None]
                    q = F[2] + x * F[3]
                    q = F[1] + (1.0 - x) * q
                    q = F[0] + x * q
                    q = 2.0 * delta - H * dK[:, 11] + (1.0 - x) * q
                    q = -delta + x * q
                    q = delta + (1.0 - x) * q
                    traj[i + 1:i + j] = y + (mesh[i + 1:i + j, None] - p0) * K0 + x * q
                traj[i + j] = y1
                peak = np.maximum(peak, np.abs(y1).reshape(k, n).max(axis=1))
                K0 = K0 + dK[:, 11]
                i += j
                ends.append(i)
    except (FloatingPointError, ZeroDivisionError) as exc:
        spec.bundle(env)        # raises the EvalDomainError naming the coefficient at fault
        raise EvalDomainError(f"the two-point integration left the floating point range "
                              f"near p = {float(env['p']):.6g}: {exc}") from None
    return mesh, traj.reshape(m, k, n), tuple(ends), calls


def _error_ratio(err5, err3, y1, peak, k, n):
    """The batch's DOP853 error estimate against its tolerance: the largest
    over the columns, each measured against RTOL times the largest |U| it
    has reached. No absolute term, so small finite-difference columns keep
    their relative accuracy."""
    with np.errstate(all="ignore"):
        sq5 = (err5.reshape(k, n) ** 2).sum(axis=1)
        sq3 = (err3.reshape(k, n) ** 2).sum(axis=1)
        scale = RTOL * np.maximum(peak, np.abs(y1).reshape(k, n).max(axis=1))
        ratio = np.where(sq5 > 0.0, sq5 / (np.sqrt(sq5 + 0.01 * sq3) * scale), 0.0)
    return float(np.max(ratio))


def integrate_profiles(spec: ProblemSpec, gamma, n_nodes: int):
    """Integrate the initial value problem for a given gamma; returns (mesh, profiles)."""
    mesh, traj = _integrate_batch(spec, np.asarray(gamma, dtype=float)[None, :], n_nodes)[:2]
    return mesh, traj[:, 0, :].T


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
    if abs(bn0) <= 1e-14:
        raise DegenerateLinearizationError(f"origin value of b_next ({bn0:.3e}) is degenerate")
    gamma0 = (A[0] @ spec.u_star / spec.p_star + b0) / bn0
    j0_norm = float(np.linalg.norm(spec.p_star * bn0 * inv0, 2))
    return gamma0, j0_norm


def _jacobian_batch(spec: ProblemSpec, gamma, n_nodes):
    """Forward-difference Jacobian of gamma -> U(p*; gamma), with the mesh
    and the (n, m) profiles of the unperturbed run, from one batch; also
    the batch's step count and right-hand-side evaluations."""
    gamma = np.asarray(gamma, dtype=float)
    shifts = 1e-6 * (1.0 + np.abs(gamma))
    gammas = np.vstack([gamma, gamma + np.diag(shifts)])
    mesh, traj, ends, calls = _integrate_batch(spec, gammas, n_nodes)
    J = (traj[-1, 1:] - traj[-1, 0]).T / shifts[None, :]
    return J, mesh, traj[:, 0, :].T, (len(ends), calls)


def shooting_jacobian(spec: ProblemSpec, gamma, n_nodes: int = 1001):
    """Forward-difference Jacobian of gamma -> U(p*; gamma)."""
    J, _, profiles, _ = _jacobian_batch(spec, gamma, n_nodes)
    return J, profiles[:, -1]


def solve_shooting(spec: ProblemSpec, n_nodes: int = 1001, tol: float = 1e-10,
                   max_newton: int = 30) -> ProfileSolution:
    """Newton iteration on the shooting map S(gamma) = U(p*; gamma) - u*.

    The Jacobian condition is checked before accepting convergence, so a
    resonant problem (singular shooting map) raises SingularJacobianError
    even when the trivial data would satisfy the endpoint immediately.
    """
    gamma, j0_norm = _origin_linearization(spec)
    residual = np.inf
    steps = calls = 0
    for iterations in range(1, max_newton + 1):
        # keep the base trajectory: the converged one is the solution
        J, mesh, profiles, work = _jacobian_batch(spec, gamma, n_nodes)
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
            f"shooting did not reach {tol:.3e} in {max_newton} Newton iterations "
            f"(endpoint mismatch {residual:.3e})", last_update=residual)
    return _solution(spec, mesh, profiles, gamma, method="shooting", iterations=iterations,
                     jacobian_condition=cond, integration_steps=steps, rhs_evaluations=calls)


def allowed_backends(spec: ProblemSpec):
    """Two-point backends that accept ``spec``; k-section needs n = 1 and no b."""
    if spec.mode == MOLECULAR:
        return ("fixed_point", "shooting")
    return ("shooting", "scalar_bisection") if spec.n == 1 and spec.b is None else ("shooting",)


def _check_f_positive(spec: ProblemSpec):
    A, _, b_next = _sample_box(spec, default_box(spec), ("u1", "p"), 65)
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
    no gamma twice. Once the bracket straddles u*, its batch's step sequence
    is frozen: every later candidate replays it, so all the endpoints
    compared come from one discrete map. ``max_bisect`` halvings buy
    ceil(max_bisect / 5) passes. The returned profile is the winning
    candidate's own trajectory, kept from its batch. The endpoint map's
    strict monotonicity in gamma is asserted on every sampled pair.
    """
    if "scalar_bisection" not in allowed_backends(spec):
        raise ValueError("solve_scalar applies to darcy problems with n = 1 and no b")
    _check_f_positive(spec)
    u_star = float(spec.u_star[0])
    evals = {}                  # gamma -> endpoint U(p*)
    hits = {}                   # gamma -> (mesh, profiles) of the endpoints within tol
    runs = taken = calls = 0    # integrations, each of one batch of gammas, and their work
    frozen = last = None        # the step sequence every candidate replays; the latest one

    def batch(gams):
        nonlocal runs, taken, calls, last
        new = [gam for gam in dict.fromkeys(gams) if gam not in evals]
        if new:
            mesh, traj, last, work = _integrate_batch(spec, np.array(new)[:, None], n_nodes,
                                                      frozen)
            runs, taken, calls = runs + 1, taken + len(last), calls + work
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
        evals.clear()           # both ends from one batch, so on one step sequence
        hits.clear()
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
    frozen = last
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

    # monotonicity witness: at least 5 sampled gamma pairs of the one discrete
    # map, strictly increasing beyond the rounding noise of its at most m - 1
    # steps (tol may lie below it)
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
                     iterations=runs, endpoint_evaluations=len(evals), monotone_samples=len(gs),
                     integration_steps=taken, rhs_evaluations=calls)
