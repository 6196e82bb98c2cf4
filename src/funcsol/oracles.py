"""Registry of closed-form test cases and the suite runner.

Every expectation below is a closed form worked out by hand (separable
integrals, linear systems, the logarithmic annulus potential); none stores
solver output. The registry pins mesh sizes, tolerances and bracket
hints per case so that the acceptance suite and the CLI's oracle
command exercise identical configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularJacobianError, UnknownOracleError
from .geometry import Grid, build_annulus, build_rectangle
from .pivot import PivotField, solve_pivot
from .reconstruct import FieldSet, compose_fields, darcy_reconstruct
from .twopoint import (
    MOLECULAR,
    ProblemSpec,
    ProfileSolution,
    solve_fixed_point,
    solve_scalar,
    solve_shooting,
)
from .verify import theta_linearity

BACKEND_AGREEMENT_RTOL = 1e-6
THETA_DEVIATION_LIMIT = 1e-6


@dataclass(frozen=True)
class OracleCase:
    name: str
    description: str
    geometry: str = "rectangle"               # rectangle | annulus
    grid_size: int | None = None              # pinned override, else suite size
    pivot_tol: float = 1e-10
    spec: ProblemSpec | None = None
    backend: str | None = None                # fixed_point | shooting | scalar_bisection
    n_nodes: int = 1001
    tol: float = 1e-10
    bracket_hints: tuple | None = None
    expected_gamma: tuple | None = None
    gamma_tol: float = 1e-8
    expected_profile: object = None           # mesh -> (n, m) closed-form values
    profile_tol: float = 1e-7
    field_rules: tuple = ()                   # (label, (fields, pivot) -> value, limit)
    expect_singular: bool = False


@dataclass
class CaseResult:
    name: str
    passed: bool
    checks: list                               # (label, measured, limit, ok)
    pivot: PivotField | None = None
    fields: FieldSet | None = None
    error: str | None = None


@dataclass
class SuiteReport:
    grid_size: int
    results: list

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def format_text(self) -> str:
        lines = [f"oracle suite, grid {self.grid_size}x{self.grid_size}"]
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.name}")
            if r.error is not None:
                lines.append(f"    error = {r.error}")
            for label, measured, limit, ok in r.checks:
                mark = "ok" if ok else "FAIL"
                lines.append(f"    {label}: measured = {measured:.6e}, limit = {limit:.6e} [{mark}]")
        lines.append("result = " + ("all passed" if self.all_passed else "FAILURES"))
        return "\n".join(lines) + "\n"


_REGISTRY: dict[str, OracleCase] = {}


def _register(case: OracleCase):
    _REGISTRY[case.name] = case
    return case


def get_oracle(name: str) -> OracleCase:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownOracleError(
            f"unknown oracle '{name}'; registered: {', '.join(sorted(_REGISTRY))}") from None


def oracle_names():
    return tuple(_REGISTRY)


def _maxabs(a, b=0.0) -> float:
    """max |a - b|, the error measure of every check below."""
    return float(np.max(np.abs(a - b)))


def _build_case_grid(case: OracleCase, grid_size: int) -> Grid:
    n = case.grid_size or grid_size
    if case.geometry == "annulus":
        return build_annulus(n, n, 1.0, 2.0)
    return build_rectangle(n, n, 1.0, 1.0)


# --- the registered cases ---------------------------------------------------

_register(OracleCase(
    name="linear_pivot_rectangle",
    description="pivot on the unit square is the coordinate x itself",
    pivot_tol=1e-10,
    field_rules=(
        ("max|z - x|", lambda fields, piv: _maxabs(piv.values, piv.grid.x1[:, None]), 1e-10),
    ),
))

_register(OracleCase(
    name="log_pivot_annulus",
    description="pivot on the quarter annulus r in [1,2] is log(r)/log(2)",
    geometry="annulus",
    grid_size=64,
    pivot_tol=1e-8,
    field_rules=(
        ("max|z - log(r)/log 2|", lambda fields, piv: _maxabs(
            piv.values, (np.log(piv.grid.x1) / math.log(2.0))[:, None]), 5e-3),
    ),
))

_register(OracleCase(
    name="constant_A_molecular",
    description="constant SPD coefficients: linear profiles, gamma = A u*",
    spec=ProblemSpec.from_strings(2, [["2", "1"], ["1", "2"]], u_star=(1.0, 0.0)),
    backend="fixed_point",
    expected_gamma=(2.0, 1.0),
    gamma_tol=1e-10,
    expected_profile=lambda mesh: np.vstack([mesh, np.zeros_like(mesh)]),
    profile_tol=1e-10,
    field_rules=(
        ("max|u1 - z|", lambda fields, piv: _maxabs(fields.u_fields[0], piv.values), 1e-9),
        ("max|u2|", lambda fields, piv: _maxabs(fields.u_fields[1]), 1e-9),
    ),
))

_register(OracleCase(
    name="diag_nonlinear_molecular",
    description="a11 = 1+u1 separable case: gamma1 = u* + u*^2/2, sqrt profile",
    spec=ProblemSpec.from_strings(2, [["1+u1", "0"], ["0", "1"]], u_star=(1.0, 0.0)),
    backend="fixed_point",
    n_nodes=1001,
    expected_gamma=(1.5, 0.0),
    gamma_tol=1e-8,
    expected_profile=lambda mesh: np.vstack(
        [-1.0 + np.sqrt(1.0 + 3.0 * mesh), np.zeros_like(mesh)]),
    profile_tol=1e-7,
    field_rules=(
        # piecewise-linear profile lookup leaves an O(h_mesh^2) gap to the
        # closed form between profile nodes
        ("max|u1 - (-1+sqrt(1+3z))|", lambda fields, piv: _maxabs(
            fields.u_fields[0], -1.0 + np.sqrt(1.0 + 3.0 * piv.values)), 5e-7),
    ),
))

_register(OracleCase(
    name="thm44_scalar",
    description="a = b scalar case: u must equal (u*/p*) p everywhere",
    spec=ProblemSpec.from_strings(1, [["1+u1^2+p^2"]], b=["1+u1^2+p^2"],
                                  u_star=(2.0,), p_star=1.0, mode="scalar"),
    backend="scalar_bisection",
    n_nodes=4097,
    tol=1e-11,
    bracket_hints=(1.0, 1.0),      # r = q = 1 since F = b/a is identically one
    expected_gamma=(2.0,),
    gamma_tol=1e-8,
    expected_profile=lambda mesh: 2.0 * mesh[None, :],
    profile_tol=1e-9,
    field_rules=(
        ("max|u - 2p|", lambda fields, piv: _maxabs(fields.u_fields[0], 2.0 * fields.p_field),
         1e-6),
    ),
))

_register(OracleCase(
    name="sincos_regular",
    description="rotational coupling at p* = pi: only the trivial solution",
    spec=ProblemSpec.from_strings(2, [["1", "0"], ["0", "1"]], b=["-u2", "u1"],
                                  b_next="1", u_star=(0.0, 0.0), p_star=math.pi,
                                  mode="darcy"),
    backend="shooting",
    expected_gamma=(0.0, 0.0),
    gamma_tol=1e-10,
    expected_profile=lambda mesh: np.zeros((2, mesh.size)),
    profile_tol=1e-10,
    field_rules=(
        ("max|u_i|", lambda fields, piv: _maxabs(fields.u_fields), 1e-9),
        ("max|p - pi z|", lambda fields, piv: _maxabs(fields.p_field, math.pi * piv.values),
         1e-9),
    ),
))

_register(OracleCase(
    name="sincos_resonant",
    description="p* = 2pi resonance: the shooting Jacobian must be reported singular",
    spec=ProblemSpec.from_strings(2, [["1", "0"], ["0", "1"]], b=["-u2", "u1"],
                                  b_next="1", u_star=(0.0, 0.0), p_star=2.0 * math.pi,
                                  mode="darcy"),
    backend="shooting",
    expect_singular=True,
))

_register(OracleCase(
    name="kirchhoff_exp",
    description="b_next = exp(p): Theta = e^p - 1, p = log(1 + (e-1) z)",
    spec=ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next="exp(p)",
                                  u_star=(1.0,), p_star=1.0, mode="darcy"),
    backend="shooting",
    n_nodes=4097,
    expected_gamma=(1.0 / (math.e - 1.0),),
    gamma_tol=1e-10,
    expected_profile=lambda mesh: ((np.exp(mesh) - 1.0) / (math.e - 1.0))[None, :],
    profile_tol=1e-9,
    field_rules=(
        ("max|p - log(1+(e-1)z)|", lambda fields, piv: _maxabs(
            fields.p_field, np.log1p((math.e - 1.0) * piv.values)), 1e-6),
        ("max|u - z|", lambda fields, piv: _maxabs(fields.u_fields[0], piv.values), 1e-6),
    ),
))


def _solve_backend(case: OracleCase) -> ProfileSolution:
    spec = case.spec
    if case.backend == "fixed_point":
        return solve_fixed_point(spec, n_nodes=case.n_nodes, tol=case.tol)
    if case.backend == "shooting":
        return solve_shooting(spec, n_nodes=case.n_nodes, tol=case.tol)
    if case.backend == "scalar_bisection":
        return solve_scalar(spec, bracket_hints=case.bracket_hints,
                            n_nodes=case.n_nodes, tol=case.tol)
    raise ValueError(f"case {case.name} has no backend")


def run_case(case: OracleCase, grid_size: int) -> CaseResult:
    checks = []

    def check(label, measured, limit):
        checks.append((label, measured, limit, measured <= limit))

    grid = _build_case_grid(case, grid_size)
    piv = solve_pivot(grid, case.pivot_tol)
    checks.append(("pivot residual", piv.achieved_residual, case.pivot_tol, True))
    checks.append(("pivot min", float(piv.values.min()), 0.0, piv.values.min() >= 0.0))
    check("pivot max", float(piv.values.max()), 1.0)

    fields = None
    if case.expect_singular:
        try:
            _solve_backend(case)
        except SingularJacobianError as exc:
            checks.append(("resonance condition estimate", exc.condition, 1e8,
                           exc.condition > 1e8))
        else:
            checks.append(("resonance detected", 0.0, 1.0, False))
    elif case.spec is not None:
        sol = _solve_backend(case)
        if case.expected_gamma is not None:
            check("gamma error", _maxabs(sol.gamma, case.expected_gamma), case.gamma_tol)
        if case.expected_profile is not None:
            check("profile sup error", _maxabs(sol.profiles, case.expected_profile(sol.mesh)),
                  case.profile_tol)
        check("collocation residual", sol.two_point_residual, 10.0 * max(case.tol, 1e-11))
        if case.spec.mode == MOLECULAR:
            other = solve_shooting(case.spec, n_nodes=case.n_nodes, tol=case.tol)
            scale = max(float(np.linalg.norm(sol.gamma)), 1e-30)
            check("backend gamma agreement (relative)",
                  float(np.linalg.norm(other.gamma - sol.gamma)) / scale, BACKEND_AGREEMENT_RTOL)
            check("fixed point iterate bound ratio", sol.stats.get("iterate_bound_ratio", 0.0),
                  1.0 + 1e-12)
            check("theta linearity deviation", float(np.max(theta_linearity(sol, case.spec))),
                  THETA_DEVIATION_LIMIT)
            fields = compose_fields(sol, piv, case.spec)
        else:
            fields = darcy_reconstruct(sol, piv, case.spec)
    for label, rule, limit in case.field_rules:
        check(label, rule(fields, piv), limit)
    return CaseResult(case.name, all(c[3] for c in checks), checks, pivot=piv, fields=fields)


def run_oracle_suite(grid_size: int = 33) -> SuiteReport:
    """Run every registered case; failures become report entries, not errors."""
    if grid_size < 17:
        raise ValueError(f"grid_size must be at least 17, got {grid_size}")
    results = []
    for name in _REGISTRY:
        case = _REGISTRY[name]
        try:
            results.append(run_case(case, grid_size))
        except Exception as exc:  # a crashed case is a failed case, not a crashed suite
            results.append(CaseResult(name, False, [], error=f"{type(exc).__name__}: {exc}"))
    return SuiteReport(grid_size=grid_size, results=results)
