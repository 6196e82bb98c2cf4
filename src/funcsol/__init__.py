"""Functional-solution solver for coupled divergence-form transport systems.

The pipeline splits a nonlinear boundary value problem into a single
mixed Laplace solve (the pivot), a one-dimensional two-point problem with
unknown flux constants, and a composition step that rebuilds and verifies
the full grid fields.
"""

from .config import ProblemConfig, load_config
from .geometry import Grid, build_annulus, build_rectangle
from .pivot import PivotField, pivot_residual_values, solve_pivot
from .reconstruct import (
    FieldSet,
    compose_fields,
    darcy_reconstruct,
    kirchhoff_theta,
)
from .twopoint import (
    ProblemSpec,
    ProfileSolution,
    apply_fixed_point_operator,
    collocation_residual,
    gamma_functional,
    integrate_profiles,
    shooting_jacobian,
    solve_fixed_point,
    solve_scalar,
    solve_shooting,
)
from .verify import (
    ResidualReport,
    compare_fields,
    direct_coupled_solve,
    divergence_residual,
    theta_linearity,
)

__version__ = "0.1.0"

# the oracle registry compiles its problems on import, which a solve never needs
_ORACLE_NAMES = ("OracleCase", "get_oracle", "run_oracle_suite")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FieldSet", "Grid", "OracleCase", "PivotField", "ProblemConfig",
    "ProblemSpec", "ProfileSolution", "ResidualReport",
    "apply_fixed_point_operator", "build_annulus", "build_rectangle",
    "collocation_residual", "compare_fields", "compose_fields",
    "darcy_reconstruct", "direct_coupled_solve", "divergence_residual",
    "gamma_functional", "get_oracle", "integrate_profiles", "kirchhoff_theta",
    "load_config", "pivot_residual_values", "run_oracle_suite",
    "shooting_jacobian", "solve_fixed_point", "solve_pivot", "solve_scalar",
    "solve_shooting", "theta_linearity",
]
