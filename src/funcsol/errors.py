"""Exception hierarchy shared across the solver modules.

Every error carries a ``category`` attribute used by the CLI to select
exit codes: config errors exit 1, solver errors exit 2, verification
failures exit 3, resonance (singular shooting Jacobian) exits 4.
"""

CONFIG = "config"
SOLVER = "solver"
VERIFICATION = "verification"
RESONANCE = "resonance"

EXIT_CODES = {CONFIG: 1, SOLVER: 2, VERIFICATION: 3, RESONANCE: 4}


class FuncsolError(Exception):
    category = SOLVER


# --- expression language ---------------------------------------------------

class ExprError(FuncsolError):
    category = CONFIG


class ExprSyntaxError(ExprError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} at position {position}"
        super().__init__(message)


class UnknownVariableError(ExprSyntaxError):
    def __init__(self, name, position=None):
        super().__init__(f"unknown variable '{name}'", position)


class UnknownFunctionError(ExprSyntaxError):
    def __init__(self, name, position=None):
        super().__init__(f"unknown function '{name}'", position)


class EvalDomainError(FuncsolError):
    """Evaluation hit a point outside the expression's real domain."""
    category = SOLVER


# --- geometry ----------------------------------------------------------------

class GeometryError(FuncsolError):
    category = CONFIG


class GridDimensionError(GeometryError):
    pass


class InvalidRadiiError(GeometryError):
    pass


class InvalidExtentsError(GeometryError):
    pass


# --- linear solves / pivot -----------------------------------------------------

class PivotConvergenceError(FuncsolError):
    category = SOLVER


# --- two-point solvers -------------------------------------------------------

class NonEllipticError(FuncsolError):
    category = SOLVER


class SingularMatrixError(FuncsolError):
    category = SOLVER


class MaxIterationError(FuncsolError):
    category = SOLVER

    def __init__(self, message, last_update=None):
        self.last_update = last_update
        super().__init__(message)


class DegenerateLinearizationError(FuncsolError):
    category = SOLVER


class SingularJacobianError(FuncsolError):
    """Shooting Jacobian is numerically singular: the resonance signal."""
    category = RESONANCE

    def __init__(self, message, condition=None):
        self.condition = condition
        super().__init__(message)


class BracketFailureError(FuncsolError):
    category = SOLVER


class NonPositiveFError(FuncsolError):
    category = SOLVER


# --- reconstruction ----------------------------------------------------------

class ProfileRangeError(FuncsolError):
    category = SOLVER


class NonPositiveWeightError(FuncsolError):
    category = SOLVER


# --- verification -----------------------------------------------------------

class ShapeMismatchError(FuncsolError):
    category = CONFIG


class OuterDivergenceError(FuncsolError):
    category = SOLVER


# --- oracles / config ---------------------------------------------------------

class UnknownOracleError(FuncsolError):
    category = CONFIG


class ConfigError(FuncsolError):
    category = CONFIG
