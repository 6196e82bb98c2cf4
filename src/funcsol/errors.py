"""Exception hierarchy shared across the solver modules.

Every error carries the CLI's exit code for it: solver errors exit 2,
config errors 1, verification failures 3 and resonance (a singular
shooting Jacobian) 4.
"""


class FuncsolError(Exception):
    exit_code = 2


# --- expression language ---------------------------------------------------

class ExprError(FuncsolError):
    exit_code = 1


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


# --- geometry ----------------------------------------------------------------

class GeometryError(FuncsolError):
    exit_code = 1


class GridDimensionError(GeometryError):
    pass


class InvalidRadiiError(GeometryError):
    pass


class InvalidExtentsError(GeometryError):
    pass


# --- linear solves / pivot -----------------------------------------------------

class PivotConvergenceError(FuncsolError):
    pass


# --- two-point solvers -------------------------------------------------------

class NonEllipticError(FuncsolError):
    pass


class SingularMatrixError(FuncsolError):
    pass


class MaxIterationError(FuncsolError):
    def __init__(self, message, last_update=None):
        self.last_update = last_update
        super().__init__(message)


class DegenerateLinearizationError(FuncsolError):
    pass


class SingularJacobianError(FuncsolError):
    """Shooting Jacobian is numerically singular: the resonance signal."""
    exit_code = 4

    def __init__(self, message, condition=None):
        self.condition = condition
        super().__init__(message)


class BracketFailureError(FuncsolError):
    pass


class NonPositiveFError(FuncsolError):
    pass


# --- reconstruction ----------------------------------------------------------

class ProfileRangeError(FuncsolError):
    pass


class NonPositiveWeightError(FuncsolError):
    pass


# --- verification -----------------------------------------------------------

class ShapeMismatchError(FuncsolError):
    exit_code = 1


class OuterDivergenceError(FuncsolError):
    pass


class VerificationError(FuncsolError):
    """Recomputed residuals or oracle checks over their limits."""
    exit_code = 3


# --- oracles / config ---------------------------------------------------------

class UnknownOracleError(FuncsolError):
    exit_code = 1


class ConfigError(FuncsolError):
    exit_code = 1
