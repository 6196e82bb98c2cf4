import math

import numpy as np
import pytest

from funcsol.errors import UnknownOracleError
from funcsol.oracles import (
    get_oracle,
    oracle_names,
    run_case,
    run_oracle_suite,
)

REQUIRED_NAMES = {
    "linear_pivot_rectangle",
    "log_pivot_annulus",
    "constant_A_molecular",
    "diag_nonlinear_molecular",
    "thm44_scalar",
    "sincos_regular",
    "sincos_resonant",
    "kirchhoff_exp",
}


def test_registry_contains_required_cases():
    assert REQUIRED_NAMES <= set(oracle_names())


def test_get_oracle_known_case():
    case = get_oracle("thm44_scalar")
    assert case.expected_gamma == (2.0,)
    assert any("u - 2p" in label for label, _, _ in case.field_rules)


def test_get_oracle_resonant_flag():
    assert get_oracle("sincos_resonant").expect_singular is True


def test_unknown_oracle():
    with pytest.raises(UnknownOracleError):
        get_oracle("nosuch")


def test_every_expectation_is_closed_form():
    for name in oracle_names():
        case = get_oracle(name)
        has_expectation = (case.expected_gamma is not None
                           or case.expected_profile is not None
                           or case.field_rules
                           or case.expect_singular)
        assert has_expectation, name


def test_run_case_linear_pivot():
    result = run_case(get_oracle("linear_pivot_rectangle"), 17)
    assert result.passed
    assert result.pivot is not None


def test_run_case_constant_A_gamma():
    result = run_case(get_oracle("constant_A_molecular"), 17)
    assert result.passed
    gamma_checks = [c for c in result.checks if c[0] == "gamma error"]
    assert gamma_checks and gamma_checks[0][1] <= 1e-10


def test_run_case_resonant_asserts_error_path():
    result = run_case(get_oracle("sincos_resonant"), 17)
    assert result.passed
    labels = [c[0] for c in result.checks]
    assert "resonance condition estimate" in labels


def test_suite_rejects_tiny_grids():
    with pytest.raises(ValueError):
        run_oracle_suite(16)


def test_shooting_determinant_matches_printed_solution():
    from funcsol.twopoint import ProblemSpec, shooting_jacobian
    for p_star in (math.pi / 2, math.pi, 1.5 * math.pi):
        spec = ProblemSpec.from_strings(
            2, [["1", "0"], ["0", "1"]], b=["-u2", "u1"], b_next="1",
            u_star=(0.0, 0.0), p_star=p_star, mode="darcy")
        J = shooting_jacobian(spec, np.zeros(2), 1001)[0]
        assert abs(np.linalg.det(J) - 2.0 * (1.0 - math.cos(p_star))) <= 1e-8


def test_report_formatting_is_deterministic():
    r1 = run_case(get_oracle("linear_pivot_rectangle"), 17)
    r2 = run_case(get_oracle("linear_pivot_rectangle"), 17)
    assert r1.checks == r2.checks
