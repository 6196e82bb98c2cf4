import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from funcsol import cli
from funcsol.cli import main, read_field_csv, write_field_csv
from funcsol.config import load_config
from funcsol.errors import ConfigError, ShapeMismatchError, UnknownVariableError
from funcsol.geometry import build_annulus, build_rectangle

MOLECULAR_CFG = """
[geometry]
family = rectangle
n1 = 17
n2 = 17
width = 1.0
height = 1.0

[problem]
mode = molecular
n = 2
a11 = 1+u1
a12 = 0
a21 = 0
a22 = 1
u_star = 1 0
p_star = 1.0

[solver]
backend = fixed_point
n_nodes = 257
tol = 1e-10

[output]
directory = {out}
"""

EQUAL_COEFF_CFG = """
[geometry]
family = rectangle
n1 = 17
n2 = 17
width = 1.0
height = 1.0

[problem]
mode = scalar
n = 1
a11 = 1+u1^2+p^2
b1 = 1+u1^2+p^2
u_star = 2
p_star = 1.0

[solver]
backend = scalar_bisection
n_nodes = 2049
tol = 1e-11
r_integral = 1.0
q_integral = 1.0

[output]
directory = {out}
"""


def write_cfg(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "out"))
    return path


def test_load_config_molecular(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MOLECULAR_CFG))
    assert cfg.spec.mode == "molecular"
    assert cfg.spec.n == 2
    assert cfg.backend == "fixed_point"
    assert cfg.n_nodes == 257


def test_config_backend_mode_mismatch(tmp_path):
    bad = MOLECULAR_CFG.replace("backend = fixed_point", "backend = scalar_bisection")
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, bad))


def test_config_scalar_spelling_rejects_b_next(tmp_path):
    bad = EQUAL_COEFF_CFG.replace("b1 = 1+u1^2+p^2", "b1 = 1+u1^2+p^2\nb_next = 1")
    with pytest.raises(ConfigError, match="b_next"):
        load_config(write_cfg(tmp_path, bad))
    assert main(["solve", str(write_cfg(tmp_path, bad))]) == 1


DARCY_N1_CFG = EQUAL_COEFF_CFG.replace("mode = scalar", "mode = darcy").replace(
    "b1 = 1+u1^2+p^2", "b_next = 1+u1^2+p^2")


def test_config_scalar_bisection_backend_by_spec(tmp_path):
    cfg = load_config(write_cfg(tmp_path, DARCY_N1_CFG))
    assert (cfg.spec.mode, cfg.backend) == ("darcy", "scalar_bisection")
    with_b = DARCY_N1_CFG.replace("b_next =", "b1 = 0\nb_next =")
    with pytest.raises(ConfigError, match="allowed: shooting\\)"):
        load_config(write_cfg(tmp_path, with_b))
    n2 = MOLECULAR_CFG.replace("mode = molecular", "mode = darcy").replace(
        "backend = fixed_point", "backend = scalar_bisection")
    with pytest.raises(ConfigError, match="scalar_bisection"):
        load_config(write_cfg(tmp_path, n2))


def test_config_unknown_variable(tmp_path):
    bad = MOLECULAR_CFG.replace("a11 = 1+u1", "a11 = 1+u3")
    with pytest.raises(UnknownVariableError):
        load_config(write_cfg(tmp_path, bad))


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_config_missing_section(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[geometry]\nfamily = rectangle\nn1 = 5\nn2 = 5\nwidth = 1\nheight = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_csv_round_trip(tmp_path):
    grid = build_rectangle(5, 4, 1.0, 2.0)
    values = np.arange(20, dtype=float).reshape(5, 4) / 7.0
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, values)
    first = path.read_text().splitlines()
    assert first[0] == "x1,x2,value"
    assert len(first) == 21
    back = read_field_csv(path, grid)
    np.testing.assert_array_equal(back, values)


def test_solve_molecular_end_to_end(tmp_path):
    cfg_path = write_cfg(tmp_path, MOLECULAR_CFG)
    assert main(["solve", str(cfg_path)]) == 0
    out = tmp_path / "out"
    for name in ("z.csv", "u1.csv", "u2.csv", "report.txt"):
        assert (out / name).is_file()
    report = (out / "report.txt").read_text()
    assert "gamma = " in report
    assert "theta_deviation = " in report
    # the solver's work counters stay in stats, out of the deterministic files
    assert "rhs_evaluations" not in report and "integration_steps" not in report
    gamma1 = float(report.split("gamma = ")[1].split()[0])
    assert gamma1 == pytest.approx(1.5, abs=1e-7)


def test_solve_equal_coeff_fields_satisfy_rule(tmp_path):
    cfg_path = write_cfg(tmp_path, EQUAL_COEFF_CFG)
    assert main(["solve", str(cfg_path)]) == 0
    cfg = load_config(cfg_path)
    grid = cfg.make_grid()
    out = tmp_path / "out"
    u = read_field_csv(out / "u1.csv", grid)
    p = read_field_csv(out / "p.csv", grid)
    assert np.max(np.abs(u - 2.0 * p)) <= 1e-6


def test_pivot_command(tmp_path):
    cfg_path = write_cfg(tmp_path, MOLECULAR_CFG)
    assert main(["pivot", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "z.csv").is_file()
    assert not (tmp_path / "out" / "u1.csv").exists()


def test_verify_command(tmp_path):
    cfg_path = write_cfg(tmp_path, MOLECULAR_CFG)
    main(["solve", str(cfg_path)])
    assert main(["verify", str(cfg_path), str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "verify_report.txt").is_file()


def test_verify_residual_limit_failure(tmp_path):
    strict = MOLECULAR_CFG + "residual_limit = 1e-12\n"
    cfg_path = write_cfg(tmp_path, strict)
    main(["solve", str(cfg_path)])
    # composed nonlinear fields carry an O(h^2) defect, far above 1e-12
    assert main(["verify", str(cfg_path), str(tmp_path / "out")]) == 3


def test_solve_resonant_exit_code(tmp_path):
    cfg = """
[geometry]
family = rectangle
n1 = 9
n2 = 9
width = 1.0
height = 1.0

[problem]
mode = darcy
n = 2
a11 = 1
a12 = 0
a21 = 0
a22 = 1
b1 = -u2
b2 = u1
b_next = 1
u_star = 0 0
p_star = {twopi}

[solver]
backend = shooting
n_nodes = 257

[output]
directory = {out}
""".format(twopi=2 * math.pi, out=tmp_path / "out")
    path = tmp_path / "resonant.ini"
    path.write_text(cfg)
    assert main(["solve", str(path)]) == 4


def test_solve_scalar_honours_max_iter(tmp_path):
    cfg = """
[geometry]
family = rectangle
n1 = 17
n2 = 17
width = 1.0
height = 1.0

[problem]
mode = scalar
n = 1
a11 = 1
b1 = 1+u1
u_star = 1
p_star = 1.0

[solver]
backend = scalar_bisection
N = 257
max_iter = 1

[output]
directory = {out}
"""
    # one halving buys a single k-section pass, too few to reach tol
    assert main(["solve", str(write_cfg(tmp_path, cfg))]) == 2


def test_config_error_exit_code(tmp_path):
    assert main(["solve", str(tmp_path / "missing.ini")]) == 1


def test_oracle_grid_too_small_exit_code(tmp_path):
    assert main(["oracle", "--grid", "16", "--out", str(tmp_path / "o")]) == 1


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, MOLECULAR_CFG)
    target = tmp_path / "env_out"
    monkeypatch.setenv("FUNCSOL_OUTPUT_DIR", str(target))
    assert main(["pivot", str(cfg_path)]) == 0
    assert (target / "z.csv").is_file()
    assert not (tmp_path / "out").exists()


def test_solve_determinism(tmp_path):
    cfg_path = write_cfg(tmp_path, MOLECULAR_CFG)
    main(["solve", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["solve", str(cfg_path), "--out", str(tmp_path / "b")])
    for name in ("z.csv", "u1.csv", "u2.csv", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def reference_field_csv(grid, values) -> bytes:
    """The per-node writer the tensor-product one replaced, kept as the
    byte-format reference: three f-string formats per row."""
    x1, x2 = np.meshgrid(grid.x1, grid.x2, indexing="ij")
    lines = ["x1,x2,value"]
    lines.extend(f"{float(a):.17g},{float(b):.17g},{float(v):.17g}"
                 for a, b, v in zip(x1.ravel(), x2.ravel(), values.ravel()))
    return ("\n".join(lines) + "\n").encode("utf-8")


SPECIAL_VALUES = {
    np.float64: [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                 2.2250738585072014e-308, 1e308, -1e16, 1e16, 0.1, -1 / 3],
    np.float32: [-0.0, math.inf, -math.inf, math.nan, 1e-45, 3.4e38, 0.1, -1 / 3],
    np.int64: [0, -1, 2**53 + 1, -(2**63), 2**63 - 1, 12345],
    np.int32: [0, -1, 2**31 - 1, -(2**31), 7],
}


@pytest.mark.parametrize("dtype", list(SPECIAL_VALUES), ids=lambda d: d.__name__)
@pytest.mark.parametrize("grid", [build_rectangle(5, 4, 1.0, 2.0),
                                  build_annulus(5, 4, 0.3, 1.7)],
                         ids=["rectangle", "annulus"])
def test_write_field_csv_matches_reference_bytes(tmp_path, grid, dtype):
    values = np.resize(np.array(SPECIAL_VALUES[dtype], dtype=dtype), grid.shape)
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, values)
    assert path.read_bytes() == reference_field_csv(grid, values)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(3, 9), st.integers(3, 9), st.booleans(),
       st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.data())
def test_write_field_csv_bytes_property(tmp_path, n1, n2, annulus, e1, e2, data):
    grid = build_annulus(n1, n2, e1, e1 + e2) if annulus else build_rectangle(n1, n2, e1, e2)
    values = data.draw(arrays(np.float64, (n1, n2), elements=st.floats()))
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, values)
    assert path.read_bytes() == reference_field_csv(grid, values)
    np.testing.assert_array_equal(read_field_csv(path, grid), values)


@pytest.mark.parametrize("shape", [(19,), (20,), (6, 4), (4, 5)])
def test_write_field_csv_shape_mismatch(tmp_path, shape):
    path = tmp_path / "f.csv"
    with pytest.raises(ShapeMismatchError, match="on a \\(5, 4\\) grid"):
        write_field_csv(path, build_rectangle(5, 4, 1.0, 2.0), np.zeros(shape))
    assert not path.exists()


@pytest.mark.parametrize("other, message", [
    # same node count, transposed: the second row already lies elsewhere
    (build_rectangle(4, 5, 1.0, 2.0), "data row 2 lies at x1,x2 = 0,0.66666666666666663, "),
    (build_annulus(5, 4, 0.5, 1.5), "data row 1 .* grid node 0.5,0$"),
], ids=["transposed", "annulus"])
def test_read_field_csv_rejects_other_grid(tmp_path, other, message):
    path = tmp_path / "f.csv"
    write_field_csv(path, build_rectangle(5, 4, 1.0, 2.0), np.arange(20.0).reshape(5, 4))
    with pytest.raises(ConfigError, match=message):
        read_field_csv(path, other)


@pytest.mark.parametrize("body, message", [
    ("0,0,1\n0,0.66666666666666663\n", "malformed row"),
    ("0,0,x\n", "malformed row"),
    ("0,0,1,2\n" * 20, "expected 20 rows of 3 fields, read a table of shape \\(20, 4\\)"),
    ("0,0,1\n" * 19, "expected 20 rows of 3 fields, read a table of shape \\(19, 3\\)"),
], ids=["ragged", "not-a-number", "four-fields", "short"])
def test_read_field_csv_rejects_malformed(tmp_path, body, message):
    path = tmp_path / "f.csv"
    path.write_text("x1,x2,value\n" + body)
    with pytest.raises(ConfigError, match=message):
        read_field_csv(path, build_rectangle(5, 4, 1.0, 2.0))


def test_verify_rejects_fields_of_another_grid(tmp_path):
    main(["solve", str(write_cfg(tmp_path, MOLECULAR_CFG))])
    annulus = MOLECULAR_CFG.replace("family = rectangle", "family = annulus").replace(
        "width = 1.0\nheight = 1.0", "r1 = 1.0\nr2 = 2.0")
    cfg_path = write_cfg(tmp_path, annulus, name="annulus.ini")
    assert main(["verify", str(cfg_path), str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "verify_report.txt").exists()


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("SVD did not converge"),
                                 FloatingPointError("overflow encountered")])
def test_numpy_errors_exit_as_solver_errors(tmp_path, monkeypatch, caplog, capsys, exc):
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "solve_pivot", broken)
    assert main(["solve", str(write_cfg(tmp_path, MOLECULAR_CFG))]) == 2
    assert f"{type(exc).__name__} in funcsol solve: {exc}" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
