import dataclasses
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from funcsol import cli, errors
from funcsol.cli import main, read_field_csv, write_field_csv
from funcsol.config import ProblemConfig, load_config
from funcsol.errors import ConfigError, ShapeMismatchError, UnknownVariableError
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.pivot import solve_pivot
from funcsol.reconstruct import compose_fields, darcy_reconstruct

DATA = pathlib.Path(__file__).parent / "data"

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


def test_write_field_csv_groups_values_by_bit_pattern(tmp_path):
    # -0.0 == 0.0 but prints as -0; NaNs of either sign and any payload
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF4000000000000], dtype=np.uint64).view(np.float64)
    row = np.array([-0.0, 0.0, *nans, 0.0, -0.0, 1.0])
    grid = build_rectangle(3, row.size, 1.0, 2.0)
    values = np.stack([row, row[::-1], -row])
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, values)
    written = path.read_bytes()
    assert written == reference_field_csv(grid, values)
    first_row = written.splitlines()[1:row.size + 1]
    assert [line.rsplit(b",", 1)[1] for line in first_row] == [
        b"-0", b"0", b"nan", b"nan", b"nan", b"nan", b"0", b"-0", b"1"]
    np.testing.assert_array_equal(np.signbit(read_field_csv(path, grid)[0, :2]), [True, False])


def test_write_field_csv_row_constant_257_wide(tmp_path):
    grid = build_annulus(9, 257, 1.0, 2.0)
    # one value per row, as u = U(z) on either grid family; a stride-0 view
    values = np.broadcast_to(np.log(grid.x1)[:, None] / np.log(2.0), grid.shape)
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, values)
    assert path.read_bytes() == reference_field_csv(grid, values)
    np.testing.assert_array_equal(read_field_csv(path, grid), values)


def test_write_field_csv_all_distinct_257_square(tmp_path):
    grid = build_rectangle(257, 257, 1.0, 2.0)
    values = np.random.default_rng(7).standard_normal(grid.shape)
    assert np.unique(values).size == values.size
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, values)
    assert path.read_bytes() == reference_field_csv(grid, values)


def test_write_field_csv_memory_stays_per_row(tmp_path):
    grid = build_rectangle(257, 257, 1.0, 2.0)
    values = np.random.default_rng(8).standard_normal(grid.shape)
    tracemalloc.start()
    try:
        write_field_csv(tmp_path / "f.csv", grid, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_solve_logs_written_files(tmp_path, caplog):
    caplog.set_level("INFO", logger="funcsol")
    assert main(["solve", str(write_cfg(tmp_path, MOLECULAR_CFG))]) == 0
    out = tmp_path / "out"
    size = sum((out / name).stat().st_size for name in ("z.csv", "u1.csv", "u2.csv"))
    assert f"wrote 3 field files, {size} bytes, in " in caplog.text
    assert "field files" not in (out / "report.txt").read_text()


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


def read_report(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


NAN_CFG = MOLECULAR_CFG.replace("u_star = 1 0", "u_star = 1 0.5") + "residual_limit = 1e-2\n"


@pytest.mark.parametrize("name, node, nan_keys", [
    ("u2.csv", (8, 8), {"divergence_residual_linf", "divergence_residual_l2"}),
    ("u1.csv", (-1, 8), {"divergence_residual_linf", "divergence_residual_l2",
                         "boundary_max_error"}),
], ids=["interior", "gamma3"])
def test_verify_fails_on_nan_fields(tmp_path, name, node, nan_keys):
    cfg_path = write_cfg(tmp_path, NAN_CFG)
    out = tmp_path / "out"
    assert main(["solve", str(cfg_path)]) == 0
    assert main(["verify", str(cfg_path), str(out)]) == 0
    grid = load_config(cfg_path).make_grid()
    values = read_field_csv(out / name, grid)
    values[node] = math.nan
    write_field_csv(out / name, grid, values)
    assert main(["verify", str(cfg_path), str(out)]) == 3
    report = read_report(out / "verify_report.txt")
    assert {key for key, value in report.items() if "nan" in value} == nan_keys


@pytest.mark.parametrize("cfg_path", sorted(DATA.glob("*.ini")), ids=lambda path: path.stem)
def test_solve_flux_files_read_back_to_library_fluxes(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert main(["solve", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    grid = cfg.make_grid()
    reconstruct = compose_fields if cfg.spec.mode == "molecular" else darcy_reconstruct
    fields = reconstruct(cli._solve_two_point(cfg), solve_pivot(grid, cfg.pivot_tol), cfg.spec,
                         with_fluxes=True)
    stems = ["z", *(f"u{i+1}" for i in range(cfg.spec.n))]
    stems += [] if fields.p_field is None else ["p"]
    stems += [f"{name}_{k}" for name in fields.flux_fields for k in (1, 2)]
    assert sorted(path.stem for path in out.glob("*.csv")) == sorted(stems)
    for name, vec in fields.flux_fields.items():
        for k in (1, 2):
            np.testing.assert_array_equal(read_field_csv(out / f"{name}_{k}.csv", grid),
                                          vec[k - 1])


def test_verify_darcy_output_reproduces_solve_report(tmp_path):
    cfg_path = DATA / "darcy_rectangle_fluxes.ini"
    out, checked = tmp_path / "out", tmp_path / "verify"
    assert main(["solve", str(cfg_path), "--out", str(out)]) == 0
    assert main(["verify", str(cfg_path), str(out), "--out", str(checked)]) == 0
    solved = read_report(out / "report.txt")
    verified = read_report(checked / "verify_report.txt")
    for key in ("divergence_residual_linf", "divergence_residual_l2", "boundary_max_error"):
        assert verified[key] == solved[key]
    (out / "p.csv").unlink()
    assert main(["verify", str(cfg_path), str(out), "--out", str(checked)]) == 1


@pytest.mark.parametrize("flags, stems", [
    ("write_fields = no\n", []),
    ("write_fluxes = 0\n", ["u1", "u2", "z"]),
    ("write_fields = On\nwrite_fluxes = YES\n",
     ["q_h_1", "q_h_2", "q_m_1", "q_m_2", "u1", "u2", "z"]),
], ids=["no-fields", "no-fluxes", "fluxes"])
def test_output_flags_select_files(tmp_path, flags, stems):
    assert main(["solve", str(write_cfg(tmp_path, MOLECULAR_CFG + flags))]) == 0
    assert sorted(path.stem for path in (tmp_path / "out").glob("*.csv")) == stems
    assert (tmp_path / "out" / "report.txt").is_file()


@pytest.mark.parametrize("key", ["write_fields", "write_fluxes"])
def test_output_flag_rejects_invalid_value(tmp_path, key):
    cfg_path = write_cfg(tmp_path, MOLECULAR_CFG + f"{key} = maybe\n")
    with pytest.raises(ConfigError, match=f"\\[output\\] {key}: expected a boolean, got 'maybe'"):
        load_config(cfg_path)
    assert main(["solve", str(cfg_path)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, extra", [
    ("u_star", "nan", None),
    ("p_star", "inf", None),
    ("tol", "nan", None),
    ("pivot_tol", "nan", None),
    ("damping", "nan", None),
    ("r_integral", "nan", "q_integral = 1.0"),
    ("q_integral", "inf", "r_integral = 1.0"),
    ("width", "nan", None),
])
def test_config_rejects_non_finite_numbers(tmp_path, key, value, extra):
    """Every number in a config is finite. Before, these ended as solver
    errors with misleading messages (exit 2), a 200-iteration Newton spin
    toward tol = nan, or a silent success that ignored the bracket hint."""
    text = (DATA / "darcy_rectangle_fluxes.ini").read_text()
    line = f"{key} = {value}\n" + (f"{extra}\n" if extra else "")
    if f"\n{key} = " in text:
        head, _, rest = text.partition(f"\n{key} = ")
        text = head + "\n" + line + rest.partition("\n")[2]
    else:
        text = text.replace("[solver]\n", "[solver]\n" + line)
    cfg_path = tmp_path / "case.ini"
    cfg_path.write_text(text)
    with pytest.raises(ConfigError, match=f"{key}: must be finite, got '{value}'"):
        load_config(cfg_path)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("n1 = 33\n", "", "[geometry] is missing 'n1'"),
    ("n1 = 33", "n1 = 33.5", "[geometry] n1: cannot parse '33.5'"),
    ("u_star = 0.8", "u_star = 0.8 0.1", "[problem] u_star: expected 1 values, got 2"),
    ("; Darcy", "; Darc\xe9", "config is not UTF-8"),
    ("n2 = 33", "n2 = 33\nn2 = 33", "option 'n2' in section 'geometry' already exists"),
    ("family = rectangle", "family = disk", "[geometry] family: unknown family 'disk'"),
    ("mode = darcy", "mode = stokes", "[problem] mode: unknown mode 'stokes'"),
    ("\nn = 1\n", "\nn = 10\n", "[problem] n: must be between 1 and 9, got 10"),
    ("n = 1\na11 = 1+0.5*u1", "n = 2\na11 = 1+0.5*u1\na12 = 0\na21 = 0\na22 = 1",
     "[problem] b coefficients must be given for all equations or none"),
    ("tol = 1e-10", "tol = 0", "[solver] tol and pivot_tol must be positive, got 0.0 and 1e-10"),
    ("[solver]\n", "[solver]\ndamping = 1.5\n", "[solver] damping must lie in (0, 1], got 1.5"),
    ("[solver]\n", "[solver]\nr_integral = 1.0\n",
     "[solver] bracket hints need both r_integral and q_integral"),
], ids=["missing_key", "unparsable_int", "u_star_count", "not_utf8", "parse_error",
        "unknown_family", "unknown_mode", "n_range", "partial_b", "tol", "damping",
        "one_bracket_hint"])
def test_config_rejects_invalid_input(tmp_path, caplog, old, new, message):
    """Each malformed config is a config error (exit 1) that names its key."""
    text = (DATA / "darcy_rectangle_fluxes.ini").read_text()
    assert old in text
    cfg_path = tmp_path / "case.ini"
    # Latin-1 writes the ASCII cases unchanged, and the e-acute as one
    # byte that is not UTF-8
    cfg_path.write_text(text.replace(old, new, 1), encoding="latin-1")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg_path)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert message in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, old, new, message", [
    ("darcy_rectangle_fluxes", "tol = 1e-10", "tolerance = 1e-3\nmax_iters = 1",
     "[solver] tolerance: not a key of this problem"),
    ("molecular_annulus_fluxes", "a22 = 1.5+0.2*u1", "a22 = 1.5+0.2*u1\na13 = 0",
     "[problem] a13: not a key of this problem"),
    ("molecular_annulus_fluxes", "r2 = 2.0", "r2 = 2.0\nwidth = 1.0",
     "[geometry] width: not a key of this problem"),
    ("darcy_rectangle_fluxes", "[output]", "[outputs]\ndirectory = elsewhere\n\n[output]",
     "unknown section [outputs]"),
], ids=["misspelled", "a13_for_n2", "width_on_annulus", "unknown_section"])
def test_config_refuses_what_it_does_not_read(tmp_path, caplog, data, old, new, message):
    """A key the problem does not read is a config error naming it: a
    misspelled tol, with max_iters = 1, once solved with the defaults."""
    text = (DATA / f"{data}.ini").read_text()
    assert old in text
    cfg_path = tmp_path / "case.ini"
    cfg_path.write_text(text.replace(old, new, 1))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg_path)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert message in caplog.text
    assert not (tmp_path / "out").exists()


def test_config_defaults_are_problem_config_fields():
    """Every key a config leaves out takes its ProblemConfig field default."""
    cfg = load_config(DATA / "darcy_rectangle_fluxes.ini")
    defaults = {f.name: f.default for f in dataclasses.fields(ProblemConfig)
                if f.default is not dataclasses.MISSING}
    assert {name: getattr(cfg, name) for name in defaults} == {
        **defaults, "n_nodes": 1025, "tol": 1e-10, "write_fields": True, "write_fluxes": True}


def test_solve_out_naming_a_file_exits_1(tmp_path, caplog):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["solve", str(DATA / "darcy_rectangle_fluxes.ini"), "--out", str(taken)]) == 1
    assert f"FileExistsError: [Errno 17] File exists: '{taken}'" in caplog.text


def test_solve_huge_coefficients_end_typed(tmp_path, caplog, capsys):
    """max|A(0)| = 1e200 once overflowed the origin linearization's
    determinant scale, a Python float power, into a bare OverflowError, and
    then the 2x2 closed form's |A|_F^2. kappa_F = 2, so it solves: gamma = A u*,
    with every report value finite."""
    text = (DATA / "molecular_annulus_fluxes.ini").read_text()
    for key, value in (("a11", "1e200"), ("a12", "0"), ("a21", "0"), ("a22", "1e200"),
                       ("backend", "shooting")):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
    cfg_path = tmp_path / "case.ini"
    cfg_path.write_text(text)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    report = read_report(tmp_path / "out" / "report.txt")
    gamma = [float(v) for v in report["gamma"].split()]
    assert gamma == pytest.approx([1e200 * 0.5, 1e200 * 0.3], rel=1e-12)
    assert all(math.isfinite(float(v)) for key, value in report.items()
               if key not in ("mode", "backend") for v in value.split())
    log_text = caplog.text + capsys.readouterr().err
    assert "Traceback" not in log_text and "OverflowError" not in log_text


def test_oracle_exits_3_on_a_failing_or_a_crashed_case(tmp_path, monkeypatch, capsys):
    """A check over its limit and a case that raises are both suite
    failures: exit 3, the report names each, and only the case that got
    as far as its pivot writes fields."""
    from funcsol import oracles

    def crash(fields, piv):
        raise ZeroDivisionError("rule crashed")

    cases = [oracles.OracleCase(name="fails", description="a check over its limit",
                                field_rules=(("one", lambda fields, piv: 1.0, 0.5),)),
             oracles.OracleCase(name="crashes", description="a rule that raises",
                                field_rules=(("crash", crash, 1.0),))]
    monkeypatch.setattr(oracles, "_REGISTRY", {case.name: case for case in cases})
    assert main(["oracle", "--grid", "17", "--out", str(tmp_path)]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] fails\n" in out
    assert "    one: measured = 1.000000e+00, limit = 5.000000e-01 [FAIL]\n" in out
    assert "[FAIL] crashes\n    error = ZeroDivisionError: rule crashed\n" in out
    assert out.endswith("result = FAILURES\n")
    assert (tmp_path / "oracle_report.txt").read_text() == out
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fails", "oracle_report.txt"]
