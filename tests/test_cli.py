import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import funcsol
from funcsol import cli
from funcsol.cli import main, read_field_csv, write_field_csv
from funcsol.config import ProblemConfig, load_config
from funcsol.errors import ConfigError, ShapeMismatchError, UnknownVariableError
from funcsol.exprlang import FUNCTIONS
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.pivot import solve_pivot
from funcsol.reconstruct import compose_fields, darcy_reconstruct
from funcsol.twopoint import ProblemSpec, allowed_backends, solve_two_point

DATA = pathlib.Path(__file__).parent / "data"
DARCY = "darcy_rectangle_fluxes"

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
N = 257
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
N = 2049
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


def config_text(data, tmp_path):
    """The text of the tests/data config ``data``, or of EQUAL_COEFF_CFG,
    which reads the bracket hints, for ``data = "equal_coeff"``."""
    if data == "equal_coeff":
        return EQUAL_COEFF_CFG.format(out=tmp_path / "out")
    return (DATA / f"{data}.ini").read_text()


def test_load_config_molecular(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MOLECULAR_CFG))
    assert cfg.spec.mode == "molecular"
    assert cfg.spec.n == 2
    assert cfg.backend == "fixed_point"
    assert cfg.n_nodes == 257


def test_repr_of_a_config_with_a_long_coefficient(tmp_path):
    long = MOLECULAR_CFG.replace("a11 = 1+u1", "a11 = 1" + "+u1^2" * 2000)
    cfg = load_config(write_cfg(tmp_path, long))
    assert repr(cfg).count("('var', 'u1')") == 2000


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


def test_verification_failure_logs_its_error(tmp_path, caplog):
    cfg_path = write_cfg(tmp_path, MOLECULAR_CFG + "residual_limit = 1e-12\n")
    assert main(["solve", str(cfg_path)]) == 0
    assert main(["verify", str(cfg_path), str(tmp_path / "out")]) == 3
    assert re.search(r"VerificationError: residual \S+ exceeds the configured limit "
                     r"1\.000e-12", caplog.text)
    assert (tmp_path / "out" / "verify_report.txt").is_file()


def test_import_leaves_the_oracle_registry_unbuilt():
    """The oracle registry compiles its problems on import, which a solve
    never needs; funcsol serves get_oracle and the rest on first use."""
    src = str(pathlib.Path(funcsol.__file__).parents[1])
    code = ("import sys, funcsol, funcsol.cli\n"
            "assert 'funcsol.oracles' not in sys.modules\n"
            "from funcsol import OracleCase, get_oracle, run_oracle_suite\n"
            "assert get_oracle('thm44_scalar').name == 'thm44_scalar'\n")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_every_exported_name_resolves():
    """A name left in __all__ after its object is gone breaks the star import."""
    for name in funcsol.__all__:
        getattr(funcsol, name)
    namespace = {}
    exec("from funcsol import *", namespace)
    assert set(funcsol.__all__) <= namespace.keys()


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
N = 257

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


def test_solve_keeps_the_shooting_cap(tmp_path, caplog):
    """A config without max_iter gives shooting its own cap of 30 Newton
    steps, not the 200 of the other backends."""
    text = (DATA / "darcy_rectangle_fluxes.ini").read_text()
    assert "tol = 1e-10" in text
    cfg_path = tmp_path / "case.ini"
    cfg_path.write_text(text.replace("tol = 1e-10", "tol = 1e-18", 1))
    assert load_config(cfg_path).max_iter == 30
    assert main(["solve", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "in 30 Newton iterations" in caplog.text


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


NAN_PAYLOADS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("row, text", [
    (np.full(6, -0.0), b"-0"),
    (np.full(6, NAN_PAYLOADS[2]), b"nan"),
    (np.full(6, -math.inf), b"-inf"),
    (np.full(6, 5e-324), b"4.9406564584124654e-324"),
    # equal as floats, not bit for bit: each value keeps its own text
    (np.array([0.0, -0.0, 0.0, 0.0, 0.0, 0.0]), None),
    (np.resize(NAN_PAYLOADS, 6), b"nan"),
], ids=["minus_zero", "one_nan_payload", "minus_inf", "subnormal", "signed_zeros", "nan_payloads"])
def test_write_field_csv_one_value_rows_by_bit_pattern(tmp_path, row, text):
    grid = build_annulus(3, row.size, 1.0, 2.0)
    values = np.stack([row, np.arange(row.size, dtype=float), row[::-1]])
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, values)
    written = path.read_bytes()
    assert written == reference_field_csv(grid, values)
    texts = [line.rsplit(b",", 1)[1] for line in written.splitlines()[1:row.size + 1]]
    if text is not None:
        assert texts == [text] * row.size
    else:
        assert texts == [b"0", b"-0", b"0", b"0", b"0", b"0"]


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
    # neither the distinct-value rows nor the one-value rows build a file's text
    grid = build_rectangle(257, 257, 1.0, 2.0)
    fields = {"all_distinct": np.random.default_rng(8).standard_normal(grid.shape),
              "row_constant": np.repeat(np.sqrt(grid.x1)[:, None], grid.n2, axis=1)}
    for name, values in fields.items():
        tracemalloc.start()
        try:
            write_field_csv(tmp_path / "f.csv", grid, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6, name


def write_calls():
    """This process's write(2) count so far, from /proc/self/io."""
    with open("/proc/self/io", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("syscw:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
def test_write_field_csv_writes_in_blocks_not_rows(tmp_path):
    # one write(2) per 12.7 KB row would take 257
    grid = build_annulus(257, 257, 1.0, 2.0)
    values = np.repeat(np.log1p(grid.x1)[:, None], grid.n2, axis=1)
    before = write_calls()
    write_field_csv(tmp_path / "f.csv", grid, values)
    calls = write_calls() - before
    size = (tmp_path / "f.csv").stat().st_size
    assert size > 12 * cli.WRITE_BUFFER
    assert calls <= math.ceil(size / cli.WRITE_BUFFER) + 1


def test_writers_replace_links_instead_of_writing_through(tmp_path):
    """An existing output path is replaced by a new file: a symlink or a hard
    link at it is not followed, and the file it pointed to keeps its bytes."""
    grid = build_rectangle(3, 3, 1.0, 1.0)
    target = tmp_path / "target.txt"
    target.write_text("keep\n")
    hard = tmp_path / "hard.csv"
    os.link(target, hard)
    soft = tmp_path / "report.txt"
    soft.symlink_to(target)
    write_field_csv(hard, grid, np.zeros(grid.shape))
    cli.write_report(soft, [("key", "value")])
    assert target.read_text() == "keep\n"
    assert not soft.is_symlink() and soft.read_text() == "key = value\n"
    assert hard.read_bytes() == reference_field_csv(grid, np.zeros(grid.shape))


@pytest.mark.parametrize("command", ["solve", "pivot"])
def test_pivot_tol_below_roundoff_exits_2(tmp_path, caplog, command):
    annulus = MOLECULAR_CFG.replace("family = rectangle", "family = annulus").replace(
        "width = 1.0\nheight = 1.0", "r1 = 1.0\nr2 = 2.0").replace(
        "tol = 1e-10", "tol = 1e-10\npivot_tol = 1e-18")
    assert main([command, str(write_cfg(tmp_path, annulus))]) == 2
    assert "PivotConvergenceError" in caplog.text and "roundoff floor" in caplog.text


def test_report_has_no_pivot_iterations_line(tmp_path, caplog):
    caplog.set_level("INFO", logger="funcsol")
    assert main(["solve", str(write_cfg(tmp_path, MOLECULAR_CFG))]) == 0
    report = read_report(tmp_path / "out" / "report.txt")
    assert "pivot_residual" in report and "pivot_iterations" not in report
    assert "iterations" not in next(m for m in caplog.messages if m.startswith("pivot done"))


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



def test_read_field_csv_refuses_another_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("x,y,value\n" + "0,0,1\n" * 20)
    with pytest.raises(ConfigError) as info:
        read_field_csv(path, build_rectangle(5, 4, 1.0, 2.0))
    assert type(info.value) is ConfigError
    assert str(info.value) == f"{path}: unexpected header 'x,y,value'"

@pytest.mark.parametrize("body", ["", "\n\n\n"], ids=["header-only", "blank-lines"])
def test_verify_refuses_an_empty_field_without_a_warning(tmp_path, capsys, body):
    cfg_path = write_cfg(tmp_path, MOLECULAR_CFG)
    assert main(["solve", str(cfg_path)]) == 0
    (tmp_path / "out" / "u1.csv").write_text("x1,x2,value\n" + body)
    with pytest.raises(ConfigError, match="expected 289 rows of 3 fields"):
        read_field_csv(tmp_path / "out" / "u1.csv", build_rectangle(17, 17, 1.0, 1.0))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", str(cfg_path), str(tmp_path / "out")]) == 1
    assert caught == []
    assert "Warning" not in capsys.readouterr().err


def test_verify_rejects_fields_of_another_grid(tmp_path):
    main(["solve", str(write_cfg(tmp_path, MOLECULAR_CFG))])
    annulus = MOLECULAR_CFG.replace("family = rectangle", "family = annulus").replace(
        "width = 1.0\nheight = 1.0", "r1 = 1.0\nr2 = 2.0")
    cfg_path = write_cfg(tmp_path, annulus, name="annulus.ini")
    assert main(["verify", str(cfg_path), str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "verify_report.txt").exists()


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("SVD did not converge"),
                                 FloatingPointError("overflow encountered"),
                                 MemoryError("Unable to allocate 7.30 GiB for an array")])
def test_numpy_errors_exit_as_solver_errors(tmp_path, monkeypatch, caplog, capsys, exc):
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "solve_pivot", broken)
    assert main(["solve", str(write_cfg(tmp_path, MOLECULAR_CFG))]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        f"{type(exc).__name__} in funcsol solve: {exc}"]
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
    sol = solve_two_point(cfg.spec, cfg.backend, cfg.n_nodes, cfg.tol, cfg.bracket_hints,
                          cfg.max_iter, cfg.damping)
    fields = reconstruct(sol, solve_pivot(grid, cfg.pivot_tol), cfg.spec, with_fluxes=True)
    stems = ["z", *(f"u{i+1}" for i in range(cfg.spec.n))]
    stems += [] if fields.p_field is None else ["p"]
    stems += [f"{name}_{k}" for name in fields.flux_fields for k in (1, 2)]
    assert sorted(path.stem for path in out.glob("*.csv")) == sorted(stems)
    for name, vec in fields.flux_fields.items():
        for k in (1, 2):
            np.testing.assert_array_equal(read_field_csv(out / f"{name}_{k}.csv", grid),
                                          vec[k - 1])


def assert_row_constant(out):
    """Every CSV in ``out`` holds one bit pattern per row of its grid: the
    traffic write_field_csv's one-join row is built for."""
    paths = sorted(out.glob("*.csv"))
    assert paths
    for path in paths:
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        bits = table[:, 2].reshape(-1, np.unique(table[:, 1]).size).view(np.int64)
        assert np.all(bits == bits[:, :1]), path


@pytest.mark.parametrize("cfg_path", sorted(DATA.glob("*.ini")), ids=lambda path: path.stem)
def test_solve_flux_files_are_row_constant_with_zero_x2_components(tmp_path, cfg_path):
    # z, u = U(z) and p depend on x1 alone, every flux is gamma_i eta* grad z
    out = tmp_path / "out"
    assert main(["solve", str(cfg_path), "--out", str(out)]) == 0
    assert_row_constant(out)
    grid = load_config(cfg_path).make_grid()
    x2_components = sorted(out.glob("*_2.csv"))
    assert x2_components
    for path in x2_components:
        assert np.all(read_field_csv(path, grid) == 0.0), path.name


def test_oracle_files_are_row_constant(tmp_path):
    assert main(["oracle", "--grid", "17", "--out", str(tmp_path)]) == 0
    cases = sorted(path for path in tmp_path.iterdir() if path.is_dir())
    assert len(cases) >= 8
    for case in cases:
        assert_row_constant(case)


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


@pytest.mark.parametrize("flags, builds", [
    ("write_fields = no\nwrite_fluxes = yes\n", 0),
    ("write_fields = yes\nwrite_fluxes = yes\n", 1),
], ids=["fluxes-unwritten", "fluxes-written"])
def test_solve_builds_only_the_fluxes_it_writes(tmp_path, monkeypatch, flags, builds):
    calls = []
    flux_fields = funcsol.reconstruct._flux_fields
    monkeypatch.setattr(funcsol.reconstruct, "_flux_fields",
                        lambda *args: calls.append(1) or flux_fields(*args))
    assert main(["solve", str(write_cfg(tmp_path, MOLECULAR_CFG + flags))]) == 0
    assert len(calls) == builds
    report = (tmp_path / "out" / "report.txt").read_bytes()
    assert main(["solve", str(write_cfg(tmp_path, MOLECULAR_CFG, "plain.ini"))]) == 0
    assert report == (tmp_path / "out" / "report.txt").read_bytes()


def test_solve_even_n_round_trips_through_verify(tmp_path):
    cfg_path = write_cfg(tmp_path, MOLECULAR_CFG.replace("N = 257", "N = 256"))
    out, checked = tmp_path / "out", tmp_path / "verify"
    assert load_config(cfg_path).n_nodes == 256
    assert main(["solve", str(cfg_path)]) == 0
    assert main(["verify", str(cfg_path), str(out), "--out", str(checked)]) == 0
    solved = read_report(out / "report.txt")
    verified = read_report(checked / "verify_report.txt")
    for key in ("divergence_residual_linf", "divergence_residual_l2", "boundary_max_error"):
        assert verified[key] == solved[key]


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
    toward tol = nan, or a silent success that ignored the bracket hint.
    Each key goes on a config whose backend reads it."""
    if key == "damping":
        text = config_text("molecular_annulus_fluxes", tmp_path)
    elif key in ("r_integral", "q_integral"):
        text = config_text("equal_coeff", tmp_path).replace(
            "r_integral = 1.0\nq_integral = 1.0\n", "")
    else:
        text = config_text(DARCY, tmp_path)
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


@pytest.mark.parametrize("data, old, new, message", [
    (DARCY, "n1 = 33\n", "", "[geometry] is missing 'n1'"),
    (DARCY, "n1 = 33", "n1 = 33.5", "[geometry] n1: cannot parse '33.5'"),
    (DARCY, "u_star = 0.8", "u_star = 0.8 0.1", "[problem] u_star: expected 1 values, got 2"),
    (DARCY, "; Darcy", "; Darc\xe9", "config is not UTF-8"),
    (DARCY, "n2 = 33", "n2 = 33\nn2 = 33", "option 'n2' in section 'geometry' already exists"),
    (DARCY, "family = rectangle", "family = disk", "[geometry] family: unknown family 'disk'"),
    (DARCY, "mode = darcy", "mode = stokes", "[problem] mode: unknown mode 'stokes'"),
    (DARCY, "\nn = 1\n", "\nn = 10\n", "[problem] n: must be between 1 and 9, got 10"),
    (DARCY, "n = 1\na11 = 1+0.5*u1", "n = 2\na11 = 1+0.5*u1\na12 = 0\na21 = 0\na22 = 1",
     "[problem] b coefficients must be given for all equations or none"),
    (DARCY, "tol = 1e-10", "tol = 0",
     "[solver] tol and pivot_tol must be positive, got 0.0 and 1e-10"),
    ("molecular_annulus_fluxes", "[solver]\n", "[solver]\ndamping = 1.5\n",
     "[solver] damping must lie in (0, 1], got 1.5"),
    ("equal_coeff", "q_integral = 1.0\n", "",
     "[solver] bracket hints need both r_integral and q_integral"),
    (DARCY, "[solver]\n", "[solver]\nmax_iter = 0\n",
     "[solver] max_iter must be at least 1, got 0"),
    (DARCY, "[solver]\n", "[solver]\nmax_iter = -3\n",
     "[solver] max_iter must be at least 1, got -3"),
    ("equal_coeff", "r_integral = 1.0", "r_integral = -1.0",
     "[solver] r_integral: must be positive, got -1.0"),
    ("equal_coeff", "q_integral = 1.0", "q_integral = 0",
     "[solver] q_integral: must be positive, got 0.0"),
], ids=["missing_key", "unparsable_int", "u_star_count", "not_utf8", "parse_error",
        "unknown_family", "unknown_mode", "n_range", "partial_b", "tol", "damping",
        "one_bracket_hint", "max_iter_zero", "max_iter_negative", "r_integral_negative",
        "q_integral_zero"])
def test_config_rejects_invalid_input(tmp_path, caplog, data, old, new, message):
    """Each malformed config is a config error (exit 1) that names its key.
    A non-positive bracket hint used to exit 2, after the pivot solve."""
    text = config_text(data, tmp_path)
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
    ("darcy_rectangle_fluxes", "N = 1025", "N = 1025\nn_nodes = 33",
     "[solver] n_nodes: not a key of this problem"),
    ("darcy_rectangle_fluxes", "tol = 1e-10", "tol = 1e-10\ndamping = 0.3",
     "[solver] damping: not a key of this problem"),
    ("darcy_rectangle_fluxes", "tol = 1e-10", "tol = 1e-10\nr_integral = 5.0\nq_integral = 1.0",
     "[solver] r_integral: not a key of this problem"),
    ("molecular_annulus_fluxes", "tol = 1e-11", "tol = 1e-11\nr_integral = 5.0\nq_integral = 1.0",
     "[solver] r_integral: not a key of this problem"),
], ids=["misspelled", "a13_for_n2", "width_on_annulus", "unknown_section", "N_and_n_nodes",
        "damping_on_shooting", "hints_on_shooting", "hints_on_fixed_point"])
def test_config_refuses_what_it_does_not_read(tmp_path, caplog, data, old, new, message):
    """A key the problem does not read is a config error naming it: a
    misspelled tol, with max_iters = 1, once solved with the defaults, and
    a backend option on a backend that ignored it."""
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
    # but max_iter, whose None default takes the backend's cap (shooting here)
    assert {name: getattr(cfg, name) for name in defaults} == {
        **defaults, "n_nodes": 1025, "tol": 1e-10, "write_fields": True, "write_fluxes": True,
        "max_iter": 30}


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


@pytest.mark.parametrize("data, key, value, code, message", [
    ("darcy_rectangle_fluxes", "p_star", "1e-300", 0, None),
    ("darcy_rectangle_fluxes", "width", "1e300", 1,
     "InvalidExtentsError: h1 = 3.125e+298 does not square to a positive normal float"),
    ("darcy_annulus_exp", "r2", "1e300", 1,
     "InvalidRadiiError: h1 = 7.8125e+297 does not square to a positive normal float"),
    ("darcy_rectangle_fluxes", "width", "1e-300", 1,
     "InvalidExtentsError: h1 = 3.125e-302 does not square to a positive normal float"),
    ("darcy_annulus_exp", "r1", "1e-300", 0, None),
], ids=["tiny-p_star", "huge-width", "huge-r2", "tiny-width", "tiny-r1"])
def test_solve_extreme_scales_end_typed(tmp_path, caplog, capsys, data, key, value, code,
                                        message):
    """Each of these once ended in a traceback: an OverflowError from the
    residual's range scale (p_star) or from a squared spacing (width, r2),
    or a RuntimeWarning from the pivot's metric terms on the inner arc (r1);
    a spacing whose square underflows (width = 1e-300) ended in a pivot
    residual of nan. Each now solves or is refused as a config error."""
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}",
                          (DATA / f"{data}.ini").read_text(), flags=re.M)
    assert count == 1
    cfg_path = tmp_path / "case.ini"
    cfg_path.write_text(text)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path / "out")]) == code
    log_text = caplog.text + capsys.readouterr().err
    assert "Traceback" not in log_text and "Warning" not in log_text
    if message is None:
        report = read_report(tmp_path / "out" / "report.txt")
        assert all(math.isfinite(float(v)) for key, value in report.items()
                   if key not in ("mode", "backend") for v in value.split())
    else:
        assert message in log_text


@pytest.mark.parametrize("key, value", [
    ("a11", "+".join(["0.0025"] * 400)),
    ("b1", "(" * 300 + "1+u1" + ")" * 300),
    ("a11", "^".join(["1"] * 400)),
], ids=["sum-400", "parentheses-300", "power-chain-400"])
def test_solve_long_and_deep_coefficients(tmp_path, key, value):
    """Each coefficient equals the k-section config's own, so gamma = ln 2;
    a recursive parser and compiler once ended these in a RecursionError."""
    text = (DATA / "scalar_rectangle_bisection.ini").read_text()
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    cfg_path = tmp_path / "case.ini"
    cfg_path.write_text(text)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    gamma = float(read_report(tmp_path / "out" / "report.txt")["gamma"])
    assert abs(gamma - math.log(2)) <= 1e-12


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


def test_oracle_report_replaces_a_link_instead_of_writing_through(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("keep\n")
    out = tmp_path / "out"
    out.mkdir()
    report = out / "oracle_report.txt"
    report.symlink_to(target)
    assert main(["oracle", "--grid", "17", "--out", str(out)]) == 0
    assert target.read_text() == "keep\n"
    assert not report.is_symlink() and report.is_file()
    assert report.read_text() == capsys.readouterr().out


# --- the typed-failure contract over generated configs -------------------------
#
# Configs come from a small grammar: every mode, n <= 3, both grid families,
# 9-33 nodes per axis, N <= 1025, coefficient expression trees over the six
# functions, and every backend that allowed_backends permits. [solver]
# carries only options its backend reads, except in draws that add one it
# does not read. Every run of cli.main must end with a documented exit
# code, never an escaping exception, and every success must round-trip:
# finite CSV files, exact boundary values, funcsol verify reproducing the
# residual lines, and a second solve writing the same bytes.

# the options each backend reads beyond n/N, tol, max_iter and pivot_tol
OWN_OPTIONS = {"fixed_point": ("damping",), "shooting": (),
               "scalar_bisection": ("r_integral", "q_integral")}
RESIDUAL_KEYS = ("divergence_residual_linf", "divergence_residual_l2", "boundary_max_error")

numbers = st.sampled_from(["0.5", "1", "2", "0.1", "3"])


def expressions(names):
    """Trees over the numbers, ``names``, + - * / ^ and the six functions."""
    leaves = numbers | st.sampled_from(names)

    def grow(inner):
        binary = st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})")
        call = st.tuples(st.sampled_from(sorted(FUNCTIONS)), inner).map(
            lambda t: f"{t[0]}({t[1]})")
        return binary | call

    return st.recursive(leaves, grow, max_leaves=4)


@st.composite
def configs(draw):
    """(config text with an {out} slot, whether [solver] holds a foreign option)."""
    mode = draw(st.sampled_from(["molecular", "darcy", "scalar"]))
    n = 1 if mode == "scalar" else draw(st.integers(1, 3))
    names = [f"u{i+1}" for i in range(n)] + ([] if mode == "molecular" else ["p"])
    tree = expressions(names)
    # a dominant diagonal plus a weighted tree keeps many draws solvable
    weight = st.sampled_from(["0", "0.1", "1"])
    a = [[f"{draw(st.sampled_from(['1', '2', '3'])) if i == j else '0'}"
          f"+{draw(weight)}*{draw(tree)}" for j in range(n)] for i in range(n)]
    problem = [f"mode = {mode}", f"n = {n}"]
    problem += [f"a{i+1}{j+1} = {a[i][j]}" for i in range(n) for j in range(n)]
    b = None
    if mode == "scalar" or (mode == "darcy" and draw(st.booleans())):
        b = [f"{'1+' if mode == 'scalar' else ''}{draw(weight)}*{draw(tree)}" for _ in range(n)]
        problem += [f"b{i+1} = {b[i]}" for i in range(n)]
    b_next = None
    if mode == "darcy" and draw(st.booleans()):
        b_next = f"1+{draw(weight)}*{draw(tree)}"
        problem.append(f"b_next = {b_next}")
    u_star = draw(st.lists(st.sampled_from([-1.0, -0.3, 0.0, 0.4, 1.0]), min_size=n, max_size=n))
    problem.append("u_star = " + " ".join(map(str, u_star)))
    p_star = 1.0
    if mode != "molecular":
        p_star = draw(st.sampled_from([0.5, 1.0, 2.0]))
        problem.append(f"p_star = {p_star}")

    spec = ProblemSpec.from_strings(n, a, b=b, b_next=b_next, u_star=u_star, p_star=p_star,
                                    mode=mode)
    backend = draw(st.sampled_from(allowed_backends(spec)))
    solver = [f"backend = {backend}", f"N = {draw(st.integers(9, 1025))}",
              f"tol = {draw(st.sampled_from([1e-6, 1e-8, 1e-10]))}",
              f"max_iter = {draw(st.integers(1, 40))}"]
    if draw(st.booleans()):
        solver.append(f"pivot_tol = {draw(st.sampled_from([1e-6, 1e-10]))}")
    if backend == "fixed_point" and draw(st.booleans()):
        solver.append(f"damping = {draw(st.sampled_from([0.25, 0.5, 1.0]))}")
    if backend == "scalar_bisection" and draw(st.booleans()):
        r = draw(st.sampled_from([0.5, 1.0]))
        solver += [f"r_integral = {r}", f"q_integral = {r + draw(st.sampled_from([0.0, 1.0]))}"]
    foreign = [key for other, keys in OWN_OPTIONS.items() if other != backend for key in keys]
    stray = draw(st.sampled_from([None] * 6 + foreign))
    if stray is not None:
        solver.append(f"{stray} = 0.5")

    family = draw(st.sampled_from(["rectangle", "annulus"]))
    extents = ("width = 1.0", "height = 2.0") if family == "rectangle" else ("r1 = 1.0",
                                                                            "r2 = 2.0")
    geometry = [f"family = {family}", f"n1 = {draw(st.integers(9, 33))}",
                f"n2 = {draw(st.integers(9, 33))}", *extents]
    output = ["directory = {out}", f"write_fluxes = {draw(st.booleans())}"]
    sections = {"geometry": geometry, "problem": problem, "solver": solver, "output": output}
    text = "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines) + "\n"
                   for name, lines in sections.items())
    return text, stray is not None


def files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=configs())
def test_generated_configs_end_typed_and_round_trip(tmp_path_factory, case):
    text, has_stray = case
    root = tmp_path_factory.mktemp("case")
    cfg_path = root / "case.ini"
    cfg_path.write_text(text.replace("{out}", str(root / "out")))
    code = main(["solve", str(cfg_path)])
    assert code in (0, 1, 2, 3, 4)
    if has_stray:
        assert code == 1
    if code != 0:
        return
    out = root / "out"
    grid = load_config(cfg_path).make_grid()
    for path in out.glob("*.csv"):
        assert np.isfinite(read_field_csv(path, grid)).all(), path.name
    report = read_report(out / "report.txt")
    assert float(report["boundary_max_error"]) == 0.0
    assert main(["verify", str(cfg_path), str(out), "--out", str(root / "verify")]) == 0
    checked = read_report(root / "verify" / "verify_report.txt")
    assert [checked[key] for key in RESIDUAL_KEYS] == [report[key] for key in RESIDUAL_KEYS]
    assert main(["solve", str(cfg_path), "--out", str(root / "again")]) == 0
    assert files(root / "again") == files(out)
