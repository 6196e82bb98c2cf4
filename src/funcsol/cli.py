"""Batch front end: solve / pivot / verify / oracle subcommands.

All data files are deterministic (no timestamps, fixed ordering, 17
significant digits); log lines with timestamps go to stderr only. Each file
reaches the kernel in blocks of WRITE_BUFFER bytes, not one write(2) per
row, and a grid's axis texts are formatted once, for every file on it. The
output directory comes from the config, overridden by the
FUNCSOL_OUTPUT_DIR environment variable when set.

Exit codes, each carried by its error class: 0 success, 1 config errors,
2 solver errors, 3 verification failures, 4 resonance (singular shooting
Jacobian). numpy's LinAlgError, FloatingPointError and MemoryError exit 2,
as solver errors, with one log line.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import ConfigError, FuncsolError, ShapeMismatchError, VerificationError
from .geometry import Grid
from .numerics import constant_rows
from .pivot import PivotField, solve_pivot
from .reconstruct import FieldSet, compose_fields, darcy_reconstruct
# perfbench/tracing.py wraps the solvers here too, and raises KeyError without them
from .twopoint import (MOLECULAR, solve_fixed_point, solve_scalar,  # noqa: F401
                       solve_shooting, solve_two_point)
from .verify import divergence_residual, theta_linearity

log = logging.getLogger("funcsol")

OUTPUT_DIR_ENV = "FUNCSOL_OUTPUT_DIR"

# each write(2) has a fixed cost, so a 257^2 field file goes out in 13, not 257
WRITE_BUFFER = 1 << 18


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _fmt_vec(values) -> str:
    return " ".join(_fmt(v) for v in np.atleast_1d(values))


def _open_new(path: Path):
    """``path`` opened as a new UTF-8 text file with \\n line ends. An existing
    file there is unlinked first: truncating one in writeback can stall, and
    a link is not written through."""
    path.unlink(missing_ok=True)
    return open(path, "w", buffering=WRITE_BUFFER, encoding="utf-8", newline="\n")


def write_field_csv(path: Path, grid: Grid, values: np.ndarray):
    """One node per row, x1 outer, header x1,x2,value, every number as %.17g.

    Every field funcsol writes is constant along each row, as the pivot z
    is, so a row whose values share one bit pattern is one join around that
    value's text; any other row is one % format. ``constant_rows`` decides
    by bit pattern, as the checks do.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ShapeMismatchError(f"{path}: values of shape {values.shape} on a {grid.shape} grid")
    constant = constant_rows(values).tolist()
    x1_texts, x2_cells = grid.__dict__.get("_axis_texts") or (
        [_fmt(a) for a in grid.x1], [f",{_fmt(b)}," for b in grid.x2])
    object.__setattr__(grid, "_axis_texts", (x1_texts, x2_cells))  # once per grid
    with _open_new(path) as fh:
        fh.write("x1,x2,value\n")
        for x1, row, same in zip(x1_texts, values, constant):
            # no x1 or x2 text holds a %, so a non-constant row's line is its format
            text = "%.17g\n" % row[0] if same else "%.17g\n"
            line = x1 + (text + x1).join(x2_cells) + text
            fh.write(line if same else line % tuple(row.tolist()))


def read_field_csv(path: Path, grid: Grid) -> np.ndarray:
    if not path.is_file():
        raise ConfigError(f"field file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x1,x2,value":
            raise ConfigError(f"{path}: unexpected header '{header}'")
        try:
            with warnings.catch_warnings():
                # a table of no rows is refused by its shape below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row ({exc})") from None
    n1, n2 = grid.shape
    if table.shape != (n1 * n2, 3):
        raise ConfigError(f"{path}: expected {n1 * n2} rows of 3 fields, "
                          f"read a table of shape {table.shape}")
    table = table.reshape(n1, n2, 3)
    off_grid = (table[..., 0] != grid.x1[:, None]) | (table[..., 1] != grid.x2[None, :])
    if off_grid.any():
        i, j = np.argwhere(off_grid)[0]
        found = ",".join(map(_fmt, table[i, j, :2]))
        raise ConfigError(f"{path}: data row {i * n2 + j + 1} lies at x1,x2 = {found}, "
                          f"not at the grid node {_fmt(grid.x1[i])},{_fmt(grid.x2[j])}")
    return table[..., 2].copy()


def write_report(path: Path, entries):
    lines = [f"{key} = {value}" for key, value in entries]
    with _open_new(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _output_dir(default, override=None) -> Path:
    """--out, else $FUNCSOL_OUTPUT_DIR, else ``default``; created if missing."""
    path = Path(override or os.environ.get(OUTPUT_DIR_ENV) or default)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _residual_entries(report):
    """The divergence residual's report lines, the same in solve and verify."""
    return [("divergence_residual_linf", _fmt_vec(report.per_equation_linf)),
            ("divergence_residual_l2", _fmt_vec(report.per_equation_l2)),
            ("boundary_max_error", _fmt(report.boundary_max_error))]


def _write_fields(out: Path, piv: PivotField, fields: FieldSet | None) -> list[Path]:
    """z.csv, then u_i.csv, p.csv and the flux components of whatever fields
    exist; returns the paths written."""
    paths = []

    def write(name, grid, values):
        paths.append(out / name)
        write_field_csv(paths[-1], grid, values)

    write("z.csv", piv.grid, piv.values)
    if fields is None:
        return paths
    grid = fields.grid
    for i in range(fields.n):
        write(f"u{i+1}.csv", grid, fields.u_fields[i])
    if fields.p_field is not None:
        write("p.csv", grid, fields.p_field)
    if fields.flux_fields:
        for name, vec in fields.flux_fields.items():
            write(f"{name}_1.csv", grid, vec[0])
            write(f"{name}_2.csv", grid, vec[1])
    return paths


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    out = _output_dir(cfg.output_dir, args.out)
    grid = cfg.make_grid()
    log.info("solving pivot on %dx%d %s grid", cfg.n1, cfg.n2, cfg.family)
    piv = solve_pivot(grid, cfg.pivot_tol)
    log.info("pivot done: residual %.3e", piv.achieved_residual)
    sol = solve_two_point(cfg.spec, cfg.backend, cfg.n_nodes, cfg.tol, cfg.bracket_hints,
                          cfg.max_iter, cfg.damping)
    log.info("two-point solve done: gamma = %s", _fmt_vec(sol.gamma))
    reconstruct = compose_fields if cfg.spec.mode == MOLECULAR else darcy_reconstruct
    fields = reconstruct(sol, piv, cfg.spec, with_fluxes=cfg.write_fields and cfg.write_fluxes)
    report = divergence_residual(fields, cfg.spec, grid)
    entries = [
        ("mode", cfg.spec.mode),
        ("backend", cfg.backend),
        ("gamma", _fmt_vec(sol.gamma)),
        ("two_point_residual", _fmt(sol.two_point_residual)),
        ("boundary_error", _fmt(sol.boundary_error)),
        ("solver_iterations", sol.stats.get("iterations", 0)),
        ("pivot_residual", _fmt(piv.achieved_residual)),
        *_residual_entries(report),
    ]
    if cfg.spec.mode == MOLECULAR:
        entries.append(("theta_deviation", _fmt_vec(theta_linearity(sol, cfg.spec))))
    if cfg.write_fields:
        started = time.perf_counter()
        paths = _write_fields(out, piv, fields)
        log.info("wrote %d field files, %d bytes, in %.3f s", len(paths),
                 sum(path.stat().st_size for path in paths), time.perf_counter() - started)
    write_report(out / "report.txt", entries)
    log.info("wrote results to %s", out)
    return 0


def cmd_pivot(args) -> int:
    cfg = load_config(args.config)
    out = _output_dir(cfg.output_dir, args.out)
    grid = cfg.make_grid()
    piv = solve_pivot(grid, cfg.pivot_tol)
    write_field_csv(out / "z.csv", grid, piv.values)
    log.info("wrote pivot field to %s (residual %.3e)", out / "z.csv", piv.achieved_residual)
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    fields_dir = Path(args.fields_dir)
    grid = cfg.make_grid()
    u = np.stack([read_field_csv(fields_dir / f"u{i+1}.csv", grid)
                  for i in range(cfg.spec.n)])
    p = None
    if cfg.spec.mode != MOLECULAR:
        p = read_field_csv(fields_dir / "p.csv", grid)
    fields = FieldSet(grid=grid, u_fields=u, p_field=p)
    report = divergence_residual(fields, cfg.spec, grid)
    out = _output_dir(cfg.output_dir, args.out)
    write_report(out / "verify_report.txt",
                 [*_residual_entries(report), ("grid_spacing", _fmt_vec(report.grid_spacing))])
    log.info("recomputed residuals: linf = %s", _fmt_vec(report.per_equation_linf))
    if cfg.residual_limit is not None and not report.max_linf <= cfg.residual_limit:
        raise VerificationError(f"residual {report.max_linf:.3e} exceeds the configured "
                                f"limit {cfg.residual_limit:.3e}")
    return 0


def cmd_oracle(args) -> int:
    if args.grid < 17:
        raise ConfigError(f"--grid must be at least 17, got {args.grid}")
    from .oracles import run_oracle_suite      # its registry is built on import
    suite = run_oracle_suite(args.grid)
    out = _output_dir("oracle_out", args.out)
    for result in suite.results:
        if result.pivot is None:
            continue
        case_dir = out / result.name
        case_dir.mkdir(parents=True, exist_ok=True)
        _write_fields(case_dir, result.pivot, result.fields)
    with _open_new(out / "oracle_report.txt") as fh:
        fh.write(suite.format_text())
    sys.stdout.write(suite.format_text())
    if not suite.all_passed:
        failed = [result.name for result in suite.results if not result.passed]
        raise VerificationError(f"oracle cases failed: {', '.join(failed)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcsol",
        description="functional-solution solver for coupled divergence-form systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full pipeline and write fields")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=None, help="output directory override")
    p_solve.set_defaults(func=cmd_solve)

    p_piv = sub.add_parser("pivot", help="solve and write the pivot field only")
    p_piv.add_argument("config")
    p_piv.add_argument("--out", default=None)
    p_piv.set_defaults(func=cmd_pivot)

    p_ver = sub.add_parser("verify", help="recompute residuals on written fields")
    p_ver.add_argument("config")
    p_ver.add_argument("fields_dir")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_or = sub.add_parser("oracle", help="run the closed-form oracle suite")
    p_or.add_argument("--grid", type=int, default=33)
    p_or.add_argument("--out", default=None)
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FuncsolError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return exc.exit_code
    except OSError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return ConfigError.exit_code
    except (np.linalg.LinAlgError, FloatingPointError, MemoryError) as exc:
        log.error("%s in funcsol %s: %s", type(exc).__name__, args.command, exc)
        return FuncsolError.exit_code


if __name__ == "__main__":
    sys.exit(main())
