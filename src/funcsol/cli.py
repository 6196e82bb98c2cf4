"""Batch front end: solve / pivot / verify / oracle subcommands.

All data files are deterministic (no timestamps, fixed ordering, 17
significant digits); log lines with timestamps go to stderr only. The
output directory comes from the config, overridden by the
FUNCSOL_OUTPUT_DIR environment variable when set.

Exit codes: 0 success, 1 config errors, 2 solver errors, 3 verification
failures, 4 resonance (singular shooting Jacobian).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import errors
from .config import ProblemConfig, load_config
from .errors import ConfigError, FuncsolError, ShapeMismatchError
from .geometry import Grid
from .oracles import run_oracle_suite
from .pivot import PivotField, solve_pivot
from .reconstruct import FieldSet, compose_fields, darcy_reconstruct
from .twopoint import MOLECULAR, solve_fixed_point, solve_scalar, solve_shooting
from .verify import divergence_residual, theta_linearity

log = logging.getLogger("funcsol")

OUTPUT_DIR_ENV = "FUNCSOL_OUTPUT_DIR"


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _fmt_vec(values) -> str:
    return " ".join(_fmt(v) for v in np.atleast_1d(values))


def write_field_csv(path: Path, grid: Grid, values: np.ndarray):
    """One node per row, x1 outer, header x1,x2,value, every number as %.17g.

    Fields u = U(z) repeat a few values along each row, so each distinct
    value of a row is formatted once and its text reused. Values count as
    equal when their bit patterns are: -0.0 == 0.0 as floats but prints
    as -0, and each NaN prints as nan whatever its sign or payload.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ShapeMismatchError(f"{path}: values of shape {values.shape} on a {grid.shape} grid")
    # after the row's x1 field, x2 fields alternate with value texts, which
    # carry their line's end and the next line's x1; the last one loses it
    parts = [None] * (2 * grid.n2 + 1)
    parts[1::2] = [f",{_fmt(b)}," for b in grid.x2]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x1,x2,value\n")
        for a, row in zip(grid.x1, values):
            x1 = parts[0] = _fmt(a)
            # what np.unique(..., return_inverse=True) gives, in fewer numpy calls
            row_bits = row.view(np.int64)
            bits = np.sort(row_bits)
            bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
            texts = ((f"%.17g\n{x1}\0" * bits.size)
                     % tuple(bits.view(np.float64).tolist())).split("\0")
            parts[2::2] = [texts[i] for i in bits.searchsorted(row_bits).tolist()]
            fh.write("".join(parts)[:-len(x1)])


def read_field_csv(path: Path, grid: Grid) -> np.ndarray:
    if not path.is_file():
        raise ConfigError(f"field file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x1,x2,value":
            raise ConfigError(f"{path}: unexpected header '{header}'")
        try:
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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def _solve_two_point(cfg: ProblemConfig):
    if cfg.backend == "fixed_point":
        return solve_fixed_point(cfg.spec, n_nodes=cfg.n_nodes, tol=cfg.tol,
                                 max_iter=cfg.max_iter, damping=cfg.damping)
    if cfg.backend == "shooting":
        return solve_shooting(cfg.spec, n_nodes=cfg.n_nodes, tol=cfg.tol,
                              max_newton=cfg.max_iter)
    return solve_scalar(cfg.spec, bracket_hints=cfg.bracket_hints,
                        n_nodes=cfg.n_nodes, tol=cfg.tol, max_bisect=cfg.max_iter)


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
    log.info("pivot done: residual %.3e, %d iterations", piv.achieved_residual, piv.iterations)
    sol = _solve_two_point(cfg)
    log.info("two-point solve done: gamma = %s", _fmt_vec(sol.gamma))
    if cfg.spec.mode == MOLECULAR:
        fields = compose_fields(sol, piv, cfg.spec, with_fluxes=cfg.write_fluxes)
    else:
        fields = darcy_reconstruct(sol, piv, cfg.spec, with_fluxes=cfg.write_fluxes)
    report = divergence_residual(fields, cfg.spec, grid)
    entries = [
        ("mode", cfg.spec.mode),
        ("backend", cfg.backend),
        ("gamma", _fmt_vec(sol.gamma)),
        ("two_point_residual", _fmt(sol.two_point_residual)),
        ("boundary_error", _fmt(sol.boundary_error)),
        ("solver_iterations", sol.stats.get("iterations", 0)),
        ("pivot_residual", _fmt(piv.achieved_residual)),
        ("pivot_iterations", piv.iterations),
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
        log.error("residual %.3e exceeds the configured limit %.3e",
                  report.max_linf, cfg.residual_limit)
        return errors.EXIT_CODES[errors.VERIFICATION]
    return 0


def cmd_oracle(args) -> int:
    if args.grid < 17:
        raise ConfigError(f"--grid must be at least 17, got {args.grid}")
    suite = run_oracle_suite(args.grid)
    out = _output_dir("oracle_out", args.out)
    for result in suite.results:
        if result.pivot is None:
            continue
        case_dir = out / result.name
        case_dir.mkdir(parents=True, exist_ok=True)
        _write_fields(case_dir, result.pivot, result.fields)
    (out / "oracle_report.txt").write_text(suite.format_text(), encoding="utf-8")
    sys.stdout.write(suite.format_text())
    if not suite.all_passed:
        return errors.EXIT_CODES[errors.VERIFICATION]
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
        return errors.EXIT_CODES[exc.category]
    except OSError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return errors.EXIT_CODES[errors.CONFIG]
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        log.error("%s in funcsol %s: %s", type(exc).__name__, args.command, exc)
        return errors.EXIT_CODES[errors.SOLVER]


if __name__ == "__main__":
    sys.exit(main())
