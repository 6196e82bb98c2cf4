"""One run of each workload through funcsol's public entry points, and its checks.

A run is what the benchmark times: ``funcsol.cli.main(["solve", cfg])`` for
the two CLI workloads, and the library pipeline for the cross-check.
Every call goes through a module attribute (``pivot.solve_pivot``, not a
name imported here), so the tracer's wrappers see the benchmark's own
calls as well as the program's.

The checks run outside the timed region. They compare each result with
its workload's closed form (CLI workloads, read back from the written
files) or with the direct coupled solver (the cross-check), and every
check is a (label, measured, limit) triple that passes when
measured <= limit.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from funcsol import cli, config, pivot, reconstruct, twopoint, verify

from workloads import COUPLED_CROSSCHECK, DARCY_ANNULUS, DIRECT_TOL, R1, R2, Inputs

# The self-check shifts one quantity of a correct result by this much and
# expects the checker to refuse it: at least five times every limit that
# quantity is held to, and small enough that a loose check lets it pass.
WRONG_BY = 1e-6

GAMMA_LIMIT = 1e-9
FIELD_LIMIT = 2e-7              # reconstruction against the closed form
PIVOT_LIMIT = 1e-6              # O(h^2) discretization of the log profile
FLUX_LIMIT = 1e-3               # O(h^2) centred-difference gradients
THETA_LIMIT = 1e-9
CROSSCHECK_LIMIT = 1e-8         # functional against direct fields, linf
RESIDUAL_LIMIT = 1e-4           # O(h^2) flux-form divergence residual
BOUNDARY_LIMIT = 1e-12
COLLOCATION_LIMIT = 1e-10       # ten times the fixed-point tolerance

DARCY_FILES = ("z", "u1", "p", "q_1_1", "q_1_2", "v_1", "v_2")
SCALAR_FILES = ("z", "u1", "p")


class RunFailed(Exception):
    """The program returned an error status instead of raising."""


@dataclass(frozen=True)
class Check:
    label: str
    measured: float
    limit: float

    @property
    def ok(self):
        return bool(self.measured <= self.limit)     # NaN fails


# ---------------------------------------------------------------- runs

def prepare(inputs: Inputs):
    """Untimed: clear the output directory so each run's files are its own."""
    shutil.rmtree(inputs.output_dir, ignore_errors=True)


def run_cli(inputs: Inputs):
    code = cli.main(["solve", str(inputs.config_path)])
    if code != 0:
        raise RunFailed(f"funcsol solve exited with status {code}")
    return None


@dataclass(frozen=True)
class CoupledResult:
    spec: object
    solution: object
    fields: object
    direct: object
    residual: object
    theta: np.ndarray
    difference: dict


def run_coupled(inputs: Inputs) -> CoupledResult:
    cfg = config.load_config(inputs.config_path)
    grid = cfg.make_grid()
    piv = pivot.solve_pivot(grid, cfg.pivot_tol)
    sol = twopoint.solve_fixed_point(cfg.spec, n_nodes=cfg.n_nodes, tol=cfg.tol,
                                     max_iter=cfg.max_iter, damping=cfg.damping)
    fields = reconstruct.compose_fields(sol, piv, cfg.spec)
    residual = verify.divergence_residual(fields, cfg.spec, grid)
    theta = verify.theta_linearity(sol, cfg.spec)
    direct = verify.direct_coupled_solve(cfg.spec, grid, tol=DIRECT_TOL)
    difference = verify.compare_fields(fields, direct)
    return CoupledResult(cfg.spec, sol, fields, direct, residual, theta, difference)


def run_once(inputs: Inputs):
    if inputs.workload == COUPLED_CROSSCHECK:
        return run_coupled(inputs)
    return run_cli(inputs)


# ------------------------------------------------------------- outputs

@dataclass(frozen=True)
class CliOutputs:
    """What `funcsol solve` wrote, parsed: gamma and the node fields."""
    gamma: float
    x1: np.ndarray
    fields: dict            # file stem -> (n1, n2) values


def _read_csv(path, shape):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (shape[0] * shape[1], 3):
        raise ValueError(f"{path.name}: {data.shape[0]} rows, expected {shape[0] * shape[1]}")
    return data[:, 0].reshape(shape), data[:, 2].reshape(shape)


def read_cli_outputs(inputs: Inputs) -> CliOutputs:
    cfg = config.load_config(inputs.config_path)
    shape = (cfg.n1, cfg.n2)
    report = dict(line.split(" = ", 1) for line in
                  (inputs.output_dir / "report.txt").read_text(encoding="utf-8").splitlines())
    names = DARCY_FILES if inputs.workload == DARCY_ANNULUS else SCALAR_FILES
    fields = {}
    x1 = None
    for name in names:
        x1, fields[name] = _read_csv(inputs.output_dir / f"{name}.csv", shape)
    return CliOutputs(gamma=float(report["gamma"]), x1=x1, fields=fields)


def output_files(inputs: Inputs):
    if not inputs.output_dir.is_dir():
        return []
    return sorted(p for p in inputs.output_dir.iterdir() if p.is_file())


def digest(inputs: Inputs, result) -> str:
    """Digest of everything a run produced: its files, or the coupled arrays."""
    h = hashlib.sha256()
    if result is None:
        for path in output_files(inputs):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()
    for arr in (result.solution.gamma, result.solution.profiles,
                result.fields.u_fields, result.direct.u_fields,
                result.theta, np.asarray(result.residual.per_equation_linf),
                np.array([result.difference["linf"], result.difference["l2"]])):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


# -------------------------------------------------------------- checks

def _maxabs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def check_darcy(inputs: Inputs, out: CliOutputs):
    """a11 = 1, b1 = 0, b_next = exp(p) on the quarter annulus.

    gamma = u*/(e^{p*}-1), p = log(1 + (e^{p*}-1) z), u = u* z, and the
    pivot is log(r/r1)/log(r2/r1). The fluxes are q = grad u and
    v = -e^p grad p = -(e^{p*}-1) grad z, purely radial.
    """
    us, ps = inputs.u_star[0], inputs.p_star
    eta = math.expm1(ps)
    f = out.fields
    z = f["z"]
    dz_dr = 1.0 / (out.x1 * math.log(R2 / R1))
    flux_scale = max(us, eta) * float(dz_dr.max())
    return [
        Check("gamma error", abs(out.gamma - us / eta), GAMMA_LIMIT),
        Check("pivot vs log profile", _maxabs(z, np.log(out.x1 / R1) / math.log(R2 / R1)),
              PIVOT_LIMIT),
        Check("u vs u* z", _maxabs(f["u1"], us * z), FIELD_LIMIT),
        Check("p vs log(1 + (e^p* - 1) z)", _maxabs(f["p"], np.log1p(eta * z)), FIELD_LIMIT),
        Check("q radial vs u* dz/dr", _maxabs(f["q_1_1"], us * dz_dr) / flux_scale, FLUX_LIMIT),
        Check("q angular", _maxabs(f["q_1_2"], 0.0) / flux_scale, FLUX_LIMIT),
        Check("v radial vs -(e^p* - 1) dz/dr", _maxabs(f["v_1"], -eta * dz_dr) / flux_scale,
              FLUX_LIMIT),
        Check("v angular", _maxabs(f["v_2"], 0.0) / flux_scale, FLUX_LIMIT),
    ]


def check_scalar(inputs: Inputs, out: CliOutputs):
    """a11 = 1, b1 = 1 + u1 on the unit square.

    gamma = log(1+u*)/p*, U(p) = e^{gamma p} - 1, so u = u* z and
    p = log(1 + u* z)/gamma; the pivot is x1 exactly.
    """
    us, ps = inputs.u_star[0], inputs.p_star
    gamma = math.log1p(us) / ps
    f = out.fields
    z = f["z"]
    return [
        Check("gamma error", abs(out.gamma - gamma), GAMMA_LIMIT),
        Check("pivot vs x1", _maxabs(z, out.x1), FIELD_LIMIT),
        Check("u vs u* z", _maxabs(f["u1"], us * z), FIELD_LIMIT),
        Check("p vs log(1 + u* z)/gamma", _maxabs(f["p"], np.log1p(us * z) / gamma),
              FIELD_LIMIT),
    ]


def check_coupled(inputs: Inputs, result: CoupledResult):
    """No closed form: the functional fields must match the direct solve.

    The flux linearity is recomputed here from the returned gamma, so a
    wrong gamma shows even when the profiles are right.
    """
    sol = result.solution
    theta = verify.theta_linearity(sol, result.spec)
    diff = verify.compare_fields(result.fields, result.direct)
    return [
        Check("theta linearity", float(np.max(theta)), THETA_LIMIT),
        Check("functional vs direct linf", diff["linf"], CROSSCHECK_LIMIT),
        Check("divergence residual linf", result.residual.max_linf, RESIDUAL_LIMIT),
        Check("profile boundary error", sol.boundary_error, BOUNDARY_LIMIT),
        Check("field boundary error", result.residual.boundary_max_error, BOUNDARY_LIMIT),
        Check("collocation residual", sol.two_point_residual, COLLOCATION_LIMIT),
    ]


def evidence(inputs: Inputs, result):
    """What the checker looks at: parsed files, or the coupled result."""
    if inputs.workload == COUPLED_CROSSCHECK:
        return result
    return read_cli_outputs(inputs)


def check(inputs: Inputs, ev):
    if inputs.workload == DARCY_ANNULUS:
        return check_darcy(inputs, ev)
    if inputs.workload == COUPLED_CROSSCHECK:
        return check_coupled(inputs, ev)
    return check_scalar(inputs, ev)


def wrong_variants(inputs: Inputs, ev):
    """Copies of a correct result, each wrong in one way, for the self-check."""
    if inputs.workload == COUPLED_CROSSCHECK:
        sol = ev.solution
        moved = replace(ev.direct, u_fields=ev.direct.u_fields + WRONG_BY)
        return {
            "gamma": replace(ev, solution=replace(sol, gamma=sol.gamma + WRONG_BY)),
            "direct field": replace(ev, direct=moved),
        }
    variants = {"gamma": replace(ev, gamma=ev.gamma + WRONG_BY)}
    for name in ("u1", "p"):
        fields = dict(ev.fields)
        fields[name] = fields[name] + WRONG_BY
        variants[name] = replace(ev, fields=fields)
    return variants


def self_check(inputs: Inputs, ev):
    """Labels of wrong variants that the checker failed to reject."""
    return [label for label, wrong in wrong_variants(inputs, ev).items()
            if all(c.ok for c in check(inputs, wrong))]


# ---------------------------------------------------------------- loop

class Loop:
    """Runs of one workload with their checks; failures are counted, not raised."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.attempted = 0
        self.failures = []
        self.reference = None
        self.checks = []
        self.self_check_misses = None

    def _fail(self, reason):
        self.failures.append(f"run {self.attempted}: {reason}")
        return False

    def one(self, context=nullcontext):
        """Prepare, time one run inside ``context``, then check it untimed.

        Returns the run's seconds, also when it failed, and whether it passed.
        """
        prepare(self.inputs)
        self.attempted += 1
        with context():
            t0 = time.perf_counter()
            try:
                result = run_once(self.inputs)
            except Exception as exc:     # a failed run counts in fail_ratio; go on
                elapsed = time.perf_counter() - t0
                traceback.print_exc()
                return elapsed, self._fail(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
        return elapsed, self._verify(result)

    def _verify(self, result):
        fingerprint = digest(self.inputs, result)
        if self.reference is None:
            try:
                ev = evidence(self.inputs, result)
            except (OSError, ValueError, KeyError) as exc:
                return self._fail(f"outputs unreadable: {type(exc).__name__}: {exc}")
            # outputs of later runs must be byte-identical to these, so
            # checking them once checks every run
            self.reference = fingerprint
            self.checks = check(self.inputs, ev)
            self.self_check_misses = self_check(self.inputs, ev)
        elif fingerprint != self.reference:
            return self._fail("outputs differ from the first run")
        bad = [c.label for c in self.checks if not c.ok]
        if bad:
            return self._fail("check failed: " + ", ".join(bad))
        return True
