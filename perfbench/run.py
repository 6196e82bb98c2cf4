"""The funcsol benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload darcy_annulus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark imports funcsol from the
checkout's ``src/`` (nothing to build) and keeps its files under
``.bench_work/``. It

1. writes the workload's config from the seed (workloads.py);
2. times set-up, a fresh interpreter importing funcsol, loading the config
   and building the grid, over several processes (``setup_s``);
3. runs the workload in one child process on one thread, with the BLAS
   pools pinned to one thread: a warm-up run, then a closed loop of runs
   for ``--seconds``, each checked outside the timed region (child.py);
4. prints the metrics by name with their units and sample counts, a
   ``detail`` line with every sample and the environment, and last the
   result object.

``--trace 0`` reports the end-to-end metrics (``solve_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics (tracing.py), the tracing overhead and the
known-defect probes. ``fail_ratio`` is printed in both modes and reaches
the result as ``failed`` out of ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 9
DEADLINE_S = 170.0          # the whole invocation, set-up included
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "config.load_s": "s",
    "pivot.solve_s": "s", "pivot.cg_iters": "count",
    "pivot.stencil_solves": "count", "pivot.stencil_cg_iters": "count",
    "pivot.stencil_solve_s": "s",
    "twopoint.solve_s": "s", "twopoint.iters": "count",
    "twopoint.jacobian_calls": "count", "twopoint.profile_integrations": "count",
    "exprlang.eval_calls": "count", "exprlang.eval_s": "s", "exprlang.eval_us_per_call": "us",
    "reconstruct.s": "s",
    "verify.residual_s": "s", "verify.theta_s": "s", "verify.direct_s": "s",
    "cli.write_s": "s", "cli.rows_written": "count", "cli.bytes_written": "B",
    "cli.self_s": "s", "pivot.self_s": "s", "twopoint.self_s": "s",
    "reconstruct.self_s": "s", "verify.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "pivot.default_tol_failures": "count", "twopoint.unhinted_bracket_failures": "count",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env():
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env.pop("FUNCSOL_OUTPUT_DIR", None)     # the generated config names the output
    return env


def remaining(started):
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError(f"deadline of {DEADLINE_S:.0f} s passed")
    return left


def run_child(args, log, started, capture=False):
    """Run one child to completion; its stderr goes to the log file."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stderr=log, text=True,
                              stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                              timeout=remaining(started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} passed the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited with status {proc.returncode}; "
                         f"its stderr is in {Path(log.name).relative_to(ROOT)}")
    return proc.stdout


def measure_setup(inputs, log, started):
    """Seconds from starting a fresh process until it is ready to solve.

    The child prints the monotonic clock when ready, which excludes its
    teardown and the parent's polling while it waits.
    """
    args = ["setup", str(inputs.config_path)]
    run_child(args, log, started)           # not timed: fills the file cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        ready = float(run_child(args, log, started, capture=True))
        samples.append(ready - t0)
    return samples


def check_checkout():
    if not (ROOT / "src" / "funcsol" / "__init__.py").is_file():
        raise BenchError(f"no funcsol sources under {ROOT / 'src'}")


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "blas_pin": BLAS_PIN, "machine": platform.machine()}


def line(name, value, unit, note=""):
    print(f"{name:<36} {value:>14.6g} {unit:<6} {note}".rstrip())


def report(args, setup_samples, child):
    attempted = child["attempted"]
    failed = len(child["failures"])
    solve = child["solve_samples_s"]
    correct = failed == 0 and child["self_check_misses"] == []
    print(f"workload {args.workload}  seed {args.seed}  u* = {child['u_star']}  "
          f"p* = {child['p_star']:.6g}  trace {args.trace}")
    for label, measured, limit, ok in child["checks"]:
        print(f"  check {label:<34} {measured:.3e} <= {limit:.0e}  {'ok' if ok else 'FAIL'}")
    misses = child["self_check_misses"]
    print("  self-check: " + ("not run, no run passed" if misses is None
                              else f"wrong results accepted: {misses}"))
    for reason in child["failures"]:
        print(f"  failure: {reason}")
    line("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} runs")
    if args.trace:
        metrics = {k: child["per_layer"].get(k, 0.0) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        traced = child["traced_samples_s"]
        note = f"median of {len(traced)} traced runs"
        for k in metrics:
            line(k, metrics[k], units[k], note if not k.endswith("_failures") else "probe")
    else:
        # with no passing run, the failed runs' times stand in (correct is false)
        timed = solve or child["failed_run_s"]
        metrics = {
            "solve_s": statistics.median(timed),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        line("solve_s", metrics["solve_s"], "s",
             f"median of {len(timed)} {'passing' if solve else 'FAILED'} runs")
        line("setup_s", metrics["setup_s"], "s", f"median of {len(setup_samples)} processes")
        line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "1 process")
    detail = dict(child, setup_samples_s=setup_samples,
                  environment=dict(environment(), numpy=child["numpy"]))
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        check_checkout()
        work_dir = ROOT / ".bench_work" / args.workload
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        inputs = workloads.inputs_for(args.workload, args.seed, work_dir)
        workloads.write_inputs(inputs)
        with open(work_dir / "child.log", "w", encoding="utf-8") as log:
            setup_samples = measure_setup(inputs, log, started)
            out = run_child(["workload", args.workload, str(args.seed), str(args.seconds),
                             str(args.trace), str(work_dir)], log, started, capture=True)
        child = json.loads(out.strip().splitlines()[-1])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(args, setup_samples, child)
    return 0


if __name__ == "__main__":
    sys.exit(main())
