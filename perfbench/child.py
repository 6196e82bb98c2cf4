"""Child processes of the benchmark: set-up timing and the workload loop.

run.py starts these with the BLAS thread pools pinned to one thread;
they are not meant to be run by hand.

    python3 perfbench/child.py setup CONFIG
    python3 perfbench/child.py workload NAME SEED SECONDS TRACE WORKDIR

``setup`` does what every CLI call pays before solving (import funcsol,
load the config, build the grid), prints the monotonic clock and exits. ``workload`` runs one warm-up and then a closed loop of runs,
one caller on one thread, each run starting when the previous one has
returned and been checked, until SECONDS have passed. It prints one JSON
object on stdout.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# a loop always measures at least this many runs, however long they take
MIN_RUNS = 3
MIN_TRACED_RUNS = 2

# the known-defect probes: a 193^2 annulus at the config default pivot
# tolerance, and the thm44_scalar case without bracket hints
PROBE_PIVOT_GRID = 193
PROBE_BRACKET_NODES = 257


def setup_main(config_path):
    import funcsol
    funcsol.load_config(config_path).make_grid()
    print(repr(time.monotonic()))


def _probe(fn):
    """(1, error name) if the call raises, (0, None) if it returns."""
    try:
        fn()
    except Exception as exc:
        return 1, type(exc).__name__
    return 0, None


def run_probes():
    from dataclasses import fields

    from funcsol import build_annulus, config, get_oracle, pivot, twopoint
    from workloads import R1, R2

    default_tol = {f.name: f.default for f in fields(config.ProblemConfig)}["pivot_tol"]
    grid = build_annulus(PROBE_PIVOT_GRID, PROBE_PIVOT_GRID, R1, R2)
    case = get_oracle("thm44_scalar")
    pivot_fail, pivot_err = _probe(lambda: pivot.solve_pivot(grid, default_tol))
    bracket_fail, bracket_err = _probe(lambda: twopoint.solve_scalar(
        case.spec, bracket_hints=None, n_nodes=PROBE_BRACKET_NODES, tol=case.tol))
    counts = {"pivot.default_tol_failures": pivot_fail,
              "twopoint.unhinted_bracket_failures": bracket_fail}
    errors = {"pivot.default_tol": pivot_err, "twopoint.unhinted_bracket": bracket_err}
    return counts, errors


def workload_main(name, seed, seconds, trace, work_dir):
    # imported here, not at the top, so a setup child loads funcsol alone
    import numpy as np

    import pipeline
    import workloads

    inputs = workloads.inputs_for(name, seed, work_dir)
    loop = pipeline.Loop(inputs)
    loop.one()                                  # warm-up, checked, not timed
    plain, traced, layer_runs, failed_s = [], [], [], []
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    # a traced loop alternates untraced and traced runs
    min_runs = 2 * MIN_TRACED_RUNS if trace else MIN_RUNS
    start = time.perf_counter()
    i = 0
    while i < min_runs or time.perf_counter() - start < seconds:
        use_tracer = trace and i % 2 == 1
        dt, ok = loop.one(tracer.run if use_tracer else nullcontext)
        i += 1
        if not ok:
            failed_s.append(dt)     # counted in fail_ratio, not in solve_s
            continue
        if use_tracer:
            traced.append(dt)
            metrics = tracer.metrics()
            metrics["cli.bytes_written"] = sum(
                p.stat().st_size for p in pipeline.output_files(inputs))
            layer_runs.append(metrics)
        else:
            plain.append(dt)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "workload": name, "seed": seed,
        "u_star": list(inputs.u_star), "p_star": inputs.p_star,
        "attempted": loop.attempted, "failures": loop.failures,
        "checks": [[c.label, c.measured, c.limit, c.ok] for c in loop.checks],
        "self_check_misses": loop.self_check_misses,
        "solve_samples_s": plain,
        "failed_run_s": failed_s,
        "peak_rss_mb": peak_rss_mb,
        "numpy": np.__version__,
    }
    if trace:
        per_layer = {}
        if layer_runs:
            per_layer = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        if plain and traced:
            per_layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        counts, errors = run_probes()
        per_layer.update(counts)
        trace_path = work_dir / "trace.json"
        trace_path.write_text(json.dumps(tracer.records()), encoding="utf-8")
        out.update(per_layer=per_layer, traced_samples_s=traced, probe_errors=errors,
                   trace_file=str(trace_path.relative_to(ROOT)))
    print(json.dumps(out))


def main(argv):
    if argv[0] == "setup":
        setup_main(argv[1])
    elif argv[0] == "workload":
        name, seed, seconds, trace, work_dir = argv[1:6]
        workload_main(name, int(seed), float(seconds), trace == "1", Path(work_dir))
    else:
        raise SystemExit(f"unknown child mode '{argv[0]}'")


if __name__ == "__main__":
    main(sys.argv[1:])
