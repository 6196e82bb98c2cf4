"""Workload definitions: seeded endpoint data and the generated configs.

Grid sizes, profile meshes and tolerances are fixed per workload; the seed
only draws endpoint data (u* and p*, see ``draw``) from small stated
ranges, chosen so that every seed does the same solver work. This module
imports nothing beyond the standard library, so the orchestrating
process can write inputs without loading numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DARCY_ANNULUS = "darcy_annulus"
SCALAR_BISECT = "scalar_bisect"
COUPLED_CROSSCHECK = "coupled_crosscheck"
WORKLOADS = (DARCY_ANNULUS, SCALAR_BISECT, COUPLED_CROSSCHECK)

# the quarter annulus r in [R1, R2] shared by the two annulus workloads
R1, R2 = 1.0, 2.0

# Picard tolerance of the direct cross-check solve
DIRECT_TOL = 1e-9

# u* of the cross-coupled system in tests/test_pipeline.py; the seed scales it
COUPLED_U_STAR = (0.5, 0.3)

SCALAR_U_STAR = 1.0


@dataclass(frozen=True)
class Inputs:
    workload: str
    u_star: tuple
    p_star: float
    config_path: Path
    output_dir: Path


def draw(workload: str, seed: int):
    """Endpoint data (u_star, p_star) for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    rng = random.Random(f"{workload}:{seed}")
    if workload == COUPLED_CROSSCHECK:
        scale = [rng.uniform(0.95, 1.05) for _ in COUPLED_U_STAR]
        return tuple(u * s for u, s in zip(COUPLED_U_STAR, scale)), 1.0
    if workload == SCALAR_BISECT:
        # Where the root sits in the analytic bracket, and so how many
        # bisection steps reach tol, depends on u* alone: drawing u* made
        # the step count range from 28 to 39 across seeds. With u* fixed,
        # the solve in the variable gamma*p is the same for every p*.
        return (SCALAR_U_STAR,), rng.uniform(0.8, 1.2)
    return (rng.uniform(0.8, 1.2),), rng.uniform(0.8, 1.2)


def _darcy_annulus(u_star, p_star, out):
    return f"""\
[geometry]
family = annulus
n1 = 257
n2 = 257
r1 = {R1!r}
r2 = {R2!r}

[problem]
mode = darcy
n = 1
a11 = 1
b1 = 0
b_next = exp(p)
u_star = {u_star[0]!r}
p_star = {p_star!r}

[solver]
backend = shooting
N = 4097
tol = 1e-10
; the default 1e-10 lies below this grid's roundoff floor and fails
pivot_tol = 1e-8

[output]
directory = {out}
write_fields = true
write_fluxes = true
"""


def _scalar_bisect(u_star, p_star, out):
    # F = b/a = 1 + U lies in [1, 1 + u*] along the solution, so the
    # analytic hints are r = 1 and q = 1 + u*, integrated over [0, p*]
    return f"""\
[geometry]
family = rectangle
n1 = 65
n2 = 65
width = 1.0
height = 1.0

[problem]
mode = scalar
n = 1
a11 = 1
b1 = 1+u1
u_star = {u_star[0]!r}
p_star = {p_star!r}

[solver]
backend = scalar_bisection
N = 2049
tol = 1e-11
r_integral = {p_star!r}
q_integral = {p_star * (1.0 + u_star[0])!r}

[output]
directory = {out}
write_fields = true
write_fluxes = false
"""


def _coupled_crosscheck(u_star, p_star, out):
    return f"""\
[geometry]
family = annulus
n1 = 129
n2 = 129
r1 = {R1!r}
r2 = {R2!r}

[problem]
mode = molecular
n = 2
a11 = 2+0.5*sin(u1)
a12 = 0.3+0.1*u2
a21 = 0.3+0.1*u2
a22 = 1.5+0.2*u1
u_star = {u_star[0]!r} {u_star[1]!r}

[solver]
backend = fixed_point
N = 4097
tol = 1e-11

[output]
directory = {out}
write_fields = false
"""


_TEMPLATES = {
    DARCY_ANNULUS: _darcy_annulus,
    SCALAR_BISECT: _scalar_bisect,
    COUPLED_CROSSCHECK: _coupled_crosscheck,
}


def inputs_for(workload: str, seed: int, work_dir: Path) -> Inputs:
    """The drawn data and file locations; nothing is written."""
    u_star, p_star = draw(workload, seed)
    return Inputs(workload, u_star, p_star,
                  config_path=work_dir / "problem.ini",
                  output_dir=work_dir / "out")


def write_inputs(inputs: Inputs):
    text = _TEMPLATES[inputs.workload](inputs.u_star, inputs.p_star,
                                       inputs.output_dir)
    inputs.config_path.write_text(text, encoding="utf-8")
