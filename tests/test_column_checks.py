"""The checks on the x1 column against the whole grid, bit for bit.

Fields whose rows each hold one bit pattern are checked on their first
column. The reference functions below are the whole-grid checks as they
were before the column path existed; every number the column path reports
must carry their bits, NaN and inf included. A field with one node moved
off its row's value takes the whole-grid path and must match them too.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcsol.config import load_config
from funcsol.geometry import build_annulus, build_rectangle
from funcsol.numerics import constant_rows, on_columns, range_scale
from funcsol.pivot import _radii, dirichlet_targets, pivot_residual_values, solve_pivot
from funcsol.reconstruct import FieldSet, compose_fields, darcy_reconstruct
from funcsol.twopoint import ProblemSpec, solve_shooting, solve_two_point
from funcsol.verify import ResidualReport, compare_fields, divergence_residual

# coefficients that stay defined for every float, inf and NaN included, so
# that non-finite rows reach the stencil instead of the expression's refusal
DARCY = ProblemSpec.from_strings(1, [["2+abs(u1)"]], b=["p"], b_next="1",
                                 u_star=(1.0,), p_star=1.0, mode="darcy")
MOLECULAR = ProblemSpec.from_strings(2, [["2+abs(u1)", "u2"], ["u1", "1+abs(u2)"]],
                                     u_star=(1.0, -0.5))

CONFIGS = sorted((Path(__file__).parent / "data").glob("*.ini"))

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e200, -1e200, 1e-200, -1e-200]
NON_FINITE = [np.nan, np.inf, -np.inf]


# --- the whole-grid checks, as reference -------------------------------------

def reference_flux_divergence(grid, c, u):
    h1, h2 = grid.spacing
    r, rface = _radii(grid)
    out = np.zeros(grid.shape)
    eq, h2r = out[1:-1], h2**2 * r[1:-1]
    fx = 0.5 * (c[:-1, :] + c[1:, :]) * rface[:, None] * (u[1:, :] - u[:-1, :])
    eq += (fx[1:, :] - fx[:-1, :]) / h1**2
    fy = 0.5 * (c[1:-1, :-1] + c[1:-1, 1:]) * (u[1:-1, 1:] - u[1:-1, :-1])
    eq[:, 1:-1] += (fy[:, 1:] - fy[:, :-1]) / h2r[:, None]
    eq[:, 0] += 2.0 * fy[:, 0] / h2r
    eq[:, -1] += -2.0 * fy[:, -1] / h2r
    return out / r[:, None]


def reference_divergence_residual(fields, spec, grid):
    p = fields.p_field
    state = [*fields.u_fields, p]
    values = spec.values(fields.u_fields, 0.0 if p is None else p)
    linf, l2, berr = [], [], []
    for field, boundary, terms in spec.laws():
        total = np.zeros(grid.shape)
        for k, f in terms:
            total += reference_flux_divergence(grid, values[k], state[f])
        vals = total[1:-1]
        linf.append(float(np.max(np.abs(vals))))
        scale = range_scale(linf[-1])
        vals *= scale
        l2.append(float(np.sqrt(np.mean(vals**2))) / scale)
        berr.append(np.max(np.abs(state[field] - dirichlet_targets(grid, boundary))[[0, -1]]))
    return ResidualReport(per_equation_linf=tuple(linf), per_equation_l2=tuple(l2),
                          boundary_max_error=float(np.max(berr)), grid_spacing=grid.spacing)


def reference_pivot_residual(grid, values):
    h1, h2 = grid.spacing
    u, mid = values, values[1:-1]
    polar = grid.coord_system == "polar"
    r = grid.x1[1:-1, None] if polar else np.ones((grid.n1 - 2, 1))
    lap = (u[:-2, :] - 2.0 * mid + u[2:, :]) / h1**2
    if polar:
        lap += (u[2:, :] - u[:-2, :]) / (2.0 * h1 * r)
    tfac = 1.0 / (h2**2 * r**2)
    lap[:, 1:-1] += (mid[:, :-2] - 2.0 * mid[:, 1:-1] + mid[:, 2:]) * tfac
    lap[:, 0] += 2.0 * (mid[:, 1] - mid[:, 0]) * tfac[:, 0]
    lap[:, -1] += 2.0 * (mid[:, -2] - mid[:, -1]) * tfac[:, 0]
    return float(np.max(np.abs(lap)))


def reference_compare_linf(a, b):
    diffs = [(a.u_fields - b.u_fields).ravel()]
    if a.p_field is not None:
        diffs.append((a.p_field - b.p_field).ravel())
    return float(np.max(np.abs(np.concatenate(diffs))))


# --- cases -------------------------------------------------------------------

def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_same_report(got, want):
    for name in ("per_equation_linf", "per_equation_l2", "boundary_max_error", "grid_spacing"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


grids = st.one_of(
    st.builds(build_rectangle, st.integers(3, 40), st.integers(3, 40),
              st.sampled_from([1.0, 0.3, 7.0]), st.sampled_from([1.0, 2.0, 0.05])),
    st.builds(build_annulus, st.integers(3, 40), st.integers(3, 40),
              st.sampled_from([1.0, 0.2]), st.sampled_from([2.0, 5.0])))

node_values = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL))


@st.composite
def columns(draw, grid, count):
    """``count`` columns of x2-constant values on ``grid``, one of them with a
    whole row of NaN or +-inf, maybe."""
    cols = np.array(draw(st.lists(st.lists(node_values, min_size=grid.n1, max_size=grid.n1),
                                  min_size=count, max_size=count)))
    if draw(st.booleans()):
        cols[draw(st.integers(0, count - 1)), draw(st.integers(0, grid.n1 - 1))] = \
            draw(st.sampled_from(NON_FINITE))
    return cols


def spread(cols, n2, view):
    """Columns (k, n1) as fields (k, n1, n2): a broadcast view or a copy."""
    fields = np.broadcast_to(cols[:, :, None], cols.shape + (n2,))
    return fields if view else fields.copy()


def moved(fields, draw):
    """A copy of the fields (k, n1, n2) with one node off its row's value."""
    out = np.array(fields)
    f, i, j = (draw(st.integers(0, n - 1)) for n in (out.shape[0], out.shape[1], out.shape[2] - 1))
    out[f, i, j + 1] = 0.5 if bits(out[f, i, 0]) != bits(0.5) else 0.25
    assert not constant_rows(out).all()
    return out


def field_set(grid, spec, stacked):
    darcy = spec.mode == "darcy"
    return FieldSet(grid=grid, u_fields=stacked[:spec.n], p_field=stacked[-1] if darcy else None)


@st.composite
def residual_cases(draw):
    grid = draw(grids)
    spec = draw(st.sampled_from([DARCY, MOLECULAR]))
    count = spec.n + (spec.mode == "darcy")
    stacked = spread(draw(columns(grid, count)), grid.n2, draw(st.booleans()))
    return grid, spec, stacked, moved(stacked, draw)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(residual_cases())
def test_residual_on_the_column_keeps_the_whole_grid_bits(case):
    grid, spec, stacked, one_node_moved = case
    with np.errstate(all="ignore"):
        for data in (stacked, one_node_moved):
            fields = field_set(grid, spec, data)
            assert_same_report(divergence_residual(fields, spec, grid),
                               reference_divergence_residual(fields, spec, grid))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_pivot_residual_on_the_column_keeps_the_whole_grid_bits(data):
    grid = data.draw(grids)
    cols = data.draw(columns(grid, 1))
    if data.draw(st.booleans()):        # 2 z overflows in the whole grid's theta-terms
        cols[0, data.draw(st.integers(0, grid.n1 - 1))] = 1.5e308
    values = spread(cols, grid.n2, data.draw(st.booleans()))
    with np.errstate(all="ignore"):
        want = reference_pivot_residual(grid, values[0])
        assert bits(pivot_residual_values(grid, values[0])) == bits(want)
        assert bits(pivot_residual_values(grid, values[0][:, :1])) == bits(want)
        other = moved(values, data.draw)[0]
        assert bits(pivot_residual_values(grid, other)) == bits(reference_pivot_residual(grid, other))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_compare_on_the_column_keeps_the_whole_grid_linf(data):
    grid = data.draw(grids)
    spec = data.draw(st.sampled_from([DARCY, MOLECULAR]))
    count = spec.n + (spec.mode == "darcy")
    a, b = (spread(data.draw(columns(grid, count)), grid.n2, data.draw(st.booleans()))
            for _ in range(2))
    with np.errstate(all="ignore"):
        for b_data in (b, moved(b, data.draw)):
            fa, fb = field_set(grid, spec, a), field_set(grid, spec, b_data)
            got = compare_fields(fa, fb)
            assert bits(got["linf"]) == bits(reference_compare_linf(fa, fb))
            # the column's mean sums in another order: a few ulp (2 at most in 300 random cases)
            want_l2 = np.sqrt(np.mean((a - b_data) ** 2))
            np.testing.assert_allclose(got["l2"], want_l2, rtol=8 * np.finfo(float).eps)


@pytest.mark.parametrize("path", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_residual_of_each_shipped_solve_keeps_the_whole_grid_bits(path):
    # a mean over a broadcast of the column's squares, in place of their
    # repeat, moves darcy_annulus_exp's L2 line by 1 ulp
    cfg = load_config(path)
    grid = cfg.make_grid()
    sol = solve_two_point(cfg.spec, cfg.backend, cfg.n_nodes, cfg.tol, cfg.bracket_hints,
                          cfg.max_iter, cfg.damping)
    reconstruct = compose_fields if cfg.spec.mode == "molecular" else darcy_reconstruct
    fields = reconstruct(sol, solve_pivot(grid, cfg.pivot_tol), cfg.spec)
    assert_same_report(divergence_residual(fields, cfg.spec, grid),
                       reference_divergence_residual(fields, cfg.spec, grid))


def test_constant_rows_decides_by_bit_pattern():
    rows = np.array([[-0.0, 0.0], [np.nan, np.nan], [1.0, 1.0], [np.inf, np.inf]])
    assert constant_rows(rows).tolist() == [False, True, True, True]
    assert constant_rows(np.zeros((2, 3, 4))).shape == (2, 3)
    column = np.broadcast_to(np.arange(3.0)[:, None], (3, 5))
    cut, absent = on_columns(column, None)
    assert cut.shape == (3, 1) and absent is None
    assert on_columns(column, rows)[0] is column       # one varying row keeps every grid


# --- memory ------------------------------------------------------------------

@pytest.fixture(scope="module")
def annulus_darcy():
    """A 257^2 annulus darcy field set: a11 = 1, b1 = 0, b_next = exp(p)."""
    grid = build_annulus(257, 257, 1.0, 2.0)
    spec = ProblemSpec.from_strings(1, [["1"]], b=["0"], b_next="exp(p)",
                                    u_star=(1.0,), p_star=1.0, mode="darcy")
    sol = solve_shooting(spec, n_nodes=4097, tol=1e-10)
    fields = darcy_reconstruct(sol, solve_pivot(grid, 1e-8), spec, with_fluxes=True)
    return grid, spec, fields


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checks_of_row_constant_fields_allocate_per_column(annulus_darcy):
    # a whole-grid temporary is 0.53 MB here; the whole-grid checks peaked at
    # 4.28 MB (residual), 1.64 MB (pivot) and 3.17 MB (comparison)
    grid, spec, fields = annulus_darcy
    assert traced_peak(lambda: divergence_residual(fields, spec, grid)) <= 1.0e6
    assert traced_peak(lambda: solve_pivot(grid, 1e-8)) <= 0.5e6
    assert traced_peak(lambda: compare_fields(fields, fields)) <= 0.5e6
