import dataclasses
import math

import numpy as np
import pytest

from funcsol.errors import GridDimensionError, InvalidExtentsError, InvalidRadiiError
from funcsol.geometry import Grid, build_annulus, build_rectangle
from funcsol.pivot import dirichlet_targets, solve_pivot
from funcsol.twopoint import ProblemSpec
from funcsol.verify import direct_coupled_solve


def _partition(g):
    """Node masks (gamma1, gamma2, gamma3, interior) read off the grid's
    equation rows, every row but the first and the last, and its Dirichlet
    data."""
    unknown = np.ones(g.shape, dtype=bool)
    unknown[[0, -1]] = False
    gamma3 = dirichlet_targets(g, 1.0) == 1.0
    gamma1 = ~unknown & ~gamma3
    edge = np.zeros(g.shape, dtype=bool)
    edge[:, [0, -1]] = True
    return gamma1, unknown & edge, gamma3, unknown & ~edge


def test_grid_fields_are_the_coordinates():
    assert [f.name for f in dataclasses.fields(Grid)] == ["coord_system", "x1", "x2"]


def test_rectangle_3x3_tag_counts():
    g = build_rectangle(3, 3, 1.0, 1.0)
    gamma1, gamma2, gamma3, interior = _partition(g)
    assert g.shape == (3, 3)
    assert int(gamma1.sum()) == 3
    assert int(gamma3.sum()) == 3
    assert int(gamma2.sum()) == 2
    assert int(interior.sum()) == 1


def test_rectangle_spacing():
    g = build_rectangle(5, 3, 2.0, 1.0)
    assert g.spacing == (0.5, 0.5)


def test_rectangle_too_small():
    with pytest.raises(GridDimensionError):
        build_rectangle(2, 3, 1.0, 1.0)


def test_rectangle_bad_extent():
    with pytest.raises(InvalidExtentsError):
        build_rectangle(3, 3, -1.0, 1.0)


def test_annulus_tags():
    g = build_annulus(3, 3, 1.0, 2.0)
    assert g.coord_system == "polar"
    d = dirichlet_targets(g, 2.0)
    gamma1, gamma2, gamma3, _ = _partition(g)
    assert gamma1[0].all() and np.all(d[0] == 0.0)      # inner arc
    assert gamma3[-1].all() and np.all(d[-1] == 2.0)    # outer arc
    assert gamma2[1, 0] and gamma2[1, -1]               # radial edges
    assert np.all(d[1] == 0.0)


def test_annulus_spacing():
    g = build_annulus(5, 5, 1.0, 2.0)
    h1, h2 = g.spacing
    assert h1 == pytest.approx(0.25)
    assert h2 == pytest.approx(math.pi / 8)


def test_annulus_bad_radii():
    with pytest.raises(InvalidRadiiError):
        build_annulus(3, 3, 2.0, 1.0)
    with pytest.raises(InvalidRadiiError):
        build_annulus(3, 3, 0.0, 1.0)


@pytest.mark.parametrize("builder,args,error,match", [
    (build_rectangle, (5, 5, math.nan, 1.0), InvalidExtentsError, "must be finite"),
    (build_rectangle, (5, 5, 1.0, math.nan), InvalidExtentsError, "must be finite"),
    (build_rectangle, (5, 5, math.inf, 1.0), InvalidExtentsError, "must be finite"),
    (build_rectangle, (5, 5, 1.0, math.inf), InvalidExtentsError, "must be finite"),
    (build_annulus, (5, 5, math.nan, 2.0), InvalidRadiiError, "must be finite"),
    (build_annulus, (5, 5, 1.0, math.nan), InvalidRadiiError, "must be finite"),
    (build_annulus, (5, 5, 1.0, math.inf), InvalidRadiiError, "must be finite"),
    (build_annulus, (5, 5, -math.inf, 2.0), InvalidRadiiError, "must be finite"),
    # each of these spacings, or radius, squares to inf or below the normal range
    (build_rectangle, (5, 5, 1e300, 1.0), InvalidExtentsError,
     r"^h1 = 2\.5e\+299 does not square to a positive normal float$"),
    (build_rectangle, (5, 5, 1.0, 1e300), InvalidExtentsError, r"^h2 = 2\.5e\+299 does not"),
    (build_rectangle, (5, 5, 1e-300, 1.0), InvalidExtentsError, r"^h1 = 2\.5e-301 does not"),
    (build_annulus, (5, 5, 1.0, 1e300), InvalidRadiiError, r"^h1 = 2\.5e\+299 does not"),
    (build_annulus, (5, 5, 1e-300, 2e-300), InvalidRadiiError, r"^h1 = 2\.5e-301 does not"),
    (build_annulus, (5, 5, 1.4e154, 1.5e154), InvalidRadiiError, r"^r2 = 1\.5e\+154 does not"),
    # h1^2, h2^2 and r2^2 are normal, but a product of them the metric terms form is not
    (build_annulus, (9, 9, 1e-310, 1.0), InvalidRadiiError,
     r"^h2\^2 r1 = 3\.85531e-312 is not a positive normal float$"),
    (build_annulus, (5, 1001, 1e-300, 8e-154), InvalidRadiiError,
     r"^h2\^2 r\^2 at r = 2e-154 = 9\.8696e-314 is not a positive normal float$"),
], ids=["nan-width", "nan-height", "inf-width", "inf-height", "nan-r1", "nan-r2", "inf-r2",
        "-inf-r1", "huge-h1", "huge-h2", "tiny-h1", "huge-radial-h1", "tiny-radial-h1",
        "huge-r2", "subnormal-h2sq-r1", "subnormal-h2sq-rsq"])
def test_non_finite_extents_and_radii_are_refused(builder, args, error, match):
    with np.errstate(all="raise"):
        with pytest.raises(error, match=match) as exc:
            builder(*args)
    assert exc.value.exit_code == 1


@pytest.mark.parametrize("call", [
    lambda: solve_pivot(build_annulus(5, 1001, 1e-300, 8e-154), 1e-10),
    lambda: direct_coupled_solve(ProblemSpec.from_strings(1, [["1+u1"]], u_star=(1.0,)),
                                 build_annulus(9, 9, 1e-310, 1.0)),
], ids=["pivot", "direct"])
def test_subnormal_metric_divisors_are_refused_before_a_solve(call):
    """The pivot residual divides by h2^2 r^2 on the equation rows and the
    direct solver's diagonal by h2^2 r on every row; each once overflowed
    there (an error under pytest's filterwarnings), and now the builder
    refuses the grid as a config error."""
    with pytest.raises(InvalidRadiiError) as exc:
        call()
    assert exc.value.exit_code == 1


@pytest.mark.parametrize("builder,args", [
    (build_rectangle, (7, 5, 2.0, 1.0)),
    (build_annulus, (6, 9, 1.0, 3.0)),
])
def test_boundary_partition_exhaustive(builder, args):
    g = builder(*args)
    n1, n2 = g.shape
    parts = np.stack(_partition(g))
    assert np.all(parts.sum(axis=0) == 1)           # every node in exactly one part
    for i in range(n1):
        for j in range(n2):
            on_boundary = i in (0, n1 - 1) or j in (0, n2 - 1)
            assert parts[3, i, j] == (not on_boundary)
    assert parts[0].any() and parts[2].any()
    assert np.all(parts[0][0]) and np.all(parts[2][-1])


def test_dirichlet_corners():
    g = build_rectangle(4, 4, 1.0, 1.0)
    gamma1, _, gamma3, _ = _partition(g)
    assert gamma1[0, 0] and gamma1[0, -1]
    assert gamma3[-1, 0] and gamma3[-1, -1]


def test_deterministic_rebuild():
    a = build_annulus(9, 7, 1.0, 2.0)
    b = build_annulus(9, 7, 1.0, 2.0)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.x1, b.x1)
    np.testing.assert_array_equal(a.x2, b.x2)


def test_grid_is_immutable():
    g = build_rectangle(3, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        g.x1[0] = 0.5
    with pytest.raises(ValueError):
        g.x2[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.x1 = np.zeros(3)
