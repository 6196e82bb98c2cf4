import dataclasses
import math

import numpy as np
import pytest

from funcsol.errors import GridDimensionError, InvalidExtentsError, InvalidRadiiError
from funcsol.geometry import Grid, build_annulus, build_rectangle
from funcsol.pivot import dirichlet_targets


def _partition(g):
    """Node masks (gamma1, gamma2, gamma3, interior) read off the grid's
    equation rows and its Dirichlet data."""
    unknown = g.unknown_mask
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
    assert g.unknown_mask.shape == (3, 3)
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
    assert not g.unknown_mask[0].any() and np.all(d[0] == 0.0)      # inner arc
    assert not g.unknown_mask[-1].any() and np.all(d[-1] == 2.0)    # outer arc
    assert g.unknown_mask[1, 0] and g.unknown_mask[1, -1]           # radial edges
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
    np.testing.assert_array_equal(a.unknown_mask, b.unknown_mask)
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
    g.unknown_mask[1, 1] = False                    # a fresh array per call
    assert g.unknown_mask[1, 1]
