"""Desk-scale 2D tensor-product grids with a three-way boundary partition.

Two families are supported: a cartesian rectangle and a polar quarter
annulus. The boundary splits into an inflow Dirichlet part (gamma1), an
insulated Neumann part (gamma2) and an outflow Dirichlet part (gamma3),
laid out by the rows of the (n1, n2) node array: gamma1 is the first row
(i = 0), gamma3 the last (i = n1 - 1), and gamma2 the end columns
(j = 0, n2 - 1) of the rows between. The corners thus belong to the
Dirichlet parts, which keeps the discrete systems well posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridDimensionError, InvalidExtentsError, InvalidRadiiError

CARTESIAN = "cartesian"
POLAR = "polar"
MIN_AXIS_NODES = 3      # the fewest nodes an axis may have: two edges and one interior node


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable tensor grid: node coordinates per axis."""

    coord_system: str
    x1: np.ndarray          # axis-1 node coordinates (x, or radius), length n1
    x2: np.ndarray          # axis-2 node coordinates (y, or angle), length n2

    def __post_init__(self):
        for arr in (self.x1, self.x2):
            arr.setflags(write=False)

    @property
    def n1(self):
        return self.x1.size

    @property
    def n2(self):
        return self.x2.size

    @property
    def spacing(self):
        return (float(self.x1[1] - self.x1[0]), float(self.x2[1] - self.x2[0]))

    @property
    def shape(self):
        return (self.n1, self.n2)


def _check_dims(n1, n2):
    if n1 < MIN_AXIS_NODES or n2 < MIN_AXIS_NODES:
        raise GridDimensionError(
            f"grid needs at least {MIN_AXIS_NODES} nodes per axis, got {n1}x{n2}")


def _squarable(grid: Grid, error, **lengths) -> Grid:
    """``grid``, once its spacings h1, h2 and ``lengths`` square to positive
    normal floats, and on the annulus so do the least products of them the
    metric terms form: h2^2 r on the inner arc and h2^2 r^2 on the first
    equation row. The stencils divide by each of these."""
    for name, value in dict(zip(("h1", "h2"), grid.spacing), **lengths).items():
        if not 2.0**-1022 <= value * value < math.inf:       # the smallest normal float
            raise error(f"{name} = {value:.6g} does not square to a positive normal float")
    if grid.coord_system == POLAR:
        h2sq, r1, r = grid.spacing[1] ** 2, float(grid.x1[0]), float(grid.x1[1])
        for name, value in (("h2^2 r1", h2sq * r1), (f"h2^2 r^2 at r = {r:.6g}", h2sq * r * r)):
            if not 2.0**-1022 <= value < math.inf:
                raise error(f"{name} = {value:.6g} is not a positive normal float")
    return grid


def build_rectangle(n1: int, n2: int, width: float, height: float) -> Grid:
    """Rectangle [0,width]x[0,height]: left edge gamma1, right edge gamma3,
    bottom and top gamma2."""
    _check_dims(n1, n2)
    if not (0.0 < width < math.inf and 0.0 < height < math.inf):
        raise InvalidExtentsError(
            f"width and height must be finite and positive, got {width}, {height}")
    return _squarable(Grid(CARTESIAN, np.linspace(0.0, width, n1), np.linspace(0.0, height, n2)),
                      InvalidExtentsError)


def build_annulus(nr: int, ntheta: int, r1: float, r2: float) -> Grid:
    """Quarter annulus r in [r1,r2], angle in [0,pi/2]: inner arc gamma1,
    outer arc gamma3, the two straight radial edges gamma2."""
    _check_dims(nr, ntheta)
    if not 0.0 < r1 < r2 < math.inf:
        raise InvalidRadiiError(f"r1 and r2 must be finite, with 0 < r1 < r2, got r1={r1}, r2={r2}")
    return _squarable(Grid(POLAR, np.linspace(r1, r2, nr), np.linspace(0.0, math.pi / 2.0, ntheta)),
                      InvalidRadiiError, r2=r2)
