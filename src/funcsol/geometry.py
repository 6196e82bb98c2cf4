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

    @property
    def unknown_mask(self):
        """Nodes carrying an equation row: every row but the first (gamma1)
        and the last (gamma3)."""
        mask = np.ones(self.shape, dtype=bool)
        mask[[0, -1]] = False
        return mask


def _check_dims(n1, n2):
    if n1 < 3 or n2 < 3:
        raise GridDimensionError(f"grid needs at least 3 nodes per axis, got {n1}x{n2}")


def build_rectangle(n1: int, n2: int, width: float, height: float) -> Grid:
    """Rectangle [0,width]x[0,height]: left edge gamma1, right edge gamma3,
    bottom and top gamma2."""
    _check_dims(n1, n2)
    if not (math.isfinite(width) and math.isfinite(height)):
        raise InvalidExtentsError(f"width and height must be finite, got {width}, {height}")
    if width <= 0 or height <= 0:
        raise InvalidExtentsError(f"width and height must be positive, got {width}, {height}")
    return Grid(CARTESIAN, np.linspace(0.0, width, n1), np.linspace(0.0, height, n2))


def build_annulus(nr: int, ntheta: int, r1: float, r2: float) -> Grid:
    """Quarter annulus r in [r1,r2], angle in [0,pi/2]: inner arc gamma1,
    outer arc gamma3, the two straight radial edges gamma2."""
    _check_dims(nr, ntheta)
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise InvalidRadiiError(f"r1 and r2 must be finite, got r1={r1}, r2={r2}")
    if r1 <= 0 or r2 <= r1:
        raise InvalidRadiiError(f"need 0 < r1 < r2, got r1={r1}, r2={r2}")
    return Grid(POLAR, np.linspace(r1, r2, nr), np.linspace(0.0, math.pi / 2.0, ntheta))
