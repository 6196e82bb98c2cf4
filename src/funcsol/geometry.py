"""Desk-scale 2D tensor-product grids with a three-way boundary partition.

Two families are supported: a cartesian rectangle and a polar quarter
annulus. The boundary splits into an inflow Dirichlet part (gamma1), an
insulated Neumann part (gamma2) and an outflow Dirichlet part (gamma3).
Corners shared by a Dirichlet edge and a Neumann edge take the Dirichlet
tag, which keeps the discrete systems well posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridDimensionError, InvalidExtentsError, InvalidRadiiError

CARTESIAN = "cartesian"
POLAR = "polar"

INTERIOR = 0
GAMMA1 = 1
GAMMA2 = 2
GAMMA3 = 3


@dataclass(frozen=True)
class Grid:
    """Immutable tensor grid: node coordinates per axis plus per-node tags."""

    coord_system: str
    x1: np.ndarray          # axis-1 node coordinates (x, or radius), length n1
    x2: np.ndarray          # axis-2 node coordinates (y, or angle), length n2
    node_tags: np.ndarray   # (n1, n2) int8 tags

    def __post_init__(self):
        for arr in (self.x1, self.x2, self.node_tags):
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

    def mask(self, tag):
        return self.node_tags == tag

    @property
    def unknown_mask(self):
        """Nodes carrying an equation row: interior plus Neumann edges."""
        return (self.node_tags == INTERIOR) | (self.node_tags == GAMMA2)


def _check_dims(n1, n2):
    if n1 < 3 or n2 < 3:
        raise GridDimensionError(f"grid needs at least 3 nodes per axis, got {n1}x{n2}")


def _tags(n1, n2):
    """First axis-1 edge gamma1, last gamma3, both axis-2 edges gamma2; the
    corners take the Dirichlet tag."""
    tags = np.zeros((n1, n2), dtype=np.int8)
    tags[:, [0, -1]] = GAMMA2
    tags[0, :] = GAMMA1
    tags[-1, :] = GAMMA3
    return tags


def build_rectangle(n1: int, n2: int, width: float, height: float) -> Grid:
    """Rectangle [0,width]x[0,height]: left edge gamma1, right edge gamma3,
    bottom and top gamma2; corners take the Dirichlet tag."""
    _check_dims(n1, n2)
    if width <= 0 or height <= 0:
        raise InvalidExtentsError(f"width and height must be positive, got {width}, {height}")
    return Grid(CARTESIAN, np.linspace(0.0, width, n1), np.linspace(0.0, height, n2),
                _tags(n1, n2))


def build_annulus(nr: int, ntheta: int, r1: float, r2: float) -> Grid:
    """Quarter annulus r in [r1,r2], angle in [0,pi/2]: inner arc gamma1,
    outer arc gamma3, the two straight radial edges gamma2."""
    _check_dims(nr, ntheta)
    if r1 <= 0 or r2 <= r1:
        raise InvalidRadiiError(f"need 0 < r1 < r2, got r1={r1}, r2={r2}")
    return Grid(POLAR, np.linspace(r1, r2, nr), np.linspace(0.0, math.pi / 2.0, ntheta),
                _tags(nr, ntheta))
