"""Shared quadrature and differencing kernels on uniform meshes."""

from __future__ import annotations

import math

import numpy as np


def at_least_five_nodes(n_nodes: int) -> int:
    """The node count of a profile mesh: ``n_nodes`` as given, but at least
    5, what the 5-point derivative stencils need."""
    return max(5, int(n_nodes))


def range_scale(magnitude: float) -> float:
    """A power of two that brings ``magnitude`` to [0.5, 1) when it lies
    outside 2^(+-256), else 1. Scaling by it is exact, and the products and
    squares of values scaled by it stay inside the floating point range."""
    exponent = math.frexp(magnitude)[1]
    return math.ldexp(1.0, -exponent) if abs(exponent) > 256 else 1.0


def cumulative_simpson(y: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """4th-order cumulative integral starting at 0.

    Each interval increment integrates the cubic through the four nearest
    nodes (one-sided stencils on the first and last interval). This is the
    same order as composite Simpson but the node error varies smoothly,
    without the even/odd sawtooth of pairwise Simpson increments, which
    downstream finite-difference checks rely on. Exact for cubics at any
    sample count of at least 4, odd or even.
    """
    y = np.moveaxis(np.asarray(y, dtype=float), axis, 0)
    m = y.shape[0]
    if m < 4:
        raise ValueError(f"cumulative_simpson needs a sample count >= 4, got {m}")
    inc = np.empty_like(y[:-1])
    inc[1:-1] = (h / 24.0) * (-y[:-3] + 13.0 * y[1:-2] + 13.0 * y[2:-1] - y[3:])
    inc[0] = (h / 24.0) * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3])
    inc[-1] = (h / 24.0) * (y[-4] - 5.0 * y[-3] + 19.0 * y[-2] + 9.0 * y[-1])
    out = np.zeros_like(y)
    np.cumsum(inc, axis=0, out=out[1:])
    return np.moveaxis(out, 0, axis)


_FWD0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_FWD1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def derivative_4th(y: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """4th-order first derivative on a uniform mesh (5-point one-sided ends)."""
    y = np.moveaxis(np.asarray(y, dtype=float), axis, -1)
    if y.shape[-1] < 5:
        raise ValueError("derivative_4th needs at least 5 samples")
    d = np.empty_like(y)
    d[..., 2:-2] = (y[..., :-4] - 8.0 * y[..., 1:-3] + 8.0 * y[..., 3:-1] - y[..., 4:]) / (12.0 * h)
    d[..., 0] = y[..., :5] @ _FWD0 / h
    d[..., 1] = y[..., :5] @ _FWD1 / h
    d[..., -1] = -(y[..., -5:][..., ::-1] @ _FWD0) / h
    d[..., -2] = -(y[..., -5:][..., ::-1] @ _FWD1) / h
    return np.moveaxis(d, -1, axis)


def midpoint_values_4th(y: np.ndarray) -> np.ndarray:
    """Cubic-accurate values at interior interval midpoints (axis -1).

    For nodes y_0..y_{m-1} this covers the midpoints of intervals
    1..m-3, i.e. those with two neighbours on each side.
    """
    y = np.asarray(y, dtype=float)
    return (-y[..., :-3] + 9.0 * y[..., 1:-2] + 9.0 * y[..., 2:-1] - y[..., 3:]) / 16.0


def midpoint_derivatives_4th(y: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative at interior interval midpoints (axis -1)."""
    y = np.asarray(y, dtype=float)
    return (y[..., :-3] - 27.0 * y[..., 1:-2] + 27.0 * y[..., 2:-1] - y[..., 3:]) / (24.0 * h)
