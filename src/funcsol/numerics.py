"""Shared quadrature and differencing kernels on uniform meshes."""

from __future__ import annotations

import math

import numpy as np


def at_least_five_nodes(n_nodes: int) -> int:
    """The node count of a profile mesh: ``n_nodes`` as given, but at least
    5, so that the collocation residual has interior intervals, each with
    two nodes on either side."""
    return max(5, int(n_nodes))


def range_scale(magnitude: float) -> float:
    """A power of two that brings ``magnitude`` to [0.5, 1) when it lies
    outside 2^(+-256), else 1, and at most 2^1023 (a subnormal to >= 2^-51).
    Scaling by it is exact, and the products and squares of values scaled by
    it stay inside the floating point range."""
    exponent = math.frexp(magnitude)[1]
    return math.ldexp(1.0, min(-exponent, 1023)) if abs(exponent) > 256 else 1.0


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """4th-order cumulative integral along axis 0, starting at 0.

    Each interval increment integrates the cubic through the four nearest
    nodes (one-sided stencils on the first and last interval). This is the
    same order as composite Simpson but the node error varies smoothly,
    without the even/odd sawtooth of pairwise Simpson increments, which
    downstream finite-difference checks rely on. Exact for cubics at any
    sample count of at least 4, odd or even.
    """
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if m < 4:
        raise ValueError(f"cumulative_simpson needs a sample count >= 4, got {m}")
    inc = np.empty_like(y[:-1])
    inc[1:-1] = (h / 24.0) * (-y[:-3] + 13.0 * y[1:-2] + 13.0 * y[2:-1] - y[3:])
    inc[0] = (h / 24.0) * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3])
    inc[-1] = (h / 24.0) * (y[-4] - 5.0 * y[-3] + 19.0 * y[-2] + 9.0 * y[-1])
    out = np.zeros_like(y)
    np.cumsum(inc, axis=0, out=out[1:])
    return out


def midpoint_cubic(y: np.ndarray, h: float):
    """Values and slopes (axis -1) at the midpoint of every interval, each
    from the cubic through the four nearest nodes: two on each side of an
    interior interval, one-sided stencils on the first and last interval, as
    in ``cumulative_simpson``. Both are exact for cubics; the slopes are
    4th-order accurate in the interior, 3rd-order at the two ends."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] < 4:
        raise ValueError(f"midpoint_cubic needs a sample count >= 4, got {y.shape[-1]}")
    values = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    slopes = np.empty_like(values)
    y0, y1, y2, y3 = y[..., :-3], y[..., 1:-2], y[..., 2:-1], y[..., 3:]
    values[..., 1:-1] = (-y0 + 9.0 * y1 + 9.0 * y2 - y3) / 16.0
    slopes[..., 1:-1] = (y0 - 27.0 * y1 + 27.0 * y2 - y3) / (24.0 * h)
    for end, nodes, sign in ((0, range(4), 1.0), (-1, range(-1, -5, -1), -1.0)):
        y0, y1, y2, y3 = (y[..., k] for k in nodes)
        values[..., end] = (5.0 * y0 + 15.0 * y1 - 5.0 * y2 + y3) / 16.0
        slopes[..., end] = sign * (-23.0 * y0 + 21.0 * y1 + 3.0 * y2 - y3) / (24.0 * h)
    return values, slopes
