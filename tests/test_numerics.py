import numpy as np
import pytest

from funcsol.numerics import (
    at_least_five_nodes,
    cumulative_simpson,
    midpoint_cubic,
)


def test_at_least_five_nodes():
    assert at_least_five_nodes(1000) == 1000
    assert at_least_five_nodes(1001) == 1001
    assert at_least_five_nodes(2) == 5


def test_cumulative_exact_for_cubics():
    x = np.linspace(0.0, 1.0, 11)
    h = x[1] - x[0]
    np.testing.assert_allclose(cumulative_simpson(x**3, h), x**4 / 4.0, atol=1e-15)


def test_cumulative_matches_analytic():
    x = np.linspace(0.0, 1.0, 101)
    c = cumulative_simpson(np.exp(x), x[1] - x[0])
    assert np.max(np.abs(c - (np.exp(x) - 1.0))) < 1e-9


def test_cumulative_error_is_smooth():
    # the node error must not alternate between even and odd nodes, or
    # finite differences of the result pick up a spurious h^3 sawtooth
    x = np.linspace(0.0, 1.0, 201)
    err = cumulative_simpson(np.exp(x), x[1] - x[0]) - (np.exp(x) - 1.0)
    second_diff = np.abs(np.diff(err, 2)).max()
    assert second_diff < 10.0 * np.abs(err).max()


def test_midpoint_formulas_exact_for_cubics():
    # every interval, the one-sided first and last ones included
    for m in (4, 5, 9):
        x = np.linspace(0.0, 1.0, m)
        mids = 0.5 * (x[:-1] + x[1:])
        values, slopes = midpoint_cubic(np.stack([x**3 - x, 2 * x**3]), x[1] - x[0])
        np.testing.assert_allclose(values, [mids**3 - mids, 2 * mids**3], rtol=0, atol=1e-14)
        np.testing.assert_allclose(slopes, [3 * mids**2 - 1, 6 * mids**2], rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [4, 5, 6, 8, 1000])
def test_cumulative_exact_for_cubics_at_any_sample_count(m):
    x = np.linspace(0.0, 1.0, m)
    c = cumulative_simpson(x**3 - x, x[1] - x[0])
    np.testing.assert_allclose(c, x**4 / 4.0 - x**2 / 2.0, rtol=0, atol=1e-15)


def test_too_few_samples_rejected():
    with pytest.raises(ValueError, match=">= 4"):
        cumulative_simpson(np.zeros(3), 0.1)
    with pytest.raises(ValueError, match=">= 4"):
        midpoint_cubic(np.zeros(3), 0.1)
