"""Grid, sampled-function and Holder-norm tests."""

import numpy as np
import pytest

from fbmlab.grid import (
    GridFunction,
    TimeGrid,
    holder_norm,
    holder_seminorm,
    holder_seminorm_ensemble,
)


def test_time_grid_basic():
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    np.testing.assert_allclose(grid.points, [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(grid.midpoints, [0.25, 0.75, 1.25, 1.75])
    assert grid.index_of(1.5) == 3


def test_time_grid_rejects_bad_params():
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 4).index_of(0.3)


def test_grid_function_interpolates():
    grid = TimeGrid(1.0, 4)
    f = GridFunction(grid, grid.points**2)
    assert f(0.5) == 0.25
    # midpoint of a cell interpolates linearly
    assert f(0.375) == pytest.approx(0.5 * (0.25**2 + 0.5**2))


def test_grid_function_shape_and_finiteness():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(grid, [0, 1, np.nan, 3, 4])


def test_holder_seminorm_linear_function():
    # f(t) = t has beta-seminorm (t-s)^{1-beta} maximized at the full window
    grid = TimeGrid(1.0, 64)
    beta = 0.6
    hn = holder_norm(grid, grid.points, beta)
    assert hn.seminorm_beta == pytest.approx(1.0)
    assert hn.sup_norm == pytest.approx(1.0)
    assert hn.total == pytest.approx(2.0)


def test_holder_seminorm_window():
    grid = TimeGrid(1.0, 10)
    vals = grid.points.copy()
    vals[7:] = vals[6]  # flat after t = 0.6
    hn = holder_norm(grid, vals, 0.5, window=(0.6, 1.0))
    assert hn.seminorm_beta == 0.0


def test_holder_seminorm_matches_bruteforce():
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 1.0, 20)
    vals = rng.standard_normal(20)
    beta = 0.7
    brute = max(
        abs(vals[j] - vals[i]) / (times[j] - times[i]) ** beta
        for i in range(20) for j in range(i + 1, 20)
    )
    assert holder_seminorm(times, vals, beta) == pytest.approx(brute)


def test_holder_ensemble_matches_per_path():
    rng = np.random.default_rng(1)
    grid = TimeGrid(1.0, 32)
    paths = rng.standard_normal((5, 33))
    ens = holder_seminorm_ensemble(grid.points, paths, 0.6)
    for i in range(5):
        # dyadic nodes: every t_j - t_i equals (j - i) dt exactly
        assert ens[i] == holder_seminorm(grid.points, paths[i], 0.6)
        assert ens[i] == holder_norm(grid, paths[i], 0.6).seminorm_beta


def _ensemble_by_lag(times, paths, beta):
    """The unblocked per-lag loop that the blocked kernel replaced."""
    n_paths, n = paths.shape
    dt = times[1] - times[0]
    best = np.zeros(n_paths)
    for lag in range(1, n):
        dv = np.abs(paths[:, lag:] - paths[:, :-lag]).max(axis=1)
        np.maximum(best, dv / (lag * dt) ** beta, out=best)
    return best


@pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 600])
def test_holder_ensemble_bit_identical_across_block_seams(n_paths):
    grid = TimeGrid(0.7, 50)  # non-dyadic spacing
    paths = np.cumsum(np.random.default_rng(n_paths).standard_normal((n_paths, 51)), axis=1)
    ens = holder_seminorm_ensemble(grid.points, paths, 0.6)
    assert np.array_equal(ens, _ensemble_by_lag(grid.points, paths, 0.6))
    for i in (0, n_paths // 2, n_paths - 1):
        assert ens[i] == holder_norm(grid, paths[i], 0.6).seminorm_beta


def test_holder_norm_vector_values_match_per_lag_norm():
    grid = TimeGrid(0.7, 40)
    vals = np.cumsum(np.random.default_rng(3).standard_normal((41, 3)), axis=0)
    a, b = grid.points[4], grid.points[33]
    win = vals[4:34]
    expect = max(np.linalg.norm(win[lag:] - win[:-lag], axis=1).max()
                 / (lag * (grid.points[5] - grid.points[4])) ** 0.6
                 for lag in range(1, len(win)))
    hn = holder_norm(grid, vals, 0.6, window=(a, b))
    assert hn.seminorm_beta == expect
    assert hn.seminorm_beta == pytest.approx(
        holder_seminorm(grid.points[4:34], win, 0.6), rel=1e-12)
