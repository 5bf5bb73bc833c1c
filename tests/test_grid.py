"""Grid, sampled-function and Holder-norm tests."""

import numpy as np
import pytest

from fbmlab.grid import (
    BLOCK_PATHS,
    GridFunction,
    TimeGrid,
    holder_norm,
    holder_seminorm_ensemble,
    lag_reduce,
)


def holder_seminorm(times, values, beta):
    """Oracle: max |f(t_j) - f(t_i)| / (t_j - t_i)^beta over all grid pairs
    i < j, for values of shape (n,) or (n, d) with Euclidean distances."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    best = 0.0
    for i in range(len(times) - 1):
        dt = times[i + 1:] - times[i]
        dv = np.linalg.norm(vals[i + 1:] - vals[i], axis=1)
        best = max(best, (dv / dt**beta).max())
    return float(best)


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
    with pytest.raises(ArithmeticError, match="non-finite"):
        GridFunction(grid, [0, 1, np.nan, 3, 4])


def test_holder_seminorm_linear_function():
    # f(t) = t has beta-seminorm (t-s)^{1-beta} maximized at the full window
    grid = TimeGrid(1.0, 64)
    beta = 0.6
    hn = holder_norm(grid, grid.points, beta)
    assert hn.seminorm_beta == pytest.approx(1.0)
    assert hn.sup_norm == pytest.approx(1.0)


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


def _lag_rows(nodes_first, dt, ufunc, power, exponent):
    """Per-lag oracle of lag_reduce: one lag at a time over all paths."""
    rows = []
    for lag in range(1, nodes_first.shape[0]):
        inc = nodes_first[lag:] - nodes_first[:-lag]
        inc = np.linalg.norm(inc, axis=2) if inc.ndim == 3 else np.abs(inc)
        rows.append(ufunc.reduce(inc**power, axis=0) / (lag * dt) ** exponent)
    return np.array(rows)


# k = 1 and 2 take the 256 lags in one and two groups, 44 in groups of 5
# with a last group of one lag, 128 in pairs, 255 and 256 one lag at a time
@pytest.mark.parametrize("k", [1, 2, 44, 128, 255, 256])
def test_lag_reduce_rows_match_the_per_lag_oracle(k):
    grid = TimeGrid(0.7, 256)  # non-dyadic spacing
    nodes = 0.1 * np.cumsum(np.random.default_rng(k).standard_normal((257, k)), axis=0)
    assert np.array_equal(lag_reduce(nodes, grid.dt, np.maximum, 1.0, 0.6),
                          _lag_rows(nodes, grid.dt, np.maximum, 1.0, 0.6))
    # the GRR sum reduction, to a few ulps: the oracle sums one path pairwise
    q = 2.0 / (0.75 - 0.6)
    np.testing.assert_allclose(lag_reduce(nodes, grid.dt, np.add, q, q * 0.75),
                               _lag_rows(nodes, grid.dt, np.add, q, q * 0.75),
                               rtol=1e-14, atol=0.0)


def test_lag_reduce_vector_rows_in_lag_groups():
    # (n, k, d) nodes with k = 44: lag groups of width 5 on Euclidean increments
    grid = TimeGrid(0.7, 256)
    nodes = np.cumsum(np.random.default_rng(9).standard_normal((257, 44, 3)), axis=0)
    assert BLOCK_PATHS // 44 == 5
    assert np.array_equal(lag_reduce(nodes, grid.dt, np.maximum, 1.0, 0.6),
                          _lag_rows(nodes, grid.dt, np.maximum, 1.0, 0.6))


@pytest.mark.parametrize("lo,hi", [(100, 101), (100, 102), (0, 256)])
def test_holder_norm_windows_equal_the_per_lag_loop(lo, hi):
    # windows of 2, 3 and all 257 nodes, each one lag group
    grid = TimeGrid(0.7, 256)
    vals = np.cumsum(np.random.default_rng(hi - lo).standard_normal(257))
    hn = holder_norm(grid, vals, 0.6, window=(grid.points[lo], grid.points[hi]))
    expect = _ensemble_by_lag(grid.points[lo:hi + 1], vals[None, lo:hi + 1], 0.6)[0]
    assert hn.seminorm_beta == expect


def test_holder_norm_vector_values_on_a_grouped_window():
    grid = TimeGrid(0.7, 256)
    vals = np.cumsum(np.random.default_rng(4).standard_normal((257, 3)), axis=0)
    win = vals[60:190]  # 130 nodes, all 129 lags in one group
    dt = grid.points[61] - grid.points[60]
    expect = max(np.linalg.norm(win[lag:] - win[:-lag], axis=1).max() / (lag * dt) ** 0.6
                 for lag in range(1, len(win)))
    hn = holder_norm(grid, vals, 0.6, window=(grid.points[60], grid.points[189]))
    assert hn.seminorm_beta == expect


@pytest.mark.parametrize("at", [0, 23, 50])
def test_nan_node_gives_a_nan_seminorm_and_leaves_other_paths(at):
    # fail closed: masking the pairs past the last node never turns a
    # non-finite pair into 0
    grid = TimeGrid(0.7, 50)
    paths = np.cumsum(np.random.default_rng(at).standard_normal((300, 51)), axis=1)
    clean = holder_seminorm_ensemble(grid.points, paths, 0.6)
    bad = (7, 290)  # one in a full block, one in the short last block
    paths[bad, at] = np.nan
    ens = holder_seminorm_ensemble(grid.points, paths, 0.6)
    assert np.isnan(ens[list(bad)]).all()
    keep = np.setdiff1d(np.arange(300), bad)
    assert np.array_equal(ens[keep], clean[keep])
    window = (grid.points[max(at - 5, 0)], grid.points[min(at + 5, 50)])
    for i in bad:
        assert np.isnan(holder_norm(grid, paths[i], 0.6).seminorm_beta)
        assert np.isnan(holder_norm(grid, paths[i], 0.6, window=window).seminorm_beta)
    assert holder_norm(grid, paths[8], 0.6).seminorm_beta == clean[8]
