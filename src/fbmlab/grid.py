"""Uniform time grids, sampled functions and discrete Holder norms.

Everything downstream (fBm generation, pathwise solvers, transport metrics)
indexes into one shared uniform grid on [0, T], and reads cell averages of
node values from `cell_values`.  Node values handed in with a grid pass one
shape rule, `TimeGrid.nodes` (ValueError), and those a path class keeps one
finiteness rule, `require_finite` (ArithmeticError).  Holder quantities are
computed over grid-point pairs only, so they are lower bounds for the
continuum norms; inequality checks built on them are necessary-condition
checks.  `lag_reduce` holds the one loop over lags: the Holder seminorm and
the Garsia-Rodemich-Rumsey double sum of fbmlab.concentration are two
reductions of it, run on ensembles in blocks of BLOCK_PATHS (`by_blocks`).
It walks the lags in groups of BLOCK_PATHS // k for a block of k paths, so a
full block takes one lag per step and a single path or window all its lags
in one slab, with the slab held to BLOCK_PATHS x n_nodes values either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Paths per block of the ensemble kernels (lag reductions, circulant
#: sampler): a block and its work buffer stay in cache.
BLOCK_PATHS = 256


def cell_values(v: np.ndarray) -> np.ndarray:
    """Cell averages (v[k] + v[k+1]) / 2 of node values along the first axis."""
    return 0.5 * (v[:-1] + v[1:])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [0, t_max] with n_steps cells; two grids
    are equal when their (t_max, n_steps) are."""

    t_max: float
    n_steps: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.t_max) or self.t_max <= 0.0:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        pts = np.linspace(0.0, self.t_max, self.n_steps + 1)
        object.__setattr__(self, "points", pts)

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    @property
    def midpoints(self) -> np.ndarray:
        return cell_values(self.points)

    def index_of(self, t: float) -> int:
        """Index of the grid node equal to t (up to 1e-9); raises otherwise."""
        idx = int(round(t / self.dt))
        if idx < 0 or idx > self.n_steps or abs(self.points[idx] - t) > 1e-9:
            raise ValueError(f"t={t} is not a grid node of {self!r}")
        return idx

    def nodes(self, what: str, values, axis: int = 0, ndim: int | None = None) -> np.ndarray:
        """values as a float array with one entry per grid node along `axis`
        (and `ndim` axes when given); ValueError naming `what` otherwise."""
        return _on_nodes(what, values, self.n_steps + 1, axis, ndim)

    def window(self, a: float, b: float) -> tuple[int, int]:
        """Node indices (ia, ib) of the window [a, b]: both ends are grid
        nodes (`index_of`, so up to 1e-9) and a < b; raises ValueError
        otherwise."""
        ia, ib = self.index_of(a), self.index_of(b)
        if ib <= ia:
            raise ValueError(f"need a < b on the grid, got a={a}, b={b}")
        return ia, ib


def _on_nodes(what: str, values, n_nodes: int, axis: int, ndim: int | None) -> np.ndarray:
    """The one node-axis rule behind TimeGrid.nodes, for n_nodes nodes."""
    vals = np.asarray(values, dtype=float)
    # shape[axis:][:1] is () when the array has no such axis
    if vals.shape[axis:][:1] != (n_nodes,) or ndim not in (None, vals.ndim):
        raise ValueError(f"{what} values of shape {vals.shape} are not on a grid "
                         f"of {n_nodes} nodes")
    return vals


def require_finite(what: str, values: np.ndarray) -> None:
    """ArithmeticError (a numerical failure) unless every value is finite."""
    if not np.all(np.isfinite(values)):
        raise ArithmeticError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class GridFunction:
    """One scalar component sampled at the nodes of a TimeGrid; a shape off
    the grid is a ValueError, a non-finite value a numerical failure
    (ArithmeticError)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = self.grid.nodes("GridFunction", self.values, ndim=1)
        require_finite("GridFunction", vals)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class HolderNorm:
    """Sup norm and beta-Holder seminorm of a sampled path over a window."""

    sup_norm: float
    seminorm_beta: float


def holder_norm(
    grid: TimeGrid,
    values: np.ndarray,
    beta: float,
    window: tuple[float, float] | None = None,
) -> HolderNorm:
    """Discrete sup norm and beta-Holder seminorm over a window [a, b] that
    `TimeGrid.window` accepts, the whole grid by default.

    The grid computation is a lower bound for the continuum norm (pairs off
    the grid are not seen).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    ia, ib = (0, grid.n_steps) if window is None else grid.window(*window)
    times = grid.points[ia:ib + 1]
    vals = grid.nodes("path", values)[ia:ib + 1]
    v2 = vals if vals.ndim > 1 else vals[:, None]
    sup = float(np.linalg.norm(v2, axis=1).max())
    nodes_first = v2 if v2.shape[1] == 1 else v2[:, None, :]
    semi = float(_lag_seminorms(nodes_first, times[1] - times[0], beta)[0])
    return HolderNorm(sup_norm=sup, seminorm_beta=semi)


def lag_reduce(nodes_first: np.ndarray, dt: float, ufunc: np.ufunc, power: float,
               exponent: float) -> np.ndarray:
    """The one loop over lags: row lag - 1 of the result holds, for the k
    paths in the columns of nodes_first and each lag in 1 .. n_nodes - 1,

        ufunc.reduce over i of |v[i + lag] - v[i]|**power / (lag dt)**exponent.

    nodes_first is shaped (n_nodes, k), or (n_nodes, k, d) with Euclidean
    increments over d.  The lags run in groups of width
    max(1, BLOCK_PATHS // k): one group is one slab of increments for all its
    lags at once, a strided view over a zero-padded copy of the nodes, with
    the pairs past the last node (i + lag >= n_nodes) set to 0 before the
    power and the reduction.  So a block of BLOCK_PATHS paths runs one lag
    at a time, a single path all its lags in one group, and the slab never
    holds more than BLOCK_PATHS x n_nodes increments (times d).  The
    reduction runs over the nodes, on rows of g lags x k paths.  Each
    (lag dt)**exponent is a Python-float power that divides its row (an
    array power or an inverse moves ulps).  A max reduction is the same bit
    for bit in any grouping, and a sum adds the nodes in order in any
    grouping (numpy's own sum of one path would add them pairwise, a few
    ulps apart).
    """
    n, k = nodes_first.shape[:2]
    width = max(1, min(BLOCK_PATHS // k, n - 1))
    # width 1 (a full block) needs no padding and reads its nodes in place
    padded = np.ascontiguousarray(nodes_first, dtype=float) if width == 1 else np.concatenate(
        [nodes_first, np.zeros((width - 1,) + nodes_first.shape[1:])])
    # beyond[i, j]: node i + j is past the last node, so the pair
    # (i - lag, i + j) of the group starting at lag does not exist
    beyond = np.add.outer(np.arange(n), np.arange(width)) >= n
    buf = np.empty(width * nodes_first.size)
    out = np.empty((n - 1, k))
    strides = (padded.strides[0],) + padded.strides
    for lag in range(1, n, width):
        g, m = min(width, n - lag), n - lag
        # ahead[i, j] = padded[i + lag + j], a view; the reduction over i
        # accumulates contiguous rows of g lags x k paths
        ahead = np.ndarray((m, g) + padded.shape[1:], float, padded, lag * strides[0], strides)
        inc = np.subtract(ahead, padded[:m, None], out=np.ndarray(ahead.shape, float, buf))
        if inc.ndim == 4:
            inc = np.linalg.norm(inc, axis=3)
        else:
            np.abs(inc, out=inc)
        if g > 1:
            np.copyto(inc, 0.0, where=beyond[lag:, :g, None])
        if power != 1.0:
            np.power(inc, power, out=inc)
        ufunc.reduce(inc, axis=0, out=out[lag - 1:lag - 1 + g])
    return np.divide(out, _lag_divisors(n, dt, exponent), out=out)


@lru_cache(maxsize=64)
def _lag_divisors(n: int, dt: float, exponent: float) -> np.ndarray:
    """The column of Python-float powers (lag dt)**exponent, lag = 1 .. n - 1,
    read-only because it is cached."""
    col = np.array([(lag * dt) ** exponent for lag in range(1, n)])[:, None]
    col.flags.writeable = False
    return col


def _lag_seminorms(nodes_first: np.ndarray, dt: float, beta: float) -> np.ndarray:
    """max over lags and nodes of |v[i + lag] - v[i]| / (lag dt)^beta, per
    column of nodes_first (see lag_reduce)."""
    return np.max(lag_reduce(nodes_first, dt, np.maximum, 1.0, beta), axis=0, initial=0.0)


def by_blocks(paths: np.ndarray, reduce) -> np.ndarray:
    """reduce(block) per block of BLOCK_PATHS rows of an (n_paths, n_nodes)
    ensemble, the block transposed to (n_nodes, block); one value per path."""
    n_paths = paths.shape[0]
    out = np.empty(n_paths)
    for lo in range(0, n_paths, BLOCK_PATHS):
        out[lo:lo + BLOCK_PATHS] = reduce(np.ascontiguousarray(paths[lo:lo + BLOCK_PATHS].T))
    return out


def holder_seminorm_ensemble(times: np.ndarray, paths: np.ndarray, beta: float) -> np.ndarray:
    """beta-Holder seminorm of many scalar paths at once.

    paths has shape (n_paths, n_nodes) on the uniform grid of nodes `times`
    (else ValueError).  Returns one seminorm per path, equal bit for bit to
    holder_norm on each row.
    """
    paths = _on_nodes("path", paths, len(times), 1, 2)
    dt = times[1] - times[0]
    return by_blocks(paths, lambda block: _lag_seminorms(block, dt, beta))
