"""Uniform time grids, sampled functions and discrete Holder norms.

Everything downstream (fBm generation, pathwise solvers, transport metrics)
indexes into one shared uniform grid on [0, T].  Holder quantities are
computed over grid-point pairs only, so they are lower bounds for the
continuum norms; inequality checks built on them are necessary-condition
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Paths per block of the ensemble kernels (Holder lag kernel, circulant
#: sampler): a block and its work buffer stay in cache.
BLOCK_PATHS = 256


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [0, t_max] with n_steps cells."""

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
        return 0.5 * (self.points[:-1] + self.points[1:])

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Index of the grid node equal to t (up to tol); raises otherwise."""
        idx = int(round(t / self.dt))
        if idx < 0 or idx > self.n_steps or abs(self.points[idx] - t) > tol:
            raise ValueError(f"t={t} is not a grid node of {self!r}")
        return idx


@dataclass(frozen=True)
class GridFunction:
    """One scalar component sampled at the nodes of a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with "
                f"{self.grid.n_steps + 1} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridFunction values must be finite")
        object.__setattr__(self, "values", vals)

    def __call__(self, t: float) -> float:
        """Linear interpolation within the grid range."""
        return float(np.interp(t, self.grid.points, self.values))


@dataclass(frozen=True)
class HolderNorm:
    """Sup norm and beta-Holder seminorm of a sampled path over a window."""

    window: tuple[float, float]
    sup_norm: float
    seminorm_beta: float
    beta: float

    @property
    def total(self) -> float:
        return self.sup_norm + self.seminorm_beta


def holder_seminorm(times: np.ndarray, values: np.ndarray, beta: float) -> float:
    """max |f(t_j) - f(t_i)| / (t_j - t_i)^beta over all grid pairs i < j.

    values may be (n,) or (n, d); distances are Euclidean in the state
    dimension.  O(n^2), chunked to bound memory.
    """
    n = len(times)
    if n < 2:
        return 0.0
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    best = 0.0
    chunk = max(1, 2**22 // max(n, 1))
    for lo in range(0, n - 1, chunk):
        hi = min(lo + chunk, n - 1)
        # pairs (i, j) with lo <= i < hi, j > i
        for i in range(lo, hi):
            dt = times[i + 1:] - times[i]
            dv = np.linalg.norm(vals[i + 1:] - vals[i], axis=1)
            ratio = dv / dt**beta
            m = ratio.max(initial=0.0)
            if m > best:
                best = m
    return float(best)


def holder_norm(
    grid: TimeGrid,
    values: np.ndarray,
    beta: float,
    window: tuple[float, float] | None = None,
) -> HolderNorm:
    """Discrete sup norm and beta-Holder seminorm over a window [a, b].

    The window endpoints must lie on grid nodes.  The grid computation is a
    lower bound for the continuum norm (pairs off the grid are not seen).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if window is None:
        a, b = 0.0, grid.t_max
    else:
        a, b = window
    if not (0.0 <= a < b <= grid.t_max + 1e-12):
        raise ValueError(f"window [{a}, {b}] outside grid range [0, {grid.t_max}]")
    ia, ib = grid.index_of(a), grid.index_of(b)
    times = grid.points[ia:ib + 1]
    vals = np.asarray(values, dtype=float)[ia:ib + 1]
    v2 = vals if vals.ndim > 1 else vals[:, None]
    sup = float(np.linalg.norm(v2, axis=1).max())
    nodes_first = v2 if v2.shape[1] == 1 else v2[:, None, :]
    semi = float(_lag_seminorms(nodes_first, times[1] - times[0], beta)[0])
    return HolderNorm(window=(a, b), sup_norm=sup, seminorm_beta=semi, beta=beta)


def _lag_seminorms(nodes_first: np.ndarray, dt: float, beta: float) -> np.ndarray:
    """max over lags and nodes of |v[i + lag] - v[i]| / (lag dt)^beta for
    the k paths in the columns of nodes_first, shaped (n_nodes, k) or
    (n_nodes, k, d) with Euclidean increments over d.  Each (lag dt)^beta is
    a scalar power that divides (an array power or an inverse moves ulps).
    """
    n = nodes_first.shape[0]
    buf = np.empty_like(nodes_first)
    lag_max = np.empty((n - 1, nodes_first.shape[1]))
    scale = np.empty((n - 1, 1))
    for lag in range(1, n):
        inc = np.subtract(nodes_first[lag:], nodes_first[:-lag], out=buf[:n - lag])
        if inc.ndim == 3:
            inc = np.linalg.norm(inc, axis=2)
        else:
            np.abs(inc, out=inc)
        np.maximum.reduce(inc, axis=0, out=lag_max[lag - 1])
        scale[lag - 1] = (lag * dt) ** beta
    return np.max(lag_max / scale, axis=0, initial=0.0)


def holder_seminorm_ensemble(times: np.ndarray, paths: np.ndarray, beta: float) -> np.ndarray:
    """beta-Holder seminorm of many scalar paths at once.

    paths has shape (n_paths, n_nodes) on a uniform grid.  Returns one
    seminorm per path, equal bit for bit to holder_norm on each row, from
    blocks of BLOCK_PATHS paths transposed to (n_nodes, block).
    """
    n_paths = paths.shape[0]
    dt = times[1] - times[0]
    out = np.empty(n_paths)
    for lo in range(0, n_paths, BLOCK_PATHS):
        block = np.ascontiguousarray(paths[lo:lo + BLOCK_PATHS].T)
        out[lo:lo + BLOCK_PATHS] = _lag_seminorms(block, dt, beta)
    return out
