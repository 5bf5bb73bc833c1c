"""Fractional Brownian motion with Hurst index in (1/2, 1).

Three interchangeable generators produce m-component fBm paths on a uniform
grid:

* ``sample_fbm_cholesky`` -- exact in law, O(n^3), the accuracy anchor;
* ``sample_fbm_circulant`` -- circulant embedding of the increment process
  (fractional Gaussian noise; Davies and Harte 1987, Wood and Chan 1994),
  exact in law and O(n log n): the embedding's Gaussian vector is Hermitian,
  so each path's fGn is one real-output transform, ``np.fft.hfft``, of its
  n + 1 half spectrum (taken as irfft of the conjugate half spectrum),
  never a complex array of width 2n;
* ``sample_fbm_transfer`` -- discretizes the Volterra representation
  B_t = int_0^t K(t,s) dW_s, returning the underlying Wiener increments so
  that drift-perturbation experiments can act on W directly.

The module also evaluates the Volterra kernel K(t,s) and its t-derivative,
both as careful single-point quadratures and as fast vectorized closed forms
through the Gauss hypergeometric function.  `transfer_from_wiener_increments`
is the one place the discretized kernel is applied to increments: the
transfer sampler, `fractional.operator_kh` and `sde.drift_coupled_pair`
all go through it.

Random streams (layout 2).  Every normal a sampler draws comes from one
Philox per (seed, component), keyed by `SeedSequence(seed, spawn_key=(0,
component))`.  Path i is the counter block (0, 0, i, 0) of that Philox
(`component_rng`), so each path is addressable on its own and the single-path
and batch samplers agree bit for bit.  Ensembles other than the primary one
of a seed -- the independent partner, the esti-int window draw, one ensemble
per large-time horizon index -- use the u64 seed `role_seed(seed, role,
index)`, derived through the same SeedSequence under a different spawn key,
so their independence comes from how the streams are built rather than from
seed offsets.

Arrays that depend only on (t_max, n_steps, H) are built once, in bounded
`functools.lru_cache`s keyed on the frozen TimeGrid and HurstParam (or on
(n, H, dt)), and returned read-only: `fgn_autocovariance` and
`_fgn_circulant_eigs` keep 32 entries of 8 n and 32 n bytes;
`transfer_kernel_matrix` and `cholesky_factor` keep 2 entries of 8 n^2
bytes each (0.5 MiB at n = 256), and both refuse grids above
DENSE_MAX_STEPS, so an entry is at most 128 MiB.

A campaign that keeps a few numbers per path (or per pair of paths) needs
no ensemble: `concentration.shared_pass` draws the rows of
`sample_fbm_circulant_batch` CHUNK_PATHS at a time through
`_circulant_rows`, which addresses each path by its index, so a statistic
of each row alone gives on a chunk bit for bit what it gives on the whole
batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np
from scipy import integrate, special

from .grid import BLOCK_PATHS, TimeGrid

#: Largest grid for the two (n_steps, n_steps) arrays, `cholesky_factor` and
#: `transfer_kernel_matrix`: 128 MiB each.
DENSE_MAX_STEPS = 4096

#: Embedding eigenvalues below this fail the circulant construction with
#: ArithmeticError; values in [tol, 0) are roundoff and clipped.
CIRCULANT_EIG_TOL = -1e-10


@dataclass(frozen=True)
class HurstParam:
    """Hurst index restricted to the long-range-dependent regime (1/2, 1)."""

    h: float

    def __post_init__(self):
        if not 0.5 < self.h < 1.0:
            raise ValueError(f"Hurst parameter must satisfy 1/2 < h < 1, got {self.h}")


class GeneratorTag(str, Enum):
    cholesky = "cholesky"
    circulant = "circulant"
    transfer = "transfer"


@dataclass(frozen=True)
class FbmPath:
    """Sampled m-component fBm trajectory and the generator that drew it.

    A shape off the grid or a nonzero start is a ValueError; a non-finite
    value is a numerical failure (ArithmeticError)."""

    grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, m)
    generator_tag: GeneratorTag

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != self.grid.n_steps + 1:
            raise ValueError(f"values shape {vals.shape} inconsistent with grid")
        if not np.all(np.isfinite(vals)):
            raise ArithmeticError("fBm path contains non-finite entries")
        if np.any(vals[0] != 0.0):
            raise ValueError("fBm paths must start at 0")
        object.__setattr__(self, "values", vals)


#: Layout of the random streams the samplers draw, recorded in manifests.
STREAM_LAYOUT = 2


class Role(IntEnum):
    """Ensembles derived from a seed by role_seed; the primary ensemble of a
    seed is drawn from the seed itself.  The values enter the spawn key, so
    they are part of STREAM_LAYOUT."""

    partner = 1   # the independent partner of the primary ensemble
    windows = 2   # the esti-int window draw
    horizon = 3   # one large-time ensemble per horizon index


#: Spawn-key tag of the Philox key of one (seed, component); Role tags start
#: at 1, so a role seed and a key never come from the same spawn key.
_KEY = 0


def _seed_sequence(seed: int, tag: int, index: int) -> np.random.SeedSequence:
    """The one stream derivation: SeedSequence(seed) under spawn key (tag, index)."""
    return np.random.SeedSequence(int(seed), spawn_key=(int(tag), int(index)))


def role_seed(seed: int, role: Role, index: int = 0) -> int:
    """u64 seed of the ensemble `role` (number `index` of it) of `seed`."""
    return int(_seed_sequence(seed, role, index).generate_state(1, np.uint64)[0])


def component_rng(seed: int, path_index: int, component: int) -> np.random.Generator:
    """The stream of path `path_index`, component `component` of `seed`: the
    (seed, component) Philox at the counter block (0, 0, path_index, 0),
    its buffer empty.

    Philox is a counter-based generator, so ensembles are reproducible under
    any schedule: a sampler keys one Philox per component and moves its
    counter from path to path.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, _KEY, component),
                                                counter=[0, 0, path_index, 0]))


def covariance_rh(s, t, h: HurstParam):
    """fBm covariance (t^{2H} + s^{2H} - |t-s|^{2H}) / 2; s, t may be arrays."""
    if np.any(np.less(s, 0)) or np.any(np.less(t, 0)):
        raise ValueError(f"time arguments must be nonnegative, got s={s}, t={t}")
    hh = 2.0 * h.h
    return 0.5 * (t**hh + s**hh - abs(t - s) ** hh)


def covariance_matrix(grid: TimeGrid, h: HurstParam) -> np.ndarray:
    """Covariance matrix of (B_{t_1}, ..., B_{t_n}); t_0 = 0 excluded."""
    t = grid.points[1:]
    return covariance_rh(t[:, None], t[None, :], h)


def kernel_normalization(h: HurstParam) -> float:
    """c_H = sqrt( H(2H-1) / B(2-2H, H-1/2) )."""
    hv = h.h
    return float(np.sqrt(hv * (2 * hv - 1) / special.beta(2 - 2 * hv, hv - 0.5)))


def kernel_kh(t: float, s: float, h: HurstParam) -> float:
    """Volterra kernel K(t, s) by adaptive quadrature.

    K(t,s) = c_H s^{1/2-H} int_s^t (u-s)^{H-3/2} u^{H-1/2} du for s < t and
    0 for s >= t.  The endpoint singularity at u = s (exponent H - 3/2 in
    (-1, -1/2)) is removed by the substitution u = s + w^{1/(H-1/2)}, after
    which the integrand is smooth and a plain adaptive Gauss rule converges.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if s <= 0:
        raise ValueError(f"s must be positive (kernel diverges at s=0), got {s}")
    if s >= t:
        return 0.0
    hv = h.h
    gamma = hv - 0.5  # in (0, 1/2)

    # u = s + w^{1/gamma}: (u-s)^{H-3/2} du = (1/gamma) w^{0} ... dw exactly,
    # i.e. the integrand becomes (1/gamma) (s + w^{1/gamma})^{H-1/2}.
    def integrand(w):
        return (s + w ** (1.0 / gamma)) ** (hv - 0.5) / gamma

    w_max = (t - s) ** gamma
    val, err = integrate.quad(integrand, 0.0, w_max, epsabs=0.0, epsrel=1e-12, limit=200)
    if abs(err) > 1e-8 * max(abs(val), 1.0):
        raise ArithmeticError(
            f"kernel quadrature did not converge: value={val}, abserr={err}"
        )
    return kernel_normalization(h) * s ** (0.5 - hv) * val


def kernel_kh_fast(t, s, h: HurstParam):
    """Vectorized K(t, s) via the Gauss hypergeometric closed form.

    int_s^t (u-s)^{H-3/2} u^{H-1/2} du
        = s^{H-1/2} x^{H-1/2} / (H-1/2) * 2F1(1/2-H, H-1/2; H+1/2; -x/s)
    with x = t - s, which cancels the s^{1/2-H} prefactor entirely.
    Agrees with kernel_kh to ~1e-12 relative; used wherever the kernel is
    needed on whole grids at once.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("s must be positive")
    hv = h.h
    x = t - s
    out = np.zeros(np.broadcast(t, s).shape)
    mask = x > 0
    if np.any(mask):
        xm = np.broadcast_to(x, out.shape)[mask]
        sm = np.broadcast_to(s, out.shape)[mask]
        f = special.hyp2f1(0.5 - hv, hv - 0.5, hv + 0.5, -xm / sm)
        out[mask] = kernel_normalization(h) * xm ** (hv - 0.5) / (hv - 0.5) * f
    return out if out.ndim else float(out)


def kernel_kh_partial(u: float, s: float, h: HurstParam):
    """dK/du (u, s) = c_H (u/s)^{H-1/2} (u-s)^{H-3/2}, for 0 < s < u.

    Diverges like (u-s)^{H-3/2} as u approaches s; gaps below 1e-12 are
    refused rather than returning astronomically large values.
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0) or np.any(u - s <= 0):
        raise ValueError("kernel_kh_partial requires 0 < s < u")
    if np.any(u - s < 1e-12):
        raise ValueError("u - s below the documented floor 1e-12")
    hv = h.h
    out = kernel_normalization(h) * (u / s) ** (hv - 0.5) * (u - s) ** (hv - 1.5)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_dense(grid: TimeGrid, name: str) -> None:
    """ValueError if `name`, an (n_steps, n_steps) array, would exceed
    DENSE_MAX_STEPS; raised before anything is built."""
    if grid.n_steps > DENSE_MAX_STEPS:
        raise ValueError(f"{name} builds an (n_steps, n_steps) array, capped at "
                         f"{DENSE_MAX_STEPS} steps; got {grid.n_steps}")


@functools.lru_cache(maxsize=32)
def fgn_autocovariance(n: int, hurst: float, dt: float) -> np.ndarray:
    """gamma(k) = dt^{2H} (|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H}) / 2, k = 0..n:
    the autocovariance of the fGn increments of step dt, cached, read-only."""
    k, hh = np.arange(n + 1), 2 * hurst
    return _read_only(0.5 * dt**hh * (np.abs(k + 1) ** hh + np.abs(k - 1) ** hh
                                      - 2.0 * np.abs(k) ** hh))


@functools.lru_cache(maxsize=32)
def _fgn_circulant_eigs(n: int, hurst: float, dt: float) -> np.ndarray:
    """The 2n eigenvalues of the circulant embedding of the fGn covariance,
    cached and read-only; `_circulant_rows` checks the sign of all of them
    on every call and scales its half spectrum by the first n + 1 (the
    embedding row is symmetric, so eigenvalue k equals eigenvalue 2n - k).

    Nonnegative for 1/2 < H < 1: gamma(0..n) is nonnegative, nonincreasing
    and convex, hence a constant plus a nonnegative sum of tents
    (1 - |k|/m)_+, m <= n, whose DFTs on the 2n-cycle are Fejer kernels.
    """
    gamma = fgn_autocovariance(n, hurst, dt)
    row = np.concatenate([gamma[:n], gamma[n:n + 1], gamma[n - 1:0:-1]])
    return _read_only(np.fft.fft(row).real)


def _circulant_rows(grid: TimeGrid, h: HurstParam, seed: int, paths,
                    component: int = 0) -> np.ndarray:
    """(len(paths), n_steps + 1) scalar fBm paths; row r uses the stream
    component_rng(seed, paths[r], component), whose 2n normals are z_0, z_n
    and the real, then imaginary parts of z_1..z_{n-1}: per row, one state
    dict of plain ints gets the path as counter[2] and is assigned to the
    Philox, and one call draws the row.

    The Gaussian vector z, extended by z_{2n-k} = conj(z_k), is Hermitian,
    so its DFT is real: each row's fGn is np.fft.hfft(half, 2n) of the half
    spectrum half_k = sqrt(lam_k / 2n) z_k, k = 0..n, where
    z_k = (a_k + i b_k) / sqrt(2) for 0 < k < n; its first n values, summed,
    are the path.  hfft(half) is irfft(conj(half), norm="forward"), so the
    rows are scaled straight into conj(half) and handed to irfft: no conj
    pass, and the block buffers are allocated once per call.  Rows are
    assembled and transformed BLOCK_PATHS at a time.
    """
    bits = np.random.Philox(_seed_sequence(seed, _KEY, component))
    normal, state = np.random.Generator(bits).standard_normal, bits.state
    counter = state["state"]["counter"] = state["state"]["counter"].tolist()
    state["state"]["key"], state["buffer"] = state["state"]["key"].tolist(), [0] * 4
    n = grid.n_steps
    eigs = _fgn_circulant_eigs(n, h.h, grid.dt)
    if eigs.min() < CIRCULANT_EIG_TOL:
        raise ArithmeticError(f"circulant embedding failed: eigenvalue "
                              f"{eigs.min():.3e} < {CIRCULANT_EIG_TOL:g} (H={h.h}, n={n})")
    scale = np.sqrt(np.clip(eigs[:n + 1], 0.0, None) / (2 * n))
    scale[1:n] /= np.sqrt(2.0)
    out = np.empty((len(paths), n + 1))
    out[:, 0] = 0.0
    rows = min(len(paths), BLOCK_PATHS)
    draws = np.empty((rows, 2 * n))
    spec = np.zeros((rows, n + 1), dtype=complex)  # conj(half); imag 0 at k = 0, n
    fgn = np.empty((rows, 2 * n))
    for lo in range(0, len(paths), BLOCK_PATHS):
        block = paths[lo:lo + BLOCK_PATHS]
        k = len(block)
        d = draws[:k]
        for row, path in zip(d, block):
            counter[2] = path
            bits.state = state
            normal(out=row)
        np.multiply(d[:, 0], scale[0], out=spec.real[:k, 0])
        np.multiply(d[:, 1], scale[n], out=spec.real[:k, n])
        np.multiply(d[:, 2:n + 1], scale[1:n], out=spec.real[:k, 1:n])
        np.multiply(d[:, n + 1:], -scale[1:n], out=spec.imag[:k, 1:n])
        np.fft.irfft(spec[:k], n=2 * n, axis=1, norm="forward", out=fgn[:k])
        np.cumsum(fgn[:k, :n], axis=1, out=out[lo:lo + k, 1:])
    return out


def sample_fbm_cholesky(grid: TimeGrid, h: HurstParam, m: int, seed: int,
                        path_index: int = 0) -> FbmPath:
    """Exact fBm sample through the Cholesky factor of the covariance matrix."""
    chol = cholesky_factor(grid, h)
    n = grid.n_steps
    vals = np.zeros((n + 1, m))
    for j in range(m):
        vals[1:, j] = chol @ component_rng(seed, path_index, j).standard_normal(n)
    return FbmPath(grid=grid, values=vals, generator_tag=GeneratorTag.cholesky)


@functools.lru_cache(maxsize=2)
def cholesky_factor(grid: TimeGrid, h: HurstParam) -> np.ndarray:
    """Lower-triangular factor of the grid covariance, cached per (grid, H)
    and read-only; refused above DENSE_MAX_STEPS."""
    _check_dense(grid, "cholesky_factor")
    try:
        return _read_only(np.linalg.cholesky(covariance_matrix(grid, h)))
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            "fBm covariance factorization failed; the grid is degenerate"
        ) from exc


def sample_fbm_circulant(grid: TimeGrid, h: HurstParam, m: int, seed: int,
                         path_index: int = 0) -> FbmPath:
    """fBm by circulant embedding of the stationary increments (fGn)."""
    vals = np.column_stack([_circulant_rows(grid, h, seed, [path_index], j)[0] for j in range(m)])
    return FbmPath(grid=grid, values=vals, generator_tag=GeneratorTag.circulant)


def sample_fbm_circulant_batch(grid: TimeGrid, h: HurstParam, n_paths: int,
                               seed: int, component: int = 0) -> np.ndarray:
    """(n_paths, n_steps + 1) array of scalar fBm paths, BLOCK_PATHS at a time.

    Path i uses the same stream as sample_fbm_circulant(..., path_index=i)
    component `component`, so single-path and batch generation agree bit for
    bit.
    """
    return _circulant_rows(grid, h, seed, range(n_paths), component)


#: Paths per chunk of concentration.shared_pass, a whole number of BLOCK_PATHS:
#: 4 MiB per (chunk, 257) float64 array.  Measured on the large-time
#: campaign: smaller chunks pay the Euler loop's per-step overhead more
#: often, larger ones add memory and no speed.
CHUNK_PATHS = 8 * BLOCK_PATHS


@functools.lru_cache(maxsize=2)
def transfer_kernel_matrix(grid: TimeGrid, h: HurstParam) -> np.ndarray:
    """K(t_i, mid_k) for the discretized Volterra representation, built once
    per (grid, H) and read-only.

    Row i holds the kernel at target time t_i against all cell midpoints with
    mid_k < t_i; other entries are 0.  Refused above DENSE_MAX_STEPS.
    """
    _check_dense(grid, "transfer_kernel_matrix")
    return _read_only(kernel_kh_fast(grid.points[1:, None], grid.midpoints[None, :], h))


def sample_fbm_transfer(grid: TimeGrid, h: HurstParam, m: int, seed: int,
                        path_index: int = 0) -> tuple[FbmPath, np.ndarray]:
    """fBm via B_t ~= sum_k K(t, mid_k) dW_k; also returns the Wiener path.

    The returned Wiener array has the same (n_steps + 1, m) layout and shares
    the seed, so Girsanov-type experiments can perturb W and re-run the
    transfer deterministically.  This sampler carries an O(n^{-(1-H)})-ish
    discretization bias (midpoint rule on a singular kernel); the variance at
    T is within ~5% of T^{2H} at 256 steps.
    """
    n = grid.n_steps
    dw = np.column_stack([component_rng(seed, path_index, j).standard_normal(n)
                          for j in range(m)]) * np.sqrt(grid.dt)
    wiener = np.zeros((n + 1, m))
    np.cumsum(dw, axis=0, out=wiener[1:])
    vals = transfer_from_wiener_increments(transfer_kernel_matrix(grid, h), dw)
    return FbmPath(grid=grid, values=vals, generator_tag=GeneratorTag.transfer), wiener


def transfer_from_wiener_increments(kernel: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Node values (n+1, ...) of sum_k K(t_i, mid_k) dw_k, 0 at t_0, for
    increments dw of shape (n,) or (n, m): the one application of the
    discretized Volterra kernel (transfer_kernel_matrix) to increments."""
    vals = np.zeros((dw.shape[0] + 1,) + dw.shape[1:])
    vals[1:] = kernel @ dw
    return vals
