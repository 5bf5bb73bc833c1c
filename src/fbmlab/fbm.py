"""Fractional Brownian motion with Hurst index in (1/2, 1).

Three interchangeable generators produce m-component fBm paths on a uniform
grid:

* ``sample_fbm_cholesky`` -- exact in law, O(n^3), the accuracy anchor;
* ``sample_fbm_circulant`` -- circulant embedding of the increment process
  (fractional Gaussian noise), exact in law and O(n log n);
* ``sample_fbm_transfer`` -- discretizes the Volterra representation
  B_t = int_0^t K(t,s) dW_s, returning the underlying Wiener increments so
  that drift-perturbation experiments can act on W directly.

The module also evaluates the Volterra kernel K(t,s) and its t-derivative,
both as careful single-point quadratures and as fast vectorized closed forms
through the Gauss hypergeometric function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import integrate, special

from .grid import BLOCK_PATHS, TimeGrid

#: Largest grid for the O(n^3) Cholesky sampler.
CHOLESKY_MAX_STEPS = 4096

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
    """Sampled m-component fBm trajectory with generation provenance."""

    grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, m)
    hurst: HurstParam
    generator_tag: GeneratorTag
    seed: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != self.grid.n_steps + 1:
            raise ValueError(f"values shape {vals.shape} inconsistent with grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("fBm path contains non-finite entries")
        if np.any(vals[0] != 0.0):
            raise ValueError("fBm paths must start at 0")
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[1]


def component_rng(seed: int, path_index: int, component: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, path, component).

    Philox is a counter-based generator, so ensembles are reproducible under
    any parallel schedule as long as each (path, component) keeps its key.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=(int(path_index), int(component)))
    return np.random.Generator(np.random.Philox(ss))


def covariance_rh(s: float, t: float, h: HurstParam) -> float:
    """fBm covariance (t^{2H} + s^{2H} - |t-s|^{2H}) / 2."""
    if s < 0 or t < 0:
        raise ValueError(f"time arguments must be nonnegative, got s={s}, t={t}")
    hh = 2.0 * h.h
    return 0.5 * (t**hh + s**hh - abs(t - s) ** hh)


def covariance_matrix(grid: TimeGrid, h: HurstParam) -> np.ndarray:
    """Covariance matrix of (B_{t_1}, ..., B_{t_n}); t_0 = 0 excluded."""
    t = grid.points[1:]
    hh = 2.0 * h.h
    s, u = np.meshgrid(t, t, indexing="ij")
    return 0.5 * (s**hh + u**hh - np.abs(s - u) ** hh)


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


def kernel_kh_partial(u: float, s: float, h: HurstParam,
                      min_gap: float = 1e-12):
    """dK/du (u, s) = c_H (u/s)^{H-1/2} (u-s)^{H-3/2}, for 0 < s < u.

    Diverges like (u-s)^{H-3/2} as u approaches s; gaps below min_gap are
    refused rather than returning astronomically large values.
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0) or np.any(u - s <= 0):
        raise ValueError("kernel_kh_partial requires 0 < s < u")
    if np.any(u - s < min_gap):
        raise ValueError(f"u - s below the documented floor {min_gap}")
    hv = h.h
    out = kernel_normalization(h) * (u / s) ** (hv - 0.5) * (u - s) ** (hv - 1.5)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _fgn_circulant_eigs(n: int, hurst: float, dt: float) -> np.ndarray:
    """Eigenvalues of the circulant embedding of the fGn covariance.

    Nonnegative for 1/2 < H < 1: gamma(0..n) is nonnegative, nonincreasing
    and convex, hence a constant plus a nonnegative sum of tents
    (1 - |k|/m)_+, m <= n, whose DFTs on the 2n-cycle are Fejer kernels.
    """
    k = np.arange(n + 1)
    gamma = 0.5 * dt ** (2 * hurst) * (
        np.abs(k + 1) ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst)
        - 2.0 * np.abs(k) ** (2 * hurst)
    )
    row = np.concatenate([gamma[:n], gamma[n:n + 1], gamma[n - 1:0:-1]])
    return np.fft.fft(row).real


def _circulant_rows(grid: TimeGrid, h: HurstParam, seed: int,
                    keys: list[tuple[int, int]]) -> np.ndarray:
    """(len(keys), n_steps + 1) scalar fBm paths; row r uses the stream
    component_rng(seed, *keys[r]), whose 2n normals are z_0, z_n and the
    real, then imaginary parts of z_1..z_{n-1}.  Rows are assembled into
    Hermitian vectors and transformed BLOCK_PATHS at a time.
    """
    n = grid.n_steps
    eigs = _fgn_circulant_eigs(n, h.h, grid.dt)
    if eigs.min() < CIRCULANT_EIG_TOL:
        raise ArithmeticError(f"circulant embedding failed: eigenvalue "
                              f"{eigs.min():.3e} < {CIRCULANT_EIG_TOL:g} (H={h.h}, n={n})")
    lam = np.sqrt(np.clip(eigs, 0.0, None) / (2 * n))
    out = np.zeros((len(keys), n + 1))
    draws = np.empty((min(len(keys), BLOCK_PATHS), 2 * n))
    z = np.empty(draws.shape, dtype=complex)
    for lo in range(0, len(keys), BLOCK_PATHS):
        block = keys[lo:lo + BLOCK_PATHS]
        d, zb = draws[:len(block)], z[:len(block)]
        for row, (path, component) in zip(d, block):
            component_rng(seed, path, component).standard_normal(out=row)
        zb[:, 0] = d[:, 0]
        zb[:, n] = d[:, 1]
        zb[:, 1:n] = (d[:, 2:n + 1] + 1j * d[:, n + 1:]) / np.sqrt(2.0)
        zb[:, n + 1:] = np.conj(zb[:, n - 1:0:-1])
        zb *= lam
        np.cumsum(np.fft.fft(zb, axis=1).real[:, :n], axis=1,
                  out=out[lo:lo + len(block), 1:])
    return out


def sample_fbm_cholesky(grid: TimeGrid, h: HurstParam, m: int, seed: int,
                        path_index: int = 0) -> FbmPath:
    """Exact fBm sample through a Cholesky factor of the covariance matrix."""
    if grid.n_steps > CHOLESKY_MAX_STEPS:
        raise ValueError(
            f"Cholesky sampler capped at {CHOLESKY_MAX_STEPS} steps "
            f"(O(n^3) factorization); got {grid.n_steps}"
        )
    chol = cholesky_factor(grid, h)
    return _assemble_from_factor(chol, grid, h, m, seed, path_index)


def cholesky_factor(grid: TimeGrid, h: HurstParam) -> np.ndarray:
    """Lower-triangular factor of the grid covariance; cache at call sites."""
    cov = covariance_matrix(grid, h)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            "fBm covariance factorization failed; the grid is degenerate"
        ) from exc


def _assemble_from_factor(chol, grid, h, m, seed, path_index) -> FbmPath:
    n = grid.n_steps
    vals = np.zeros((n + 1, m))
    for j in range(m):
        z = component_rng(seed, path_index, j).standard_normal(n)
        vals[1:, j] = chol @ z
    return FbmPath(grid=grid, values=vals, hurst=h,
                   generator_tag=GeneratorTag.cholesky, seed=seed)


def sample_fbm_circulant(grid: TimeGrid, h: HurstParam, m: int, seed: int,
                         path_index: int = 0) -> FbmPath:
    """fBm by circulant embedding of the stationary increments (fGn)."""
    rows = _circulant_rows(grid, h, seed, [(path_index, j) for j in range(m)])
    return FbmPath(grid=grid, values=rows.T.copy(), hurst=h,
                   generator_tag=GeneratorTag.circulant, seed=seed)


def sample_fbm_circulant_batch(grid: TimeGrid, h: HurstParam, n_paths: int,
                               seed: int, component: int = 0) -> np.ndarray:
    """(n_paths, n_steps + 1) array of scalar fBm paths, BLOCK_PATHS at a time.

    Path i uses the same stream as sample_fbm_circulant(..., path_index=i)
    component `component`, so single-path and batch generation agree bit for
    bit.
    """
    return _circulant_rows(grid, h, seed, [(i, component) for i in range(n_paths)])


def transfer_kernel_matrix(grid: TimeGrid, h: HurstParam) -> np.ndarray:
    """K(t_i, mid_k) for the discretized Volterra representation.

    Row i holds the kernel at target time t_i against all cell midpoints with
    mid_k < t_i; other entries are 0.
    """
    n = grid.n_steps
    t = grid.points[1:, None]
    mids = grid.midpoints[None, :]
    ker = np.zeros((n, n))
    mask = mids < t
    tt = np.broadcast_to(t, (n, n))[mask]
    mm = np.broadcast_to(mids, (n, n))[mask]
    ker[mask] = kernel_kh_fast(tt, mm, h)
    return ker


def sample_fbm_transfer(grid: TimeGrid, h: HurstParam, m: int, seed: int,
                        path_index: int = 0,
                        kernel: np.ndarray | None = None) -> tuple[FbmPath, np.ndarray]:
    """fBm via B_t ~= sum_k K(t, mid_k) dW_k; also returns the Wiener path.

    The returned Wiener array has the same (n_steps + 1, m) layout and shares
    the seed, so Girsanov-type experiments can perturb W and re-run the
    transfer deterministically.  This sampler carries an O(n^{-(1-H)})-ish
    discretization bias (midpoint rule on a singular kernel); the variance at
    T is within ~5% of T^{2H} at 256 steps.
    """
    n = grid.n_steps
    if kernel is None:
        kernel = transfer_kernel_matrix(grid, h)
    sqdt = np.sqrt(grid.dt)
    wiener = np.zeros((n + 1, m))
    vals = np.zeros((n + 1, m))
    for j in range(m):
        dw = component_rng(seed, path_index, j).standard_normal(n) * sqdt
        wiener[1:, j] = np.cumsum(dw)
        vals[1:, j] = kernel @ dw
    path = FbmPath(grid=grid, values=vals, hurst=h,
                   generator_tag=GeneratorTag.transfer, seed=seed)
    return path, wiener


def transfer_from_wiener_increments(kernel: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Map Wiener increments (n, m) to fBm node values (n+1, m)."""
    n, m = dw.shape
    vals = np.zeros((n + 1, m))
    vals[1:] = kernel @ dw
    return vals
