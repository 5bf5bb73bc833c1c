"""Pathwise Euler solvers for SDEs driven by Holder-rough paths (H > 1/2).

The stochastic term is a Young integral, so the explicit left-point Euler
recursion is its canonical discretization:

    X_{k+1} = X_k + b(X_k) dt + sigma(t_k) (g_{k+1} - g_k).

One private recursion, `_euler`, is the Euler loop of solve_additive,
solve_scalar and euler_additive_ensemble; it raises BlowUpError (an
ArithmeticError) at the first non-finite state.  For scalar state-dependent
diffusion a second, independent discretization goes through the Lamperti
change of variables F(y) = int_0^y dz / sigma(z) to unit diffusion, in a loop
of its own so that the two routes cross-validate: F is one adaptive
quadrature, F^{-1} one Newton iteration inside the slope bracket of F'.

The module also hosts the driver-stability horizon, the drift-coupled pair
used to probe the Girsanov-type coupling bound and its Gronwall bound.  The
driver-stability ratio itself is `concentration.stability_ratios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .fbm import (
    FbmPath,
    HurstParam,
    sample_fbm_circulant,
    transfer_from_wiener_increments,
    transfer_kernel_matrix,
)
from .grid import TimeGrid, cell_values


@dataclass
class DriftSpec:
    """Drift field with caller-declared regularity constants.

    The constants enter bound computations as declarations (the theory
    treats them as given).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dimension: int = 1
    lipschitz: float = 0.0          # L_b
    sup_bound: float = np.inf       # sup |b|
    one_sided: float | None = None  # B with <x-y, b(x)-b(y)> <= B |x-y|^2


@dataclass
class TimeDiffusion:
    """Time-dependent matrix diffusion sigma(s) in R^{d x m}."""

    fn: Callable[[float], np.ndarray]
    holder_beta: float = 1.0

    def matrix(self, t: float, d: int, m: int) -> np.ndarray:
        out = np.asarray(self.fn(t), dtype=float)
        if out.shape != (d, m):
            out = np.broadcast_to(np.atleast_2d(out), (d, m))
        return out


@dataclass
class ScalarDiffusion:
    """State-dependent scalar diffusion with two-sided bounds.

    0 < sigma1 <= sigma(x) <= sigma2 is required for the Lamperti transform
    to be a bijection with controlled slope.
    """

    fn: Callable[[float], float]
    sigma1: float
    sigma2: float
    lipschitz: float = 0.0

    def __post_init__(self):
        if not 0 < self.sigma1 <= self.sigma2:
            raise ValueError("need 0 < sigma1 <= sigma2")


@dataclass(frozen=True)
class SolutionPath:
    grid: TimeGrid
    values: np.ndarray          # (n_steps + 1, d)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ArithmeticError("solution path contains non-finite entries")
        object.__setattr__(self, "values", vals)


class BlowUpError(ArithmeticError):
    """A non-finite Euler state; a numerical failure (CLI exit 3)."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at Euler step {step}")
        self.step = step


def _driver_array(driver) -> tuple[TimeGrid, np.ndarray]:
    if isinstance(driver, FbmPath):
        return driver.grid, driver.values
    if isinstance(driver, tuple) and len(driver) == 2:
        grid, vals = driver
        return grid, np.asarray(vals, dtype=float).reshape(len(vals), -1)
    raise TypeError(f"unsupported driver type {type(driver)}")


def _euler(x0, b: Callable, dt: float, noise: np.ndarray,
           scale: Callable | None = None) -> np.ndarray:
    """x_{k+1} = x_k + b(x_k) dt + noise_k, with noise_k multiplied by
    scale(x_k) for a state-dependent diffusion.  x0 is a float or an array;
    noise and the returned states carry time on their last axis.  One check
    after the loop raises BlowUpError at the first state with a non-finite
    component.
    """
    out = np.empty(np.shape(x0) + (noise.shape[-1] + 1,))
    out[..., 0] = x0
    x = x0
    # an overflowing step is reported by the finiteness check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k, w in enumerate(np.moveaxis(noise, -1, 0), start=1):
            x = x + b(x) * dt + (w if scale is None else scale(x) * w)
            out[..., k] = x
    finite = np.isfinite(out).reshape(-1, out.shape[-1]).all(axis=0)
    if not finite.all():
        raise BlowUpError(int(np.argmin(finite)))
    return out


def _additive_solves(x0, drift: DriftSpec, sigma_t: TimeDiffusion, grid: TimeGrid,
                     *drivers: np.ndarray) -> list[SolutionPath]:
    """Euler solutions from x0, one per (n_steps + 1, m) driver array, with
    sigma(t) evaluated on the grid once for all of them."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    sig = np.array([sigma_t.matrix(t, len(x0), drivers[0].shape[1]) for t in grid.points[:-1]])
    # sigma(t_k) (g_{k+1} - g_k) for every k; a batched matmul sums each
    # product in the order of sig[k] @ dg[k], einsum does not
    noises = (np.matmul(sig, np.diff(g, axis=0)[..., None])[..., 0] for g in drivers)
    return [SolutionPath(grid=grid, values=_euler(x0, drift.fn, grid.dt, w.T).T) for w in noises]


def solve_additive(x0, drift: DriftSpec, sigma_t: TimeDiffusion, driver) -> SolutionPath:
    """Euler solution of dX = b(X) dt + sigma(t) dg with time-only sigma."""
    grid, g = _driver_array(driver)
    return _additive_solves(x0, drift, sigma_t, grid, g)[0]


def solve_scalar(x0: float, drift: DriftSpec, sigma_x: ScalarDiffusion,
                 driver) -> SolutionPath:
    """Euler solution of the scalar equation dX = b(X) dt + sigma(X) dg."""
    grid, g = _driver_array(driver)
    if g.shape[1] != 1:
        raise ValueError("scalar equation needs a one-component driver")
    vals = _euler(float(x0), lambda x: float(np.atleast_1d(drift.fn(x))[0]), grid.dt,
                  np.diff(g[:, 0]), sigma_x.fn)
    return SolutionPath(grid=grid, values=vals[:, None])


def euler_additive_ensemble(x0: float, b: Callable[[np.ndarray], np.ndarray],
                            drivers: np.ndarray, dt: float) -> np.ndarray:
    """Vectorized scalar Euler over a whole ensemble, sigma = 1.

    drivers has shape (n_paths, n_nodes); returns the same shape.  Raises
    BlowUpError at the first step that leaves any path non-finite.
    """
    return _euler(np.full(len(drivers), float(x0)), b, dt, np.diff(drivers, axis=1))


# ---------------------------------------------------------------------------
# Lamperti transform
# ---------------------------------------------------------------------------

def _inverse_sigma_integral(sigma_x: ScalarDiffusion, a: float, b: float) -> float:
    """int_a^b dz / sigma(z): the one quadrature of the Lamperti route, which
    fails closed when quad's error estimate exceeds 1e-10 max(|value|, 1)."""
    val, err = integrate.quad(lambda u: 1.0 / sigma_x.fn(u), a, b,
                              epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > 1e-10 * max(abs(val), 1.0):
        raise ArithmeticError(f"Lamperti quadrature on [{a}, {b}] did not converge: abserr={err}")
    return val


def _invert_from(sigma_x: ScalarDiffusion, z: float, x: float, fx: float) -> tuple[float, float]:
    """(F^{-1}(z), z) by Newton steps on F from a known point (x, fx = F(x)).

    The slope bounds 1/sigma2 <= F' <= 1/sigma1 put the root in x - (fx - z)
    [sigma1, sigma2]; iterates stay in the intersection of these padded
    brackets, and a step that would leave it bisects, whatever sigma2/sigma1.
    When the bounds do not hold the bracket empties: 100 iterations raise.
    """
    s1, s2 = sigma_x.sigma1, sigma_x.sigma2
    lo, hi = -np.inf, np.inf
    for _ in range(100):
        err = fx - z
        pad = 1e-9 * (1.0 + abs(x) + s2 * abs(err))
        lo = max(lo, min(x - s1 * err, x - s2 * err) - pad)
        hi = min(hi, max(x - s1 * err, x - s2 * err) + pad)
        x_new = x - err * sigma_x.fn(x)
        if not lo <= x_new <= hi:
            x_new = 0.5 * (lo + hi)
        elif abs(x_new - x) < 1e-9:  # this last step misses the root by O(step^2)
            return x_new, z
        fx += _inverse_sigma_integral(sigma_x, x, x_new)
        x = x_new
    raise ArithmeticError(f"Lamperti inverse failed at z={z}; sigma bounds "
                          f"sigma1={s1}, sigma2={s2} may be violated")


def lamperti_forward(sigma_x: ScalarDiffusion, y: float) -> float:
    """F(y) = int_0^y dz / sigma(z) by adaptive quadrature."""
    return _inverse_sigma_integral(sigma_x, 0.0, y)


def lamperti_inverse(sigma_x: ScalarDiffusion, z: float) -> float:
    """F^{-1}(z): the iteration of _invert_from, started at (0, F(0) = 0)."""
    return _invert_from(sigma_x, z, 0.0, 0.0)[0]


def solve_scalar_via_lamperti(x0: float, drift: DriftSpec,
                              sigma_x: ScalarDiffusion, driver) -> SolutionPath:
    """Scalar equation through the unit-diffusion change of variables.

    Solves dY = b(F^{-1}(Y))/sigma(F^{-1}(Y)) dt + dg with Y_0 = F(x0) and
    maps back X = F^{-1}(Y), each step by _invert_from from (X_k, Y_k).
    """
    grid, g = _driver_array(driver)
    if g.shape[1] != 1:
        raise ValueError("scalar equation needs a one-component driver")
    x = float(x0)
    y = lamperti_forward(sigma_x, x)
    vals = [x]
    for k, dw in enumerate(np.diff(g[:, 0]).tolist(), start=1):
        z = y + float(np.atleast_1d(drift.fn(x))[0]) / sigma_x.fn(x) * grid.dt + dw
        if not -np.inf < z < np.inf:  # z is inf or nan
            raise BlowUpError(k)
        x, y = _invert_from(sigma_x, z, x, y)
        vals.append(x)
    return SolutionPath(grid=grid, values=np.array(vals)[:, None])


def lamperti_drift_lipschitz_bound(drift: DriftSpec, sigma_x: ScalarDiffusion) -> float:
    """Declared Lipschitz bound for b(F^{-1})/sigma(F^{-1}):
    sigma2 (L_b sigma2 + L_sigma B_sup) / sigma1^2."""
    return (sigma_x.sigma2 / sigma_x.sigma1**2
            * (drift.lipschitz * sigma_x.sigma2
               + sigma_x.lipschitz * drift.sup_bound))


# ---------------------------------------------------------------------------
# Stability horizon and coupling experiments
# ---------------------------------------------------------------------------

def stability_horizon(L_b: float) -> float:
    """Delta = min(1, 1/(2 L_b)) (1 for L_b = 0): the driver-stability
    estimate for a drift of Lipschitz constant L_b holds for T <= Delta."""
    return min(1.0, 1.0 / (2 * L_b)) if L_b > 0 else 1.0


def drift_coupled_pair(x0, drift: DriftSpec, sigma_t: TimeDiffusion,
                       rho: np.ndarray, h: HurstParam, grid: TimeGrid,
                       seed: int, path_index: int = 0,
                       kernel: np.ndarray | None = None):
    """Coupled solutions sharing one fBm, differing by a smooth drift.

    Y solves dY = b(Y) dt + sigma(t) dB; X additionally sees the absolutely
    continuous perturbation sigma(t) d(K rho)(t).  rho is an (n_steps + 1, m)
    node-sampled square-integrable function.  Returns (x_path, y_path,
    rho_energy) with rho_energy = (1/2) int |rho|^2 dt.

    `kernel` is redundant: transfer_kernel_matrix is cached per (grid, H).
    It is kept only because the benchmark's pathwise workload passes it.
    """
    rho = np.asarray(rho, dtype=float).reshape(len(rho), -1)
    if kernel is None:
        kernel = transfer_kernel_matrix(grid, h)
    b_path = sample_fbm_circulant(grid, h, rho.shape[1], seed, path_index=path_index)
    cells = cell_values(rho)
    k_rho = transfer_from_wiener_increments(kernel, cells * grid.dt)
    x, y = _additive_solves(x0, drift, sigma_t, grid, b_path.values + k_rho,
                            b_path.values)
    rho_energy = 0.5 * float(np.sum(cells**2) * grid.dt)
    return x, y, rho_energy


def gronwall_coupling_bound(grid: TimeGrid, rho: np.ndarray, one_sided_b: float,
                            sigma_sup: float, h: HurstParam) -> np.ndarray:
    """Pointwise bound for |X_t - Y_t|^2 from the Gronwall coupling estimate:

        (2/|B|) H T^{2H-1} ||sigma||_inf^2 int_0^t e^{(2B+|B|)(t-s)} |rho(s)|^2 ds,

    evaluated exactly for piecewise-constant |rho|^2 on the grid cells by
    the recursion I_i = e^{c dt} I_{i-1} + |rho|^2_{i-1} (e^{c dt} - 1) / c
    (dt for the last factor when c = 2B + |B| vanishes) of the integral to t_i.
    """
    B = one_sided_b
    if B == 0.0:
        raise ValueError("one-sided constant B must be nonzero")
    rho = np.asarray(rho, dtype=float).reshape(len(rho), -1)
    r2 = np.sum(cell_values(rho)**2, axis=1)
    c = 2 * B + abs(B)
    dt = grid.dt
    growth = np.exp(c * dt)
    cell = dt if abs(c) < 1e-14 else np.expm1(c * dt) / c
    out = np.zeros(grid.n_steps + 1)
    for i in range(1, grid.n_steps + 1):
        out[i] = growth * out[i - 1] + r2[i - 1] * cell
    return (2.0 / abs(B)) * h.h * grid.t_max ** (2 * h.h - 1) * sigma_sup**2 * out
