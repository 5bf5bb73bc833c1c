"""Pathwise Euler solvers for SDEs driven by Holder-rough paths (H > 1/2).

The stochastic term is a Young integral, so the explicit left-point Euler
recursion is its canonical discretization:

    X_{k+1} = X_k + b(X_k) dt + sigma(t_k) (g_{k+1} - g_k).

For scalar state-dependent diffusion a second, independent discretization
goes through the Lamperti change of variables F(y) = int_0^y dz / sigma(z),
which turns the equation into one with unit diffusion; the two routes
cross-validate each other.

The module also hosts the driver-stability experiment (two solutions driven
by different rough paths) and the drift-coupled pair used to probe the
Girsanov-type coupling bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, optimize

from .fbm import FbmPath, HurstParam, sample_fbm_circulant, transfer_kernel_matrix
from .grid import GridFunction, TimeGrid, holder_norm
from .fractional import operator_kh


@dataclass
class DriftSpec:
    """Drift field with caller-declared regularity constants.

    The constants enter bound computations as declarations; spot_check
    verifies them empirically on random samples and reports violations
    without failing (the theory treats them as given).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dimension: int = 1
    lipschitz: float = 0.0          # L_b
    sup_bound: float = np.inf       # sup |b|
    one_sided: float | None = None  # B with <x-y, b(x)-b(y)> <= B |x-y|^2

    def __call__(self, x):
        return self.fn(x)

    def spot_check(self, rng: np.random.Generator, n_pairs: int = 1000,
                   scale: float = 2.0) -> dict:
        """Empirically probe the declared constants on random point pairs."""
        d = self.dimension
        x = rng.normal(scale=scale, size=(n_pairs, d))
        y = rng.normal(scale=scale, size=(n_pairs, d))
        bx = np.array([np.atleast_1d(self.fn(xi)) for xi in x])
        by = np.array([np.atleast_1d(self.fn(yi)) for yi in y])
        gap = np.linalg.norm(x - y, axis=1)
        lip = np.linalg.norm(bx - by, axis=1) / np.maximum(gap, 1e-12)
        report = {"lipschitz_emp": float(lip.max()),
                  "lipschitz_ok": bool(lip.max() <= self.lipschitz * (1 + 1e-9))}
        if self.one_sided is not None:
            one = np.sum((x - y) * (bx - by), axis=1) / np.maximum(gap**2, 1e-12)
            report["one_sided_emp"] = float(one.max())
            report["one_sided_ok"] = bool(one.max() <= self.one_sided + 1e-9)
        return report


@dataclass
class TimeDiffusion:
    """Time-dependent matrix diffusion sigma(s) in R^{d x m}."""

    fn: Callable[[float], np.ndarray]
    holder_beta: float = 1.0

    def matrix(self, t: float, d: int, m: int) -> np.ndarray:
        out = np.atleast_2d(np.asarray(self.fn(t), dtype=float))
        if out.shape != (d, m):
            out = np.broadcast_to(out, (d, m))
        return out

    def holder_norm_on(self, grid: TimeGrid, d: int, m: int, beta: float) -> float:
        """||sigma||_beta = sup + beta-seminorm over the grid (Frobenius)."""
        mats = np.array([self.matrix(t, d, m).ravel() for t in grid.points])
        hn = holder_norm(grid, mats, beta)
        return hn.total


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

    def __call__(self, x):
        return self.fn(x)

    def spot_check(self, rng: np.random.Generator, n_points: int = 1000,
                   scale: float = 3.0) -> dict:
        x = rng.normal(scale=scale, size=n_points)
        vals = np.array([self.fn(v) for v in x])
        return {
            "bounds_ok": bool(np.all((vals >= self.sigma1 - 1e-12)
                                     & (vals <= self.sigma2 + 1e-12))),
            "min": float(vals.min()), "max": float(vals.max()),
        }


@dataclass(frozen=True)
class SolutionPath:
    grid: TimeGrid
    values: np.ndarray          # (n_steps + 1, d)
    x0: np.ndarray
    driver_ref: str
    scheme_tag: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("solution path contains non-finite entries")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))


@dataclass
class StabilityReport:
    """Driver-perturbation experiment output.

    ratio = ||x - x~||_inf / (||sigma||_beta ||g - g~||_beta T^beta); the
    small-horizon validity flag delta_ok records T <= stability_horizon(L_b).
    """

    sup_dist: float
    driver_gap: float
    sigma_norm: float
    horizon: float
    beta: float
    ratio: float
    delta_ok: bool


class BlowUpError(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"non-finite state at Euler step {step}")
        self.step = step


def _driver_array(driver, m: int | None = None) -> tuple[TimeGrid, np.ndarray]:
    if isinstance(driver, FbmPath):
        return driver.grid, driver.values
    if isinstance(driver, GridFunction):
        return driver.grid, driver.values[:, None]
    if isinstance(driver, tuple) and len(driver) == 2:
        grid, vals = driver
        vals = np.asarray(vals, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return grid, vals
    raise TypeError(f"unsupported driver type {type(driver)}")


def solve_additive(x0, drift: DriftSpec, sigma_t: TimeDiffusion, driver,
                   driver_ref: str = "") -> SolutionPath:
    """Euler solution of dX = b(X) dt + sigma(t) dg with time-only sigma."""
    grid, g = _driver_array(driver)
    n, m = grid.n_steps, g.shape[1]
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = len(x0)
    dt = grid.dt
    sig = np.array([sigma_t.matrix(t, d, m) for t in grid.points[:-1]])
    dg = np.diff(g, axis=0)
    vals = np.empty((n + 1, d))
    vals[0] = x0
    x = x0.copy()
    # an overflowing step is reported by the finiteness guard, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            x = x + np.atleast_1d(drift.fn(x)) * dt + sig[k] @ dg[k]
            if not np.all(np.isfinite(x)):
                raise BlowUpError(k + 1)
            vals[k + 1] = x
    return SolutionPath(grid=grid, values=vals, x0=x0,
                        driver_ref=driver_ref, scheme_tag="euler_additive")


def solve_scalar(x0: float, drift: DriftSpec, sigma_x: ScalarDiffusion, driver,
                 driver_ref: str = "") -> SolutionPath:
    """Euler solution of the scalar equation dX = b(X) dt + sigma(X) dg."""
    grid, g = _driver_array(driver)
    if g.shape[1] != 1:
        raise ValueError("scalar equation needs a one-component driver")
    n = grid.n_steps
    dt = grid.dt
    dg = np.diff(g[:, 0])
    vals = np.empty(n + 1)
    vals[0] = x0
    x = float(x0)
    for k in range(n):
        x = x + float(np.atleast_1d(drift.fn(x))[0]) * dt + sigma_x.fn(x) * dg[k]
        if not np.isfinite(x):
            raise BlowUpError(k + 1)
        vals[k + 1] = x
    return SolutionPath(grid=grid, values=vals[:, None], x0=[x0],
                        driver_ref=driver_ref, scheme_tag="euler_scalar")


def euler_additive_ensemble(x0: float, b: Callable[[np.ndarray], np.ndarray],
                            drivers: np.ndarray, dt: float) -> np.ndarray:
    """Vectorized scalar Euler over a whole ensemble, sigma = 1.

    drivers has shape (n_paths, n_nodes); returns the same shape.
    """
    n_paths, n_nodes = drivers.shape
    out = np.empty_like(drivers)
    out[:, 0] = x0
    dg = np.diff(drivers, axis=1)
    x = np.full(n_paths, float(x0))
    for k in range(n_nodes - 1):
        x = x + b(x) * dt + dg[:, k]
        out[:, k + 1] = x
    if not np.all(np.isfinite(out)):
        raise BlowUpError(-1)
    return out


# ---------------------------------------------------------------------------
# Lamperti transform
# ---------------------------------------------------------------------------

def lamperti_forward(sigma_x: ScalarDiffusion, y: float) -> float:
    """F(y) = int_0^y dz / sigma(z) by adaptive quadrature."""
    if y == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda z: 1.0 / sigma_x.fn(z), 0.0, y,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
    return float(val)


def lamperti_inverse(sigma_x: ScalarDiffusion, z: float) -> float:
    """F^{-1}(z) by monotone bracketing root-finding to 1e-12.

    The slope bounds 1/sigma2 <= F' <= 1/sigma1 give the bracket
    [sigma1 z, sigma2 z] (signed).
    """
    if z == 0.0:
        return 0.0
    lo, hi = sorted((sigma_x.sigma1 * z, sigma_x.sigma2 * z))
    pad = 1e-9 * (abs(z) + 1.0)
    lo, hi = lo - pad, hi + pad
    f = lambda y: lamperti_forward(sigma_x, y) - z
    try:
        return float(optimize.brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16))
    except ValueError as exc:
        raise ArithmeticError(
            f"Lamperti inverse bracketing failed at z={z}; sigma bounds "
            f"sigma1={sigma_x.sigma1}, sigma2={sigma_x.sigma2} may be violated"
        ) from exc


def solve_scalar_via_lamperti(x0: float, drift: DriftSpec,
                              sigma_x: ScalarDiffusion, driver,
                              driver_ref: str = "") -> SolutionPath:
    """Scalar equation through the unit-diffusion change of variables.

    Solves dY = b(F^{-1}(Y))/sigma(F^{-1}(Y)) dt + dg with Y_0 = F(x0) and
    maps back X = F^{-1}(Y).  The inverse along the trajectory is tracked
    with warm-started Newton steps (F' = 1/sigma known), falling back to
    bracketed root-finding if Newton stalls.
    """
    grid, g = _driver_array(driver)
    if g.shape[1] != 1:
        raise ValueError("scalar equation needs a one-component driver")
    n = grid.n_steps
    dt = grid.dt
    dg = np.diff(g[:, 0])
    y = lamperti_forward(sigma_x, x0)
    x = float(x0)        # tracked F^{-1}(y)
    fx = y               # F(x) for the incremental update
    vals = np.empty(n + 1)
    vals[0] = x0
    for k in range(n):
        btilde = float(np.atleast_1d(drift.fn(x))[0]) / sigma_x.fn(x)
        y = y + btilde * dt + dg[k]
        x, fx = _invert_warm(sigma_x, y, x, fx)
        if not np.isfinite(x):
            raise BlowUpError(k + 1)
        vals[k + 1] = x
    return SolutionPath(grid=grid, values=vals[:, None], x0=[x0],
                        driver_ref=driver_ref, scheme_tag="euler_lamperti")


def _invert_warm(sigma_x: ScalarDiffusion, z: float, x_guess: float,
                 f_guess: float) -> tuple[float, float]:
    """Solve F(x) = z starting from (x_guess, F(x_guess))."""
    x, fx = x_guess, f_guess
    for _ in range(50):
        err = fx - z
        if abs(err) < 1e-13:
            return x, fx
        x_new = x - err * sigma_x.fn(x)
        step, _ = integrate.quad(lambda u: 1.0 / sigma_x.fn(u), x, x_new,
                                 epsabs=1e-14, epsrel=1e-12, limit=100)
        fx = fx + step
        x = x_new
    # Newton stalled; bracketed fallback
    x = lamperti_inverse(sigma_x, z)
    return x, z


def lamperti_drift_lipschitz_bound(drift: DriftSpec, sigma_x: ScalarDiffusion) -> float:
    """Declared Lipschitz bound for b(F^{-1})/sigma(F^{-1}):
    sigma2 (L_b sigma2 + L_sigma B_sup) / sigma1^2."""
    return (sigma_x.sigma2 / sigma_x.sigma1**2
            * (drift.lipschitz * sigma_x.sigma2
               + sigma_x.lipschitz * drift.sup_bound))


# ---------------------------------------------------------------------------
# Stability and coupling experiments
# ---------------------------------------------------------------------------

def stability_horizon(L_b: float) -> float:
    """Delta = min(1, 1/(2 L_b)) (1 for L_b = 0): the driver-stability
    estimate for a drift of Lipschitz constant L_b holds for T <= Delta."""
    return min(1.0, 1.0 / (2 * L_b)) if L_b > 0 else 1.0


def coupled_stability(x0, drift: DriftSpec, sigma_t: TimeDiffusion,
                      g, g_tilde, beta: float, T: float | None = None) -> StabilityReport:
    """Solve with two drivers and report the normalized sup distance."""
    grid, gv = _driver_array(g)
    _, gtv = _driver_array(g_tilde)
    if T is None:
        T = grid.t_max
    x = solve_additive(x0, drift, sigma_t, (grid, gv))
    xt = solve_additive(x0, drift, sigma_t, (grid, gtv))
    sup_dist = float(np.linalg.norm(x.values - xt.values, axis=1).max())
    gap = holder_norm(grid, gv - gtv, beta).seminorm_beta
    d, m = x.values.shape[1], gv.shape[1]
    sig_norm = sigma_t.holder_norm_on(grid, d, m, beta)
    denom = sig_norm * gap * T**beta
    ratio = sup_dist / denom if denom > 0 else 0.0
    return StabilityReport(sup_dist=sup_dist, driver_gap=gap, sigma_norm=sig_norm,
                           horizon=T, beta=beta, ratio=ratio,
                           delta_ok=bool(T <= stability_horizon(drift.lipschitz)))


def drift_coupled_pair(x0, drift: DriftSpec, sigma_t: TimeDiffusion,
                       rho: np.ndarray, h: HurstParam, grid: TimeGrid,
                       seed: int, path_index: int = 0,
                       kernel: np.ndarray | None = None):
    """Coupled solutions sharing one fBm, differing by a smooth drift.

    Y solves dY = b(Y) dt + sigma(t) dB; X additionally sees the absolutely
    continuous perturbation sigma(t) d(K rho)(t).  rho is an (n_steps + 1, m)
    node-sampled square-integrable function.  Returns (x_path, y_path,
    rho_energy) with rho_energy = (1/2) int |rho|^2 dt.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim == 1:
        rho = rho[:, None]
    m = rho.shape[1]
    if kernel is None:
        kernel = transfer_kernel_matrix(grid, h)
    b_path = sample_fbm_circulant(grid, h, m, seed, path_index=path_index)
    k_rho = np.column_stack([
        operator_kh(GridFunction(grid, rho[:, j]), h, kernel=kernel).values
        for j in range(m)
    ])
    y = solve_additive(x0, drift, sigma_t, (grid, b_path.values), driver_ref="fbm")
    x = solve_additive(x0, drift, sigma_t, (grid, b_path.values + k_rho),
                       driver_ref="fbm+K_rho")
    cells = 0.5 * (rho[:-1] + rho[1:])
    rho_energy = 0.5 * float(np.sum(cells**2) * grid.dt)
    return x, y, rho_energy


def gronwall_coupling_bound(grid: TimeGrid, rho: np.ndarray, one_sided_b: float,
                            sigma_sup: float, h: HurstParam) -> np.ndarray:
    """Pointwise bound for |X_t - Y_t|^2 from the Gronwall coupling estimate:

        (2/|B|) H T^{2H-1} ||sigma||_inf^2 int_0^t e^{(2B+|B|)(t-s)} |rho(s)|^2 ds,

    evaluated exactly for piecewise-constant |rho|^2 on the grid cells.
    """
    B = one_sided_b
    if B == 0.0:
        raise ValueError("one-sided constant B must be nonzero")
    rho = np.asarray(rho, dtype=float)
    if rho.ndim == 1:
        rho = rho[:, None]
    cells = 0.5 * (rho[:-1] + rho[1:])
    r2 = np.sum(cells**2, axis=1)
    c = 2 * B + abs(B)
    T = grid.t_max
    pts = grid.points
    n = grid.n_steps
    out = np.zeros(n + 1)
    for i in range(1, n + 1):
        t = pts[i]
        s0, s1 = pts[:i], pts[1:i + 1]
        if abs(c) < 1e-14:
            seg = s1 - s0
        else:
            seg = (np.exp(c * (t - s0)) - np.exp(c * (t - s1))) / c
        out[i] = np.sum(r2[:i] * seg)
    return (2.0 / abs(B)) * h.h * T ** (2 * h.h - 1) * sigma_sup**2 * out
