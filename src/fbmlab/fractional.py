"""Fractional derivatives, Young integrals and the Volterra-kernel operators.

The left Riemann-Liouville derivative is that of the piecewise-linear
interpolant of the nodes, in closed form: the interpolant is absolutely
continuous with a constant slope on each cell, so its derivative is the
f(a) term plus the slopes weighted by the exact cell integrals of
(t-s)^{-alpha}.  On a uniform grid those weights depend only on the lag,
so the derivative at every node is one (direct, O(n^2)) convolution of
the increments.  The right derivative is the same kernel applied to the
reflected path.

Two routes to the Young integral int f dg are provided: the left-point
Riemann-Stieltjes sum (the oracle) and the fractional-derivative
representation; the latter composes a left derivative of order alpha with a
right derivative of order 1-alpha.  The two complex phases of the right
derivative and of the representation cancel, so everything here is real:
the composed formula carries a single overall minus sign.

The Volterra-kernel operators are K (`operator_kh`, the transfer of the
cell values rho(mid_k) dt) and its adjoint K* at given points
(`operator_kh_star_at`, exact for piecewise-constant phi).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .fbm import (
    HurstParam,
    fgn_autocovariance,
    kernel_kh_fast,
    transfer_from_wiener_increments,
    transfer_kernel_matrix,
)
from .fixtures import calibrated_constants
from .grid import GridFunction, TimeGrid, cell_values, holder_norm


@dataclass(frozen=True)
class FracOrder:
    """Order of a fractional derivative, restricted to (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must be in (0, 1), got {self.alpha}")


def default_frac_order(beta: float) -> FracOrder:
    """Midpoint of the admissible interval (1 - beta, 1/2) for beta-Holder data.

    Keeps the evaluation point maximally far from both quadrature
    singularities.
    """
    if not 0.5 < beta < 1.0:
        raise ValueError(f"need 1/2 < beta < 1, got {beta}")
    return FracOrder((1.5 - beta) / 2.0)


@dataclass
class BoundReport:
    """lhs <= rhs verdict with the dimensionless ratio that calibrates it."""

    lhs: float
    rhs: float
    ratio: float
    passed: bool
    context: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Riemann-Liouville derivatives of the piecewise-linear interpolant
# ---------------------------------------------------------------------------

def frac_deriv_left_nodes(values: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """D^alpha_{a+} f at every node of a uniform grid, f the piecewise-linear
    interpolant of values (values[0] at t = a).

    For absolutely continuous f,

        D^alpha_{a+} f(t) = [f(a) (t-a)^{-alpha}
                             + int_a^t f'(s) (t-s)^{-alpha} ds] / Gamma(1-alpha),

    and the interpolant's slope is constant on each cell, so node i holds
    h^{-alpha} / Gamma(2-alpha) times sum_j (f_{i-j} - f_{i-j-1}) w_j with
    w_j = (j+1)^{1-alpha} - j^{1-alpha}: one convolution, exact up to
    rounding.  At t = a the derivative is 0 when f(a) = 0 and diverges
    otherwise (NaN); the f(a) term is added only when f(a) != 0.
    """
    f = np.asarray(values, dtype=float)
    n = len(f) - 1
    if n < 1:
        raise ValueError("need at least two nodes")
    lags = np.arange(n + 1, dtype=float)
    w = np.diff(lags ** (1 - alpha))
    out = np.zeros(n + 1)
    out[1:] = np.convolve(np.diff(f), w)[:n] * (h ** -alpha / special.gamma(2 - alpha))
    if f[0] != 0.0:
        out[1:] += f[0] * (lags[1:] * h) ** -alpha / special.gamma(1 - alpha)
        out[0] = np.nan
    return out


def frac_deriv_right_nodes(values: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Real-valued right derivative D^alpha_{b-} g_{b-} at every node.

    D^alpha_{b-} g_{b-}(t) is the left derivative D^alpha_{0+} of the
    reflected path u -> g(b - u) - g(b) at u = b - t, so it runs the left
    kernel on the reversed values; the node t = b holds 0.

    Phase convention: the (-1)^alpha factor of the right derivative is not
    applied here; it cancels against the phase of the integral
    representation, which carries the single minus sign instead (see
    young_integral_frac).
    """
    g = np.asarray(values, dtype=float)
    return frac_deriv_left_nodes((g - g[-1])[::-1], h, alpha)[::-1]


def _window(f: GridFunction, a: float, b: float):
    ia, ib = f.grid.index_of(a), f.grid.index_of(b)
    if ib <= ia:
        raise ValueError(f"need a < b on the grid, got a={a}, b={b}")
    return ia, ib


def frac_deriv_left(f: GridFunction, alpha: FracOrder, a: float, t: float) -> float:
    """Left fractional derivative of order alpha at a single node t > a."""
    ia, it = _window(f, a, t)
    vals = f.values[ia:it + 1]
    out = frac_deriv_left_nodes(vals, f.grid.dt, alpha.alpha)
    return float(out[-1])


def young_integral_rs(f: GridFunction, g: GridFunction, a: float, b: float) -> float:
    """Left-point Riemann-Stieltjes sum sum f(t_k)(g(t_{k+1}) - g(t_k))."""
    if f.grid != g.grid:
        raise ValueError("f and g must share one grid")
    ia, ib = _window(f, a, b)
    fv = f.values[ia:ib]
    dg = np.diff(g.values[ia:ib + 1])
    return float(fv @ dg)


def young_integral_frac(f: GridFunction, g: GridFunction,
                        alpha: FracOrder, a: float, b: float) -> float:
    """Young integral through fractional derivatives.

    int_a^b f dg = f(a) (g(b) - g(a))
                   - int_a^b D^alpha_{a+}(f - f(a))(t) D^{1-alpha}_{b-} g_{b-}(t) dt

    Centering by f(a) keeps the left-derivative integrand bounded at t = a.
    """
    if f.grid != g.grid:
        raise ValueError("f and g must share one grid")
    ia, ib = _window(f, a, b)
    h = f.grid.dt
    fv = f.values[ia:ib + 1]
    gv = g.values[ia:ib + 1]
    f0 = fv[0]
    df = frac_deriv_left_nodes(fv - f0, h, alpha.alpha)
    dg = frac_deriv_right_nodes(gv, h, 1.0 - alpha.alpha)
    integrand = df * dg
    core = float(np.trapezoid(integrand, dx=h))
    return f0 * (gv[-1] - gv[0]) - core


def lemma_esti_int_check(f: GridFunction, g: GridFunction, beta: float,
                         a: float, b: float) -> BoundReport:
    """Check |int_a^b f dg| against the Holder-norm bracket bound.

    rhs = (kappa_hat / (beta - 1/2)) * ||g||_{0,T,beta}
          * [ ||f||_{a,b,inf} (b-a)^beta + ||f||_{a,b,beta} (b-a)^{2 beta} ].

    kappa_hat is the calibrated fixture (the analytic constant is not
    numeric here); the report carries ratio = lhs / bracket, and the bracket
    in its context, so it can be re-estimated.
    """
    return esti_int_bound(f, g, holder_norm(g.grid, g.values, beta).seminorm_beta,
                          beta, a, b)


def esti_int_bound(f: GridFunction, g: GridFunction, g_seminorm: float,
                   beta: float, a: float, b: float) -> BoundReport:
    """The bracket bound of lemma_esti_int_check given g_seminorm =
    ||g||_{0,T,beta}, which an ensemble sweep takes from one
    holder_seminorm_ensemble call for all its g paths."""
    if not 0.5 < beta < 1.0:
        raise ValueError(f"need 1/2 < beta < 1, got {beta}")
    kappa_hat = calibrated_constants()["kappa_hat"]
    lhs = abs(young_integral_rs(f, g, a, b))
    fn = holder_norm(f.grid, f.values, beta, window=(a, b))
    bracket = g_seminorm * (fn.sup_norm * (b - a) ** beta
                            + fn.seminorm_beta * (b - a) ** (2 * beta))
    rhs = kappa_hat / (beta - 0.5) * bracket
    ratio = lhs / bracket if bracket > 0 else 0.0
    return BoundReport(
        lhs=lhs, rhs=rhs, ratio=ratio, passed=bool(lhs <= rhs or lhs == 0.0),
        context={"beta": beta, "kappa_hat": kappa_hat, "window": (a, b),
                 "bracket": bracket},
    )


# ---------------------------------------------------------------------------
# Volterra-kernel operators
# ---------------------------------------------------------------------------

def operator_kh_star_at(phi_cells: np.ndarray, grid: TimeGrid, h: HurstParam,
                        s: np.ndarray) -> np.ndarray:
    """(K* phi)(s) = int_s^T phi(r) dK/dr (r, s) dr for piecewise-constant
    phi, exact per cell.

    Uses int_{r0}^{r1} dK/dr (r, s) dr = K(r1, s) - K(r0, s), so each cell
    contributes a kernel difference and no singular quadrature is needed.
    """
    s = np.asarray(s, dtype=float)
    k = kernel_kh_fast(grid.points[:, None], s.reshape(1, -1), h)
    return (phi_cells @ np.diff(k, axis=0)).reshape(s.shape)


def operator_kh(rho: GridFunction, h: HurstParam) -> GridFunction:
    """K operator: (K rho)(t) = int_0^t K(t, s) rho(s) ds on the grid.

    Midpoint rule over the cells, i.e. the Volterra transfer of the
    increments rho(mid_k) dt.  The output is Holder-H with seminorm bounded
    by a constant times ||rho||_{L2}.
    """
    grid = rho.grid
    vals = transfer_from_wiener_increments(transfer_kernel_matrix(grid, h),
                                           cell_values(rho.values) * grid.dt)
    return GridFunction(grid=grid, values=vals)


def l2_norm_cells(f: GridFunction) -> float:
    """L2(0, T) norm using cell-midpoint values."""
    cells = cell_values(f.values)
    return float(np.sqrt(np.sum(cells**2) * f.grid.dt))


def scalar_product_h_cells(phi_cells: np.ndarray, psi_cells: np.ndarray,
                           grid: TimeGrid, h: HurstParam) -> float:
    """<phi, psi>_H for piecewise-constant functions, exact cell integration.

    The double integral of H(2H-1)|s-t|^{2H-2} over cells i and j is the
    double difference of -|s-t|^{2H}/2 over their corners, the fGn
    autocovariance gamma(|i - j|): phi Gamma psi is exact for step functions.
    """
    gamma = fgn_autocovariance(grid.n_steps, h.h, grid.dt)
    cells = np.arange(grid.n_steps)
    return float(phi_cells @ gamma[np.abs(cells[:, None] - cells)] @ psi_cells)


def scalar_product_h(phi: GridFunction, psi: GridFunction,
                     h: HurstParam) -> tuple[float, float]:
    """Scalar product <phi, psi>_H and the L2 comparison bound.

    Returns (value, bound) where bound = 2 H T^{2H-1} ||phi|| ||psi|| in L2
    with T the grid horizon; for phi = psi this is the upper bound the
    scalar product must respect.
    """
    grid = phi.grid
    if psi.grid != grid:
        raise ValueError("phi and psi must share one grid")
    val = scalar_product_h_cells(cell_values(phi.values), cell_values(psi.values), grid, h)
    bound = 2.0 * h.h * grid.t_max ** (2 * h.h - 1) * l2_norm_cells(phi) * l2_norm_cells(psi)
    return val, bound
