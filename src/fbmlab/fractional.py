"""Fractional derivatives, Young integrals and the Volterra-kernel operator.

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

The Volterra-kernel operator K (`operator_kh`) is the transfer of the cell
values rho(mid_k) dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .fbm import HurstParam, transfer_from_wiener_increments, transfer_kernel_matrix
from .fixtures import calibrated_constants
from .grid import GridFunction, cell_values, holder_norm


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


def _shared_window(f: GridFunction, g: GridFunction, a: float, b: float) -> tuple[int, int]:
    """TimeGrid.window(a, b) on the one grid of f and g (else ValueError)."""
    if f.grid != g.grid:
        raise ValueError("f and g must share one grid")
    return f.grid.window(a, b)


def young_integral_rs(f: GridFunction, g: GridFunction, a: float, b: float) -> float:
    """Left-point Riemann-Stieltjes sum sum f(t_k)(g(t_{k+1}) - g(t_k))."""
    ia, ib = _shared_window(f, g, a, b)
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
    ia, ib = _shared_window(f, g, a, b)
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
# Volterra-kernel operator
# ---------------------------------------------------------------------------

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
