"""Fractional derivatives, Young integrals and the Volterra-kernel operators.

The left/right Riemann-Liouville derivatives are evaluated by product
integration: on each grid cell the function is replaced by its linear
interpolant and the singular weight (t-s)^{-alpha-1} is integrated exactly.
On a uniform grid the resulting weights depend only on the lag, so the
derivative at every node costs one convolution.

Two routes to the Young integral int f dg are provided: the left-point
Riemann-Stieltjes sum (the oracle) and the fractional-derivative
representation; the latter composes a left derivative of order alpha with a
right derivative of order 1-alpha.  The two complex phases of the right
derivative and of the representation cancel, so everything here is real:
the composed formula carries a single overall minus sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .fbm import HurstParam, kernel_kh_fast
from .grid import GridFunction, TimeGrid, holder_norm


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
# Product-integration weights (uniform grid, lag-indexed)
# ---------------------------------------------------------------------------

def _left_weights(n: int, h: float, alpha: float):
    """Lag kernels for the compensated left integral at every node."""
    lags = np.arange(n + 1, dtype=float)
    w = lags * h
    with np.errstate(divide="ignore"):
        p1 = np.zeros(n + 1)
        p1[2:] = (w[1:n] ** -alpha - w[2:] ** -alpha) / alpha
        p2 = np.zeros(n + 1)
        p2[2:] = (w[2:] ** (1 - alpha) - w[1:n] ** (1 - alpha)) / (1 - alpha)
    return w, p1, p2


def frac_deriv_left_nodes(values: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """D^alpha_{a+} f at every grid node of a uniform grid.

    values[0] corresponds to t = a.  At the left endpoint the derivative is
    the a.e. limit 0 when f(a) = 0 and diverges otherwise; the returned
    array stores the f(a)/(t-a)^alpha term evaluated at the nodes t > a and
    0 at t = a.
    """
    f = np.asarray(values, dtype=float)
    n = len(f) - 1
    if n < 1:
        raise ValueError("need at least two nodes")
    m = np.diff(f) / h
    w, p1, p2 = _left_weights(n, h, alpha)

    # integral I_i = sum over cells; split into convolutions over the lag.
    sum_p1 = np.cumsum(p1)                                   # sum_{l<=i} p1_l
    conv_f = np.convolve(f, p1)[: n + 1]                     # sum_l f_{i-l} p1_l
    g_ker = p2 - w * p1
    conv_m = np.convolve(m, g_ker)[: n + 1]                  # sum_l m_{i-l} g_l
    integral = f * sum_p1 - conv_f + conv_m
    # final cell (lag 1): singular part cancels exactly for the interpolant
    integral[1:] += m * h ** (1 - alpha) / (1 - alpha)

    out = np.zeros(n + 1)
    t_rel = w  # t_i - a
    out[1:] = (f[1:] / t_rel[1:] ** alpha + alpha * integral[1:]) / special.gamma(1 - alpha)
    if f[0] != 0.0:
        # limit at t=a is infinite; keep the node finite only for f(a)=0
        out[0] = np.nan
    return out


def frac_deriv_right_nodes(values: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Real-valued right derivative D^alpha_{b-} g_{b-} at every node.

    Phase convention: the (-1)^alpha factor of the right derivative is not
    applied here; it cancels against the phase of the integral
    representation, which carries the single minus sign instead (see
    young_integral_frac).
    """
    g = np.asarray(values, dtype=float)
    n = len(g) - 1
    if n < 1:
        raise ValueError("need at least two nodes")
    m = np.diff(g) / h
    lags = np.arange(n + 1, dtype=float)
    v = lags * h
    q1 = np.zeros(n + 1)
    q1[1:] = (v[1:] ** -alpha - (v[1:] + h) ** -alpha) / alpha
    q2 = np.zeros(n + 1)
    q2[1:] = ((v[1:] + h) ** (1 - alpha) - v[1:] ** (1 - alpha)) / (1 - alpha)

    # I_i = sum_{l>=1} [(g_i - g_{i+l} + m_{i+l} l h) q1_l - m_{i+l} q2_l]
    #       - m_i h^{1-alpha}/(1-alpha)
    sum_q1 = np.cumsum(q1)[::-1]                   # sum_{l <= n-i} q1_l
    rev = np.convolve(g[::-1], q1)[: n + 1][::-1]  # sum_l g_{i+l} q1_l
    g_ker = q2 - v * q1
    rev_m = np.zeros(n + 1)
    rev_m[: n] = np.convolve(m[::-1], g_ker)[: n][::-1]  # sum_l m_{i+l} g_l
    integral = g * sum_q1 - rev - rev_m
    # cumsum/convolution ranges include the phantom lag n - i (a cell past b)
    integral[: n] -= (g[: n] - g[n]) * q1[::-1][: n]
    integral[: n] -= m * h ** (1 - alpha) / (1 - alpha)

    out = np.zeros(n + 1)
    bt = v[::-1]  # b - t_i
    out[: n] = ((g[: n] - g[n]) / bt[: n] ** alpha + alpha * integral[: n]) \
        / special.gamma(1 - alpha)
    return out


def _window(f: GridFunction, a: float, b: float):
    ia, ib = f.grid.index_of(a), f.grid.index_of(b)
    if ib <= ia:
        raise ValueError(f"need a < b on the grid, got a={a}, b={b}")
    return ia, ib


def frac_deriv_left(f: GridFunction, alpha: FracOrder, a: float, t: float) -> float:
    """Left fractional derivative of order alpha at a single node t > a."""
    if t <= a:
        raise ValueError(f"need a < t, got a={a}, t={t}")
    ia, it = _window(f, a, t)
    vals = f.values[ia:it + 1]
    out = frac_deriv_left_nodes(vals, f.grid.dt, alpha.alpha)
    return float(out[-1])


def frac_deriv_right(g: GridFunction, alpha: FracOrder, b: float, t: float) -> float:
    """Right fractional derivative (real convention) at a single node t < b."""
    if t >= b:
        raise ValueError(f"need t < b, got t={t}, b={b}")
    it, ib = _window(g, t, b)
    vals = g.values[it:ib + 1]
    out = frac_deriv_right_nodes(vals, g.grid.dt, alpha.alpha)
    return float(out[0])


def young_integral_rs(f: GridFunction, g: GridFunction, a: float, b: float) -> float:
    """Left-point Riemann-Stieltjes sum sum f(t_k)(g(t_{k+1}) - g(t_k))."""
    if f.grid.n_steps != g.grid.n_steps or f.grid.t_max != g.grid.t_max:
        raise ValueError("f and g must share one grid")
    ia, ib = _window(f, a, b)
    fv = f.values[ia:ib]
    dg = np.diff(g.values[ia:ib + 1])
    return float(fv @ dg)


def young_integral_frac(f: GridFunction, g: GridFunction,
                        alpha: FracOrder | None, a: float, b: float,
                        holder_check: tuple[float, float] | None = None) -> float:
    """Young integral through fractional derivatives.

    int_a^b f dg = f(a) (g(b) - g(a))
                   - int_a^b D^alpha_{a+}(f - f(a))(t) D^{1-alpha}_{b-} g_{b-}(t) dt

    Centering by f(a) keeps the left-derivative integrand bounded at t = a.
    If holder_check = (beta_f, beta_g) is given, the empirical grid Holder
    exponent condition beta_f > alpha, beta_g > 1 - alpha is verified and a
    warning attached on violation (non-fatal).
    """
    if alpha is None:
        alpha = default_frac_order(0.75)
    if f.grid.n_steps != g.grid.n_steps or f.grid.t_max != g.grid.t_max:
        raise ValueError("f and g must share one grid")
    if holder_check is not None:
        beta_f, beta_g = holder_check
        if beta_f <= alpha.alpha or beta_g <= 1 - alpha.alpha:
            import warnings
            warnings.warn(
                f"Holder precondition violated: beta_f={beta_f}, "
                f"beta_g={beta_g}, alpha={alpha.alpha}", RuntimeWarning,
            )
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
                         a: float, b: float,
                         kappa_hat: float | None = None) -> BoundReport:
    """Check |int_a^b f dg| against the Holder-norm bracket bound.

    rhs = (kappa_hat / (beta - 1/2)) * ||g||_{0,T,beta}
          * [ ||f||_{a,b,inf} (b-a)^beta + ||f||_{a,b,beta} (b-a)^{2 beta} ].

    kappa_hat is a calibrated constant (the analytic constant is not numeric
    here); the report carries ratio = lhs / bracket, and the bracket in its
    context, so it can be re-estimated.
    """
    if not 0.5 < beta < 1.0:
        raise ValueError(f"need 1/2 < beta < 1, got {beta}")
    if kappa_hat is None:
        from .fixtures import calibrated_constants
        kappa_hat = calibrated_constants()["kappa_hat"]
    lhs = abs(young_integral_rs(f, g, a, b))
    g_norm = holder_norm(g.grid, g.values, beta).seminorm_beta
    fn = holder_norm(f.grid, f.values, beta, window=(a, b))
    bracket = g_norm * (fn.sup_norm * (b - a) ** beta
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

def _cell_values(f: GridFunction) -> np.ndarray:
    return 0.5 * (f.values[:-1] + f.values[1:])


def operator_kh_star_at(phi_cells: np.ndarray, grid: TimeGrid, h: HurstParam,
                        s: np.ndarray) -> np.ndarray:
    """(K* phi)(s) for piecewise-constant phi, exact per cell.

    Uses int_{r0}^{r1} dK/dr (r, s) dr = K(r1, s) - K(r0, s), so each cell
    contributes a kernel difference and no singular quadrature is needed.
    """
    s = np.asarray(s, dtype=float)
    pts = grid.points
    out = np.zeros(s.shape)
    for k in range(grid.n_steps):
        if phi_cells[k] == 0.0:
            continue
        out += phi_cells[k] * (kernel_kh_fast(pts[k + 1], s, h)
                               - kernel_kh_fast(pts[k], s, h))
    return out


def operator_kh_star(phi: GridFunction, h: HurstParam, T: float | None = None) -> GridFunction:
    """K* operator on the grid: (K* phi)(s) = int_s^T phi(r) dK/dr (r, s) dr.

    phi is read as piecewise constant with the cell-midpoint values.  The
    output diverges like s^{1/2-H} as s -> 0, so the value stored at node 0
    is the evaluation at the half-cell point dt/2 (documented proxy); L2
    norms of the output should use operator_kh_star_midpoints.
    """
    grid = phi.grid
    if T is not None and abs(T - grid.t_max) > 1e-12:
        raise ValueError("T must equal the grid horizon")
    cells = _cell_values(phi)
    s_eval = grid.points.copy()
    s_eval[0] = grid.dt / 2.0
    vals = operator_kh_star_at(cells, grid, h, s_eval)
    return GridFunction(grid=grid, values=vals)


def operator_kh_star_midpoints(phi: GridFunction, h: HurstParam) -> np.ndarray:
    """(K* phi) at the cell midpoints, for L2 quadrature."""
    cells = _cell_values(phi)
    return operator_kh_star_at(cells, phi.grid, h, phi.grid.midpoints)


def operator_kh(rho: GridFunction, h: HurstParam,
                kernel: np.ndarray | None = None) -> GridFunction:
    """K operator: (K rho)(t) = int_0^t K(t, s) rho(s) ds on the grid.

    Midpoint rule over the cells; the kernel matrix K(t_i, mid_k) can be
    passed in to amortize it across many rho.  The output is Holder-H with
    seminorm bounded by a constant times ||rho||_{L2}.
    """
    from .fbm import transfer_kernel_matrix
    grid = rho.grid
    if kernel is None:
        kernel = transfer_kernel_matrix(grid, h)
    cells = _cell_values(rho)
    vals = np.zeros(grid.n_steps + 1)
    vals[1:] = kernel @ (cells * grid.dt)
    return GridFunction(grid=grid, values=vals)


def l2_norm_cells(f: GridFunction) -> float:
    """L2(0, T) norm using cell-midpoint values."""
    cells = _cell_values(f)
    return float(np.sqrt(np.sum(cells**2) * f.grid.dt))


def scalar_product_h_cells(phi_cells: np.ndarray, psi_cells: np.ndarray,
                           grid: TimeGrid, h: HurstParam) -> float:
    """<phi, psi>_H for piecewise-constant functions, exact cell integration.

    The double integral of H(2H-1)|s-t|^{2H-2} over a cell pair has the
    closed-form double primitive -|s-t|^{2H}/2, so the sum below is exact
    for step functions (no singular quadrature).
    """
    pts = grid.points
    hh = 2.0 * h.h
    d = np.abs(pts[:, None] - pts[None, :]) ** hh
    # double difference over the cell corners
    block = d[1:, 1:] - d[1:, :-1] - d[:-1, 1:] + d[:-1, :-1]
    return float(-0.5 * phi_cells @ block @ psi_cells)


def scalar_product_h(phi: GridFunction, psi: GridFunction, h: HurstParam,
                     T: float | None = None) -> tuple[float, float]:
    """Scalar product <phi, psi>_H and the L2 comparison bound.

    Returns (value, bound) where bound = 2 H T^{2H-1} ||phi|| ||psi|| in L2;
    for phi = psi this is the upper bound the scalar product must respect.
    """
    grid = phi.grid
    if psi.grid.n_steps != grid.n_steps or psi.grid.t_max != grid.t_max:
        raise ValueError("phi and psi must share one grid")
    val = scalar_product_h_cells(_cell_values(phi), _cell_values(psi), grid, h)
    t_max = grid.t_max if T is None else T
    bound = 2.0 * h.h * t_max ** (2 * h.h - 1) * l2_norm_cells(phi) * l2_norm_cells(psi)
    return val, bound
