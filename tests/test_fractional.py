"""Fractional derivatives, Young integrals and the K_H operators."""

import numpy as np
import pytest
from scipy.special import gamma

from fbmlab.fbm import (
    HurstParam,
    covariance_matrix,
    fgn_autocovariance,
    sample_fbm_circulant,
)
from fbmlab.fractional import (
    FracOrder,
    default_frac_order,
    esti_int_bound,
    frac_deriv_left_nodes,
    frac_deriv_right_nodes,
    lemma_esti_int_check,
    operator_kh,
    young_integral_frac,
    young_integral_rs,
)
from fbmlab.grid import GridFunction, TimeGrid, holder_norm

H75 = HurstParam(0.75)

# frozen MC oracle: sup over 100 seeded rho draws of the Holder-H seminorm
# of K rho relative to sup |rho| (finite-constant regularity check)
OPERATOR_KH_HOLDER_RATIO = 0.7066937960524813


def test_frac_order_domain():
    with pytest.raises(ValueError):
        FracOrder(0.0)
    with pytest.raises(ValueError):
        FracOrder(1.0)
    a = default_frac_order(0.6)
    assert 1 - 0.6 < a.alpha < 0.5


def test_left_derivative_of_linear():
    # D^alpha of f(t) = t is t^{1-alpha} / Gamma(2 - alpha)
    grid = TimeGrid(1.0, 1024)
    alpha = 0.3
    d = frac_deriv_left_nodes(grid.points, grid.dt, alpha)
    t = grid.points[1:]
    exact = t ** (1 - alpha) / gamma(2 - alpha)
    np.testing.assert_allclose(d[1:], exact, rtol=1e-6)


def test_left_derivative_of_constant_zero_base():
    # with f(a) = 0 subtracted, the derivative of a constant is zero
    grid = TimeGrid(1.0, 128)
    d = frac_deriv_left_nodes(np.zeros(129), grid.dt, 0.4)
    np.testing.assert_allclose(d, 0.0, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.1, 0.45, 0.9])
def test_left_derivative_of_nonzero_constant(alpha):
    # D^alpha c = c (t-a)^{-alpha} / Gamma(1-alpha): only the f(a) term, and
    # the derivative diverges at t = a (NaN)
    grid = TimeGrid(1.0, 64)
    d = frac_deriv_left_nodes(np.full(65, 2.5), grid.dt, alpha)
    assert np.isnan(d[0])
    t = grid.points[1:]
    np.testing.assert_allclose(d[1:], 2.5 * t ** -alpha / gamma(1 - alpha), rtol=1e-14)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.1, 0.45, 0.9])
def test_left_derivative_of_power(p, alpha):
    # D^alpha t^p = Gamma(p+1)/Gamma(p+1-alpha) t^{p-alpha}; the interpolant
    # of t^p is within O(h^{2-alpha}) of it at every node
    grid = TimeGrid(1.0, 1024)
    t = grid.points
    d = frac_deriv_left_nodes(t ** p, grid.dt, alpha)
    exact = gamma(p + 1) / gamma(p + 1 - alpha) * t ** (p - alpha)
    assert d[0] == 0.0
    np.testing.assert_allclose(d, exact, rtol=0, atol=p ** 2 * grid.dt ** (2 - alpha))


def test_right_derivative_of_terminal_anchored_linear():
    # g(t) = t - 1 vanishes at b = 1; D^alpha_{b-}g_{b-}(t) =
    # -(1-t)^{1-alpha}/Gamma(2-alpha) under the real convention
    grid = TimeGrid(1.0, 1024)
    alpha = 0.35
    g = grid.points - 1.0
    d = frac_deriv_right_nodes(g, grid.dt, alpha)
    t = grid.points[:-1]
    exact = -((1.0 - t) ** (1 - alpha)) / gamma(2 - alpha)
    np.testing.assert_allclose(d[:-1], exact, rtol=1e-6)


def _mirrored_right_nodes(g, h, alpha):
    """The right derivative by its own mirrored product-integration weights,
    kept as the oracle of the reflected left kernel."""
    n = len(g) - 1
    m = np.diff(g) / h
    v = np.arange(n + 1, dtype=float) * h
    q1 = np.zeros(n + 1)
    q1[1:] = (v[1:] ** -alpha - (v[1:] + h) ** -alpha) / alpha
    q2 = np.zeros(n + 1)
    q2[1:] = ((v[1:] + h) ** (1 - alpha) - v[1:] ** (1 - alpha)) / (1 - alpha)
    sum_q1 = np.cumsum(q1)[::-1]
    rev = np.convolve(g[::-1], q1)[: n + 1][::-1]
    rev_m = np.zeros(n + 1)
    rev_m[: n] = np.convolve(m[::-1], q2 - v * q1)[: n][::-1]
    integral = g * sum_q1 - rev - rev_m
    # the cumsum/convolution ranges include a phantom lag n - i past b
    integral[: n] -= (g[: n] - g[n]) * q1[::-1][: n]
    integral[: n] -= m * h ** (1 - alpha) / (1 - alpha)
    out = np.zeros(n + 1)
    bt = v[::-1]
    out[: n] = ((g[: n] - g[n]) / bt[: n] ** alpha + alpha * integral[: n]) \
        / gamma(1 - alpha)
    return out


@pytest.mark.parametrize("n", [1, 2, 257, 2049])
@pytest.mark.parametrize("alpha", [0.1, 0.45, 0.9])
def test_right_derivative_matches_mirrored_weights(n, alpha):
    g = np.random.default_rng(n).standard_normal(n + 1).cumsum()
    oracle = _mirrored_right_nodes(g, 1.0 / n, alpha)
    d = frac_deriv_right_nodes(g, 1.0 / n, alpha)
    assert d[-1] == 0.0
    np.testing.assert_allclose(d, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())


def test_frac_deriv_left_wrapper():
    # D^0.3 of f(t) = t at the last node t = 1 is 1 / Gamma(1.7)
    grid = TimeGrid(1.0, 512)
    val = frac_deriv_left_nodes(grid.points, grid.dt, 0.3)[-1]
    assert val == pytest.approx(1.0 / gamma(1.7), rel=1e-5)


def test_young_integral_constant_integrand():
    grid = TimeGrid(1.0, 256)
    f = GridFunction(grid, np.ones(257))
    g = GridFunction(grid, grid.points**2)
    for route in (young_integral_rs(f, g, 0.0, 1.0),
                  young_integral_frac(f, g, FracOrder(0.4), 0.0, 1.0)):
        assert route == pytest.approx(1.0, rel=1e-10)


def test_young_integral_smooth_agreement():
    grid = TimeGrid(1.0, 2048)
    t = grid.points
    f = GridFunction(grid, np.sin(t))
    g = GridFunction(grid, t**2)
    exact = 2.0 * (np.sin(1.0) - 1.0 * np.cos(1.0))  # int sin(t) 2t dt
    rs = young_integral_rs(f, g, 0.0, 1.0)
    fr = young_integral_frac(f, g, FracOrder(0.4), 0.0, 1.0)
    assert rs == pytest.approx(exact, rel=2e-3)
    assert fr == pytest.approx(exact, rel=2e-3)
    assert fr == pytest.approx(rs, rel=1e-3)


def test_young_integral_fbm_agreement():
    grid = TimeGrid(1.0, 2048)
    fb = sample_fbm_circulant(grid, H75, 1, seed=41).values[:, 0]
    gb = sample_fbm_circulant(grid, H75, 1, seed=42).values[:, 0]
    f = GridFunction(grid, fb)
    g = GridFunction(grid, gb)
    alpha = default_frac_order(0.7)
    rs = young_integral_rs(f, g, 0.0, 1.0)
    fr = young_integral_frac(f, g, alpha, 0.0, 1.0)
    assert fr == pytest.approx(rs, rel=1e-2, abs=1e-4)


def test_lemma_esti_int_holds_on_fbm_pair():
    grid = TimeGrid(1.0, 512)
    fb = sample_fbm_circulant(grid, H75, 1, seed=51).values[:, 0]
    gb = sample_fbm_circulant(grid, H75, 1, seed=52).values[:, 0]
    rep = lemma_esti_int_check(GridFunction(grid, fb), GridFunction(grid, gb),
                               0.6, 0.25, 0.75)
    assert rep.passed
    assert rep.lhs <= rep.rhs
    assert 0.0 <= rep.ratio <= 1.0


def _fgn_gram(grid, h):
    """Gamma[i, j] = gamma(|i - j|) from fbm.fgn_autocovariance: the Gram
    matrix of the cell indicators under <phi, psi>_H = E[int phi dB int psi dB]."""
    cells = np.arange(grid.n_steps)
    gamma_k = fgn_autocovariance(grid.n_steps, h.h, grid.dt)
    return gamma_k[np.abs(cells[:, None] - cells)]


def test_scalar_product_h_indicators_give_covariance():
    # <1_[0,s), 1_[0,t)>_H = R_H(s, t): the double cumulative sum of the
    # fGn table is the fBm covariance at the grid nodes
    grid = TimeGrid(1.0, 64)
    cov = np.cumsum(np.cumsum(_fgn_gram(grid, H75), axis=0), axis=1)
    np.testing.assert_allclose(cov, covariance_matrix(grid, H75), rtol=1e-12, atol=0)


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("n", [1, 7, 512])
def test_scalar_product_h_cells_is_the_corner_double_difference(hurst, n):
    # the Toeplitz form of the fGn autocovariance against the double
    # difference of -|t_i - t_j|^{2H}/2 over the cell corners
    grid, h = TimeGrid(1.3, n), HurstParam(hurst)
    rng = np.random.default_rng(n)
    phi, psi = rng.standard_normal((2, n))
    d = np.abs(grid.points[:, None] - grid.points[None, :]) ** (2 * hurst)
    block = d[1:, 1:] - d[1:, :-1] - d[:-1, 1:] + d[:-1, :-1]
    corner = -0.5 * phi @ block @ psi
    scale = np.sqrt(-0.5 * phi @ block @ phi * -0.5 * psi @ block @ psi)
    assert abs(phi @ _fgn_gram(grid, h) @ psi - corner) <= 1e-10 * scale


def test_operator_kh_holder_regularity_frozen_ratio():
    # K rho is Holder-H for square-integrable rho; the seminorm-to-sup ratio
    # over the seeded draw family stays at the frozen oracle value
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        vals = rng.standard_normal(129).cumsum() * 0.1
        vals -= vals[0]
        rho = GridFunction(grid, vals)
        kr = operator_kh(rho, H75)
        num = holder_norm(grid, kr.values, 0.75).seminorm_beta
        worst = max(worst, num / max(np.abs(vals).max(), 1e-12))
    assert worst == pytest.approx(OPERATOR_KH_HOLDER_RATIO, rel=1e-9)


@pytest.mark.parametrize("call, message", [
    (lambda f, g, h: default_frac_order(0.5), "need 1/2 < beta < 1"),
    (lambda f, g, h: frac_deriv_left_nodes([1.0], 0.1, 0.3), "at least two nodes"),
    (lambda f, g, h: young_integral_rs(f, h, 0.0, 1.0), "share one grid"),
    (lambda f, g, h: young_integral_frac(f, h, FracOrder(0.3), 0.0, 1.0), "share one grid"),
    (lambda f, g, h: young_integral_rs(f, g, 0.5, 0.5), "need a < b"),
    (lambda f, g, h: young_integral_frac(f, g, FracOrder(0.3), 0.75, 0.25), "need a < b"),
    (lambda f, g, h: esti_int_bound(f, g, 1.0, 0.5, 0.0, 1.0), "need 1/2 < beta < 1"),
], ids=["frac-order-beta", "one-node", "rs-two-grids", "frac-two-grids", "rs-empty-window",
        "frac-reversed-window", "esti-int-bound-beta"])
def test_guards_fail_closed(call, message):
    grid = TimeGrid(1.0, 8)
    f, g = GridFunction(grid, grid.points), GridFunction(grid, grid.points ** 2)
    h = GridFunction(TimeGrid(1.0, 16), np.zeros(17))
    with pytest.raises(ValueError, match=message):
        call(f, g, h)
