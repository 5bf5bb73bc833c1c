"""Pathwise SDE solvers: Euler, Lamperti, coupling."""

import re
import warnings

import numpy as np
import pytest

from fbmlab.fbm import (
    HurstParam,
    sample_fbm_circulant,
    transfer_from_wiener_increments,
    transfer_kernel_matrix,
)
from fbmlab.grid import TimeGrid, cell_values
from fbmlab.sde import (
    BlowUpError,
    DriftSpec,
    ScalarDiffusion,
    SolutionPath,
    TimeDiffusion,
    drift_coupled_pair,
    euler_additive_ensemble,
    gronwall_coupling_bound,
    lamperti_drift_lipschitz_bound,
    lamperti_forward,
    lamperti_inverse,
    solve_additive,
    solve_scalar,
    solve_scalar_via_lamperti,
)

H75 = HurstParam(0.75)

DRIFT_OU = DriftSpec(fn=lambda x: -x, dimension=1, lipschitz=1.0,
                     sup_bound=np.inf, one_sided=-1.0)
SIGMA_ID = TimeDiffusion(fn=lambda t: np.ones((1, 1)), holder_beta=0.6)


def _driver(n=256, seed=7, T=1.0):
    return sample_fbm_circulant(TimeGrid(T, n), H75, 1, seed)


def test_zero_drift_identity():
    bh = _driver()
    sol = solve_additive(
        2.0,
        DriftSpec(fn=lambda x: np.zeros_like(x), dimension=1, lipschitz=0.0,
                  sup_bound=0.0, one_sided=0.0),
        SIGMA_ID, bh)
    np.testing.assert_allclose(sol.values[:, 0], 2.0 + bh.values[:, 0],
                               atol=1e-12)


def test_deterministic_ode_first_order_convergence():
    # sigma = 0 reduces to an ODE solver; empirical order >= 0.95 on x' = -x
    zero_sigma = TimeDiffusion(fn=lambda t: np.zeros((1, 1)), holder_beta=0.6)
    errs = []
    ns = [64, 128, 256, 512]
    for n in ns:
        grid = TimeGrid(1.0, n)
        driver = (grid, np.zeros((n + 1, 1)))
        sol = solve_additive(1.0, DRIFT_OU, zero_sigma, driver)
        errs.append(abs(sol.values[-1, 0] - np.exp(-1.0)))
    order = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert -order >= 0.95


def test_solution_path_invariants():
    sol = solve_additive(0.5, DRIFT_OU, SIGMA_ID, _driver())
    assert sol.values[0, 0] == 0.5
    assert np.all(np.isfinite(sol.values))


def test_solution_path_non_finite_is_numerical_error():
    # a non-finite value is a numerical failure (CLI exit 3), as in FbmPath
    vals = np.zeros((5, 1))
    vals[3, 0] = np.nan
    with pytest.raises(ArithmeticError, match="non-finite"):
        SolutionPath(TimeGrid(1.0, 4), vals)


def test_blow_up_guard_reports_step():
    # explosive drift x' = x^3 from a large start blows up in finite steps
    drift = DriftSpec(fn=lambda x: x**3, dimension=1, lipschitz=np.inf,
                      sup_bound=np.inf, one_sided=np.inf)
    with pytest.raises(BlowUpError) as exc:
        solve_additive(50.0, drift, SIGMA_ID, _driver(n=64))
    assert exc.value.step >= 0


def test_euler_ensemble_blow_up_reports_first_step():
    # x_1 = 1e200 is finite, x_2 = 1e200 + 1e400 overflows; no RuntimeWarning
    with pytest.raises(BlowUpError) as exc:
        euler_additive_ensemble(1.0, lambda x: 1e200 * x, np.zeros((3, 9)), 1.0)
    assert exc.value.step == 2


def test_determinism():
    a = solve_additive(0.0, DRIFT_OU, SIGMA_ID, _driver(seed=13))
    b = solve_additive(0.0, DRIFT_OU, SIGMA_ID, _driver(seed=13))
    assert np.array_equal(a.values, b.values)


def test_euler_ensemble_matches_single():
    # one recursion: the ensemble, the additive and the unit-sigma scalar
    # solvers agree bit for bit
    grid = TimeGrid(1.0, 128)
    drv = np.vstack([
        sample_fbm_circulant(grid, H75, 1, seed=21, path_index=i).values[:, 0]
        for i in range(3)
    ])
    ens = euler_additive_ensemble(0.2, lambda x: -x, drv, grid.dt)
    unit = ScalarDiffusion(fn=lambda x: 1.0, sigma1=1.0, sigma2=1.0)
    for i in range(3):
        single = solve_additive(0.2, DRIFT_OU, SIGMA_ID, (grid, drv[i][:, None]))
        scalar = solve_scalar(0.2, DRIFT_OU, unit, (grid, drv[i]))
        assert np.array_equal(ens[i], single.values[:, 0])
        assert np.array_equal(ens[i], scalar.values[:, 0])


def test_euler_ensemble_sigma_scales_the_increments():
    # sigma = 1.0 leaves every bit; sigma = c solves the drivers c g up to
    # rounding, and each step is x + b(x) dt + c (g_{k+1} - g_k) bit for bit
    grid = TimeGrid(1.0, 64)
    drv = np.vstack([sample_fbm_circulant(grid, H75, 1, seed=3, path_index=i).values[:, 0]
                     for i in range(4)])
    kept = drv.copy()
    ens = euler_additive_ensemble(0.2, lambda x: -x, drv, grid.dt)
    assert np.array_equal(euler_additive_ensemble(0.2, lambda x: -x, drv, grid.dt, sigma=1.0), ens)
    c = 2.0**0.75
    scaled = euler_additive_ensemble(0.2, lambda x: -x, drv, grid.dt, sigma=c)
    assert np.array_equal(drv, kept)
    x = np.full(4, 0.2)
    for k in range(grid.n_steps):
        x = x + (-x) * grid.dt + c * (drv[:, k + 1] - drv[:, k])
        assert np.array_equal(scaled[:, k + 1], x)
    ref = euler_additive_ensemble(0.2, lambda x: -x, c * drv, grid.dt)
    assert np.abs(scaled - ref).max() <= 1e-14 * np.abs(ref).max()


def test_solve_additive_matches_per_step_matmul():
    # d = 2, m = 3, time-dependent sigma: the noise term sigma(t_k) dg_k
    # equals a per-step sig[k] @ dg[k] loop bit for bit
    grid = TimeGrid(1.0, 256)
    g = sample_fbm_circulant(grid, H75, 3, seed=5).values
    sigma = TimeDiffusion(fn=lambda t: np.array([[1.0, t, -0.5], [0.3 * t, 2.0, np.sin(t)]]))
    drift = DriftSpec(fn=lambda x: np.array([-x[0] + 0.5 * x[1], -np.tanh(x[1])]))
    sol = solve_additive([0.1, -0.2], drift, sigma, (grid, g))
    x = np.array([0.1, -0.2])
    loop = [x]
    for k, t in enumerate(grid.points[:-1]):
        x = x + drift.fn(x) * grid.dt + sigma.matrix(t, 2, 3) @ (g[k + 1] - g[k])
        loop.append(x)
    assert np.array_equal(sol.values, np.array(loop))


@pytest.mark.parametrize("fn", [lambda t: np.array([1.0, 2.0]), lambda t: 1.0,
                                lambda t: np.ones((2, 3))], ids=["row", "scalar", "wide"])
def test_time_diffusion_refuses_a_sigma_not_shaped_d_by_m(fn):
    # a (2,) row or a scalar is never broadcast to the (2, 2) matrix
    with pytest.raises(ValueError, match=re.escape("must have shape (2, 2), got")):
        TimeDiffusion(fn=fn).matrix(0.5, 2, 2)


SIGMA_X = ScalarDiffusion(fn=lambda x: 1.0 + 0.3 / (1.0 + x**2),
                          sigma1=1.0, sigma2=1.3, lipschitz=0.6)


def test_solve_scalar_blow_up_raises_without_warning():
    # both routes: the Lamperti drift overflows in Python floats, one step
    # before the direct Euler state leaves the floats
    drift = DriftSpec(fn=lambda x: x**3)
    for solve, step in ((solve_scalar, 6), (solve_scalar_via_lamperti, 5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as exc:
                solve(50.0, drift, SIGMA_X, _driver(n=64))
        assert exc.value.step == step


def test_lamperti_round_trip():
    for y in (-3.0, -0.5, 0.0, 0.25, 2.0):
        z = lamperti_forward(SIGMA_X, y)
        assert lamperti_inverse(SIGMA_X, z) == pytest.approx(y, abs=1e-10)


def test_lamperti_forward_monotone():
    ys = np.linspace(-2, 2, 17)
    zs = [lamperti_forward(SIGMA_X, y) for y in ys]
    assert np.all(np.diff(zs) > 0)


def test_lamperti_forward_matches_closed_form():
    # sigma = 1 + a / (1 + x^2): F(y) = y - a / sqrt(1 + a) atan(y / sqrt(1 + a))
    a, r = 0.3, np.sqrt(1.3)
    for y in np.linspace(-3.0, 3.0, 25):
        assert abs(lamperti_forward(SIGMA_X, y) - (y - a / r * np.arctan(y / r))) <= 1e-14


def test_lamperti_round_trip_wide_sigma_ratio():
    # sigma in [1, 10]: Newton alone need not contract, the bracket bisects
    wide = ScalarDiffusion(fn=lambda x: 1.0 + 4.5 * (1.0 + np.tanh(5.0 * x)),
                           sigma1=1.0, sigma2=10.0)
    for y in np.linspace(-3.0, 3.0, 25):
        assert abs(lamperti_inverse(wide, lamperti_forward(wide, y)) - y) <= 1e-12


def test_lamperti_violated_sigma_bounds_raise():
    # sigma = 3 declared as [1, 1.3]: the root leaves the slope bracket
    liar = ScalarDiffusion(fn=lambda x: 3.0, sigma1=1.0, sigma2=1.3)
    with pytest.raises(ArithmeticError, match="sigma1=1.0, sigma2=1.3"):
        lamperti_inverse(liar, 1.0)
    with pytest.raises(ArithmeticError, match="sigma1=1.0, sigma2=1.3"):
        solve_scalar_via_lamperti(0.5, DRIFT_OU, liar, _driver(n=64))


def test_lamperti_quadrature_fails_closed():
    # 1000 oscillations on [0, 3] exceed quad's 200 subintervals
    rough = ScalarDiffusion(fn=lambda x: 1.0 + 0.3 * np.sin(2000.0 * x) ** 2,
                            sigma1=1.0, sigma2=1.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's own IntegrationWarning
        with pytest.raises(ArithmeticError, match="did not converge"):
            lamperti_forward(rough, 3.0)


def test_scalar_vs_lamperti_agreement():
    grid = TimeGrid(1.0, 1024)
    driver = sample_fbm_circulant(grid, H75, 1, seed=33)
    direct = solve_scalar(0.5, DRIFT_OU, SIGMA_X, driver)
    lam = solve_scalar_via_lamperti(0.5, DRIFT_OU, SIGMA_X, driver)
    gap = np.abs(direct.values - lam.values).max()
    assert gap < 5e-3


def test_lamperti_drift_lipschitz_bound_positive():
    bounded = DriftSpec(fn=lambda x: -np.tanh(x), dimension=1, lipschitz=1.0,
                        sup_bound=1.0, one_sided=0.0)
    bound = lamperti_drift_lipschitz_bound(bounded, SIGMA_X)
    expect = 1.3 / 1.0**2 * (1.0 * 1.3 + 0.6 * 1.0)
    assert bound == pytest.approx(expect)


def test_drift_coupled_pair_under_gronwall_bound():
    grid = TimeGrid(1.0, 128)
    rho = np.ones(129)
    bound = gronwall_coupling_bound(grid, rho, -1.0, 1.0, H75)
    x, y, energy = drift_coupled_pair(0.0, DRIFT_OU, SIGMA_ID, rho, H75, grid, seed=71)
    assert energy == pytest.approx(0.5, rel=1e-12)
    d2 = (x.values[:, 0] - y.values[:, 0]) ** 2
    assert np.all(d2[1:] <= bound[1:])


def test_drift_coupled_pair_is_two_additive_solves():
    # one sigma grid serves both solves: x and y are solve_additive on the
    # perturbed and the plain driver bit for bit, sigma(t) read once per node
    grid, calls = TimeGrid(1.0, 64), []
    sigma = TimeDiffusion(fn=lambda t: calls.append(t) or np.array([[1.0 + t, -0.5 * t]]))
    rho = np.column_stack([np.ones(65), np.linspace(0.0, 1.0, 65)])
    x, y, _ = drift_coupled_pair(0.3, DRIFT_OU, sigma, rho, H75, grid, seed=71, path_index=4)
    assert calls == list(grid.points[:-1])
    b = sample_fbm_circulant(grid, H75, 2, 71, path_index=4).values
    k_rho = transfer_from_wiener_increments(transfer_kernel_matrix(grid, H75),
                                            cell_values(rho) * grid.dt)
    assert np.array_equal(y.values, solve_additive(0.3, DRIFT_OU, sigma, (grid, b)).values)
    assert np.array_equal(x.values,
                          solve_additive(0.3, DRIFT_OU, sigma, (grid, b + k_rho)).values)


def test_gronwall_bound_shape_and_sign():
    grid = TimeGrid(1.0, 64)
    bound = gronwall_coupling_bound(grid, np.ones(65), -2.0, 1.0, H75)
    assert bound.shape == (65,)
    assert bound[0] == 0.0
    assert np.all(bound[1:] > 0)
    with pytest.raises(ValueError):
        gronwall_coupling_bound(grid, np.ones(65), 0.0, 1.0, H75)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_gronwall_recursion_matches_prefix_sums(n):
    # reference: every prefix integral summed afresh over its cells, O(n^2)
    def prefix_sums(grid, rho, B):
        r2 = np.sum(cell_values(rho[:, None]) ** 2, axis=1)
        c, pts = 2 * B + abs(B), grid.points
        out = np.zeros(grid.n_steps + 1)
        for i in range(1, grid.n_steps + 1):
            s0, s1 = pts[:i], pts[1:i + 1]
            seg = (np.exp(c * (pts[i] - s0)) - np.exp(c * (pts[i] - s1))) / c
            out[i] = np.sum(r2[:i] * seg)
        return (2.0 / abs(B)) * H75.h * grid.t_max ** (2 * H75.h - 1) * 1.5**2 * out

    grid = TimeGrid(1.5, n)
    t = grid.points
    for rho in (np.ones(n + 1), np.sin(3 * t), np.exp(-t) * (1 + t**2)):
        for B in (-3.0, -1.0, -0.1, 0.2, 1.0):
            np.testing.assert_allclose(gronwall_coupling_bound(grid, rho, B, 1.5, H75),
                                       prefix_sums(grid, rho, B), rtol=1e-12, atol=0)


SIGMA_UNIT = ScalarDiffusion(fn=lambda x: 1.0, sigma1=1.0, sigma2=1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ScalarDiffusion(fn=lambda x: 1.0, sigma1=2.0, sigma2=1.0), ValueError,
     "0 < sigma1 <= sigma2"),
    (lambda: ScalarDiffusion(fn=lambda x: 1.0, sigma1=0.0, sigma2=1.0), ValueError,
     "0 < sigma1 <= sigma2"),
    (lambda: solve_additive(0.0, DRIFT_OU, SIGMA_ID, np.zeros(5)), TypeError,
     "unsupported driver type"),
    (lambda: solve_scalar(0.0, DRIFT_OU, SIGMA_UNIT, (TimeGrid(1.0, 4), np.zeros((5, 2)))),
     ValueError, "one-component driver"),
    (lambda: solve_scalar_via_lamperti(0.0, DRIFT_OU, SIGMA_UNIT,
                                       (TimeGrid(1.0, 4), np.zeros((5, 2)))),
     ValueError, "one-component driver"),
    # an infinite driver increment makes the Lamperti state infinite at step 1
    (lambda: solve_scalar_via_lamperti(0.0, DRIFT_OU, SIGMA_UNIT,
                                       (TimeGrid(1.0, 1), np.array([0.0, np.inf]))),
     BlowUpError, "step 1"),
], ids=["sigma-bounds-reversed", "sigma1-zero", "driver-type", "scalar-two-components",
        "lamperti-two-components", "lamperti-infinite-state"])
def test_guards_fail_closed(call, error, message):
    with pytest.raises(error, match=message):
        call()


OFF_GRID = (TimeGrid(1.0, 4), np.linspace(0.0, 1.0, 10))


@pytest.mark.parametrize("call", [
    lambda: solve_scalar(0.0, DRIFT_OU, SIGMA_UNIT, OFF_GRID),
    lambda: solve_scalar_via_lamperti(0.0, DRIFT_OU, SIGMA_UNIT, OFF_GRID),
    lambda: solve_additive(0.0, DRIFT_OU, SIGMA_ID, OFF_GRID),
], ids=["scalar", "lamperti", "additive"])
def test_driver_off_its_grid_is_a_value_error(call):
    # a (grid, values) driver with 10 rows on a 4-step grid would be solved
    # on the wrong grid (or fail inside a numpy broadcast)
    with pytest.raises(ValueError, match=re.escape("shape (10, 1) are not on a grid of 5 nodes")):
        call()


@pytest.mark.parametrize("shape", [(7, 3), (4, 1), (5,)])
def test_solution_path_off_its_grid_is_a_value_error(shape):
    with pytest.raises(ValueError, match=re.escape(f"shape {shape} are not on a grid of 5 nodes")):
        SolutionPath(TimeGrid(1.0, 4), np.zeros(shape))
