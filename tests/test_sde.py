"""Pathwise SDE solvers: Euler, Lamperti, coupling."""

import numpy as np
import pytest

from fbmlab.fbm import HurstParam, sample_fbm_circulant, transfer_kernel_matrix
from fbmlab.grid import TimeGrid
from fbmlab.sde import (
    BlowUpError,
    DriftSpec,
    ScalarDiffusion,
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
    grid = TimeGrid(1.0, 128)
    drv = np.vstack([
        sample_fbm_circulant(grid, H75, 1, seed=21, path_index=i).values[:, 0]
        for i in range(3)
    ])
    ens = euler_additive_ensemble(0.2, lambda x: -x, drv, grid.dt)
    for i in range(3):
        single = solve_additive(0.2, DRIFT_OU, SIGMA_ID,
                                (grid, drv[i][:, None]))
        np.testing.assert_allclose(ens[i], single.values[:, 0], atol=1e-12)


SIGMA_X = ScalarDiffusion(fn=lambda x: 1.0 + 0.3 / (1.0 + x**2),
                          sigma1=1.0, sigma2=1.3, lipschitz=0.6)


def test_lamperti_round_trip():
    for y in (-3.0, -0.5, 0.0, 0.25, 2.0):
        z = lamperti_forward(SIGMA_X, y)
        assert lamperti_inverse(SIGMA_X, z) == pytest.approx(y, abs=1e-10)


def test_lamperti_forward_monotone():
    ys = np.linspace(-2, 2, 17)
    zs = [lamperti_forward(SIGMA_X, y) for y in ys]
    assert np.all(np.diff(zs) > 0)


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
    kern = transfer_kernel_matrix(grid, H75)
    bound = gronwall_coupling_bound(grid, rho, -1.0, 1.0, H75)
    x, y, energy = drift_coupled_pair(0.0, DRIFT_OU, SIGMA_ID, rho, H75, grid,
                                      seed=71, kernel=kern)
    assert energy == pytest.approx(0.5, rel=1e-12)
    d2 = (x.values[:, 0] - y.values[:, 0]) ** 2
    assert np.all(d2[1:] <= bound[1:])


def test_gronwall_bound_shape_and_sign():
    grid = TimeGrid(1.0, 64)
    bound = gronwall_coupling_bound(grid, np.ones(65), -2.0, 1.0, H75)
    assert bound.shape == (65,)
    assert bound[0] == 0.0
    assert np.all(bound[1:] > 0)
    with pytest.raises(ValueError):
        gronwall_coupling_bound(grid, np.ones(65), 0.0, 1.0, H75)
