"""The verifier registry and the kernels it shares with the calibration."""

import numpy as np

from fbmlab.calibration import calibrate_k_hat, kappa_empirical
from fbmlab.config import VERIFIER_NAMES
from fbmlab.fbm import HurstParam
from fbmlab.fixtures import calibrated_constants
from fbmlab.grid import TimeGrid, holder_norm
from fbmlab.sde import euler_additive_ensemble
from fbmlab.verifiers import VERIFIERS, independent_pairs, stability_ratios


def test_registry_follows_config_names():
    assert tuple(VERIFIERS) == VERIFIER_NAMES


def test_stability_ratios_match_per_pair_holder_norm():
    grid, beta, B = TimeGrid(0.5, 64), 0.6, -2.0
    g1, g2 = independent_pairs(grid, HurstParam(0.75), 40, 5)
    g2[0] = g1[0]  # a vanishing driver gap gives ratio 0
    ratios, sup_dist = stability_ratios(grid, g1, g2, beta, B)
    x1 = euler_additive_ensemble(0.0, lambda x: B * x, g1, grid.dt)
    x2 = euler_additive_ensemble(0.0, lambda x: B * x, g2, grid.dt)
    for i in range(len(g1)):
        d = np.abs(x1[i] - x2[i]).max()
        hn = holder_norm(grid, g1[i] - g2[i], beta).seminorm_beta
        assert sup_dist[i] == d
        assert ratios[i] == (d / (hn * grid.t_max**beta) if hn > 0 else 0.0)
    assert ratios[0] == 0.0


def test_calibration_reproduces_frozen_constants():
    frozen = calibrated_constants()
    assert calibrate_k_hat(1000, 0)["K_hat"] == frozen["K_hat"]
    assert 1.5 * kappa_empirical(1000, 0) == frozen["kappa_hat"]
