"""The verifier registry and the kernels it shares with the calibration."""

import numpy as np
import pytest

from fbmlab.calibration import calibrate_k_hat, kappa_empirical
from fbmlab.config import VERIFIER_NAMES, load_config
from fbmlab.fbm import HurstParam
from fbmlab.fixtures import calibrated_constants
from fbmlab.grid import TimeGrid, holder_norm
from fbmlab.sde import (
    DriftSpec,
    TimeDiffusion,
    coupled_stability,
    euler_additive_ensemble,
    stability_horizon,
)
from fbmlab.transport import transport_constant
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


def test_stability_horizon_boundary_is_one_comparison(tmp_path):
    # drift b(x) = -2x: L_b = 2, Delta = 1/4
    delta = stability_horizon(2.0)
    assert delta == 0.25 and stability_horizon(0.0) == 1.0 and stability_horizon(0.1) == 1.0
    drift = DriftSpec(fn=lambda x: -2.0 * x, dimension=1, lipschitz=2.0)
    sigma = TimeDiffusion(fn=lambda t: np.ones((1, 1)), holder_beta=0.6)
    for T, inside in ((delta, True), (delta * (1 + 1e-9), False)):
        assert transport_constant("T1_additive", H=0.75, T=T, K=1.0,
                                  sigma_beta_norm=1.0, L_b=2.0).horizon_ok is inside
        grid = TimeGrid(T, 16)
        g1, g2 = independent_pairs(grid, HurstParam(0.75), 1, 3)
        rep = coupled_stability(0.0, drift, sigma, (grid, g1[0][:, None]),
                                (grid, g2[0][:, None]), beta=0.6)
        assert rep.delta_ok is inside
        ini = tmp_path / "c.ini"
        ini.write_text(f"[grid]\nt_max = {T!r}\nn_steps = 16\n[sde]\ndrift_b = -2\n"
                       "[verify]\nn_paths = 8\n")
        cfg = load_config(str(ini))
        if inside:
            assert VERIFIERS["stability"](cfg)["n_pairs"] == 8
        else:
            with pytest.raises(ValueError, match="stability premise violated"):
                VERIFIERS["stability"](cfg)
