"""The verifier registry and the kernels it shares with the calibration."""

import numpy as np
import pytest

from fbmlab import verifiers
from fbmlab.calibration import calibrate_k_hat, kappa_empirical
from fbmlab.concentration import PremiseError
from fbmlab.config import VERIFIER_NAMES, load_config
from fbmlab.fbm import HurstParam, sample_fbm_circulant_batch
from fbmlab.fixtures import calibrated_constants
from fbmlab.grid import TimeGrid, holder_norm
from fbmlab.sde import euler_additive_ensemble, stability_horizon
from fbmlab.transport import t1_constant
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


def test_partner_is_not_an_offset_seed():
    # the partner comes from the stream layout, not from an offset seed such as 7 + 10**6
    grid, hp = TimeGrid(0.5, 32), HurstParam(0.75)
    primary, partner = independent_pairs(grid, hp, 8, 7)
    assert not np.allclose(partner, sample_fbm_circulant_batch(grid, hp, 8, 1_000_007))
    assert not np.allclose(partner, primary)


def test_close_horizons_draw_independent_drivers(tmp_path, monkeypatch):
    # horizons are keyed by index, so the drivers of T = 1 and T = 1.0004
    # are not rescaled copies of each other
    seeds = {}
    real = verifiers.verify_hoeffding_large_time

    def record(**kw):
        seeds[kw["T"]] = kw["seed"]
        return real(**kw)

    monkeypatch.setattr(verifiers, "verify_hoeffding_large_time", record)
    ini = tmp_path / "h.ini"
    ini.write_text("[grid]\nn_steps = 16\n[verify]\nn_paths = 20\nhorizons = 1,1.0004\n")
    VERIFIERS["hoeffding-large"](load_config(str(ini)))
    hp = HurstParam(0.75)
    drivers = [sample_fbm_circulant_batch(TimeGrid(T, 16), hp, 20, s) / T**hp.h
               for T, s in seeds.items()]
    assert len(drivers) == 2
    assert not np.allclose(*drivers)


def test_calibration_reproduces_frozen_constants():
    frozen = calibrated_constants()
    assert calibrate_k_hat(1000, 0)["K_hat"] == frozen["K_hat"]
    assert 1.5 * kappa_empirical(1000, 0) == frozen["kappa_hat"]


def test_stability_horizon_boundary_is_one_comparison(tmp_path):
    # drift b(x) = -2x: L_b = 2, Delta = 1/4
    delta = stability_horizon(2.0)
    assert delta == 0.25 and stability_horizon(0.0) == 1.0 and stability_horizon(0.1) == 1.0
    for T, inside in ((delta, True), (delta * (1 + 1e-9), False)):
        assert (T <= t1_constant(0.75, T, 1.0, 2.0)[1]) is inside
        ini = tmp_path / "c.ini"
        ini.write_text(f"[grid]\nt_max = {T!r}\nn_steps = 16\n[sde]\ndrift_b = -2\n"
                       "[verify]\nn_paths = 8\n")
        cfg = load_config(str(ini))
        if inside:
            assert VERIFIERS["stability"](cfg)["n_pairs"] == 8
        else:
            with pytest.raises(PremiseError, match="stability premise violated"):
                VERIFIERS["stability"](cfg)


# one config per premise guard that violates it
PREMISE_VIOLATIONS = {
    "stability": "[grid]\nt_max = 0.5\n[sde]\ndrift_b = -4\n",   # T > Delta
    "esti-int": "[verify]\nbeta = 0.8\n",                         # beta > H
    "fernique": "[verify]\nbeta = 0.5\n",                         # beta <= 1/2
    "hoeffding-small": "[grid]\nt_max = 2\n",                     # T > 1
    "hoeffding-large": "[sde]\ndrift_b = 0.5\n",                  # B >= 0
    "phi-link": "[verify]\nc_delta_values = 2,0.5\n",             # C(delta) < 1
}


@pytest.mark.parametrize("name", list(PREMISE_VIOLATIONS))
def test_each_premise_guard_raises_premise_error(tmp_path, name):
    path = tmp_path / "p.ini"
    path.write_text(PREMISE_VIOLATIONS[name])
    with pytest.raises(PremiseError):
        VERIFIERS[name](load_config(str(path)))
