"""The verifier registry and the kernels it shares with the calibration."""

import tracemalloc

import numpy as np
import pytest
from scipy import optimize

from fbmlab import concentration
from fbmlab.calibration import (
    KAPPA_BETA_RANGE,
    calibrate_k_hat,
    k_alpha_beta,
    k_inf_alpha,
    kappa_analytic,
    kappa_empirical,
)
from fbmlab.concentration import (
    VERIFIERS,
    PremiseError,
    esti_int_sweep,
    independent_pairs,
    run_verifier,
    shared_pass,
    stability_share,
)
from fbmlab.config import VERIFIER_NAMES, ConfigError, load_config
from fbmlab.fbm import HurstParam, sample_fbm_circulant_batch
from fbmlab.fixtures import calibrated_constants
from fbmlab.fractional import lemma_esti_int_check
from fbmlab.grid import GridFunction, TimeGrid, holder_norm
from fbmlab.sde import euler_additive_ensemble, stability_horizon
from fbmlab.transport import t1_constant


def test_registry_follows_config_names():
    assert tuple(VERIFIERS) == VERIFIER_NAMES


def test_stability_ratios_match_per_pair_holder_norm():
    # T = Delta = 1/4 for B = -2: the stability share's premise holds
    grid, hp, beta, B = TimeGrid(0.25, 64), HurstParam(0.75), 0.6, -2.0
    g1, g2 = independent_pairs(grid, hp, 40, 5)
    g2[0] = g1[0]  # a vanishing driver gap gives ratio 0
    share = stability_share(grid, hp, beta, B, 40, 5)
    assert list(share.reads) == ["solution_d_inf", "driver_gap"]
    ratios, sup_dist = share.finish(*(stat(g1, g2) for stat in share.reads.values()))
    x1 = euler_additive_ensemble(0.0, lambda x: B * x, g1, grid.dt)
    x2 = euler_additive_ensemble(0.0, lambda x: B * x, g2, grid.dt)
    for i in range(len(g1)):
        d = np.abs(x1[i] - x2[i]).max()
        hn = holder_norm(grid, g1[i] - g2[i], beta).seminorm_beta
        assert sup_dist[i] == d
        assert ratios[i] == (d / (hn * grid.t_max**beta) if hn > 0 else 0.0)
    assert ratios[0] == 0.0


def test_esti_int_sweep_reports_equal_lemma_check():
    # the sweep takes its g seminorms from the ensemble kernel; the bracket
    # must come out exactly as the per-pair check computes it
    grid, hp, beta = TimeGrid(0.5, 64), HurstParam(0.75), 0.6
    reports = esti_int_sweep(grid, hp, beta, 50, 9)
    f_paths, g_paths = independent_pairs(grid, hp, 50, 9)
    assert len(reports) == 50
    for rep, f, g in zip(reports, f_paths, g_paths):
        a, b = rep.context["window"]
        ref = lemma_esti_int_check(GridFunction(grid, f), GridFunction(grid, g), beta, a, b)
        assert (rep.lhs, rep.rhs, rep.ratio) == (ref.lhs, ref.rhs, ref.ratio)


def test_partner_is_not_an_offset_seed():
    # the partner comes from the stream layout, not from an offset seed such as 7 + 10**6
    grid, hp = TimeGrid(0.5, 32), HurstParam(0.75)
    primary, partner = independent_pairs(grid, hp, 8, 7)
    assert not np.allclose(partner, sample_fbm_circulant_batch(grid, hp, 8, 1_000_007))
    assert not np.allclose(partner, primary)


def test_horizons_read_the_primary_ensemble_scaled_by_self_similarity(tmp_path, monkeypatch):
    # every horizon T solves on TimeGrid(T, n_steps) with the primary rows of
    # the config (its seed, drawn on TimeGrid(t_max, n_steps)) scaled by
    # (T / t_max)^H; scaled, they are the rows drawn on [0, T] up to rounding
    n, n_steps, seed, hp = 50, 256, 7, HurstParam(0.75)
    ini = tmp_path / "h.ini"
    ini.write_text(f"[experiment]\nseed = {seed}\n[grid]\nt_max = 1\nn_steps = {n_steps}\n"
                   f"[verify]\nn_paths = {n}\nhorizons = 0.5,2,4\n")
    cfg = load_config(str(ini))
    shares, _ = VERIFIERS["hoeffding-large"](cfg)
    assert {s.ensemble for s in shares} == {((seed,), TimeGrid(1.0, n_steps), hp)}
    assert [list(s.reads) for s in shares] == [
        [f"solution_time_average({T})"] for T in (0.5, 2.0, 4.0)]
    seen = {}
    real = concentration.solve_model

    def solve(drivers, drift_b, dt, scale=1.0):
        seen[dt] = drivers.copy(), scale
        return real(drivers, drift_b, dt, scale)

    monkeypatch.setattr(concentration, "solve_model", solve)
    assert run_verifier("hoeffding-large", cfg)["horizons"].keys() == {"0.5", "2.0", "4.0"}
    primary = sample_fbm_circulant_batch(TimeGrid(1.0, n_steps), hp, n, seed)
    for T in (0.5, 2.0, 4.0):
        drivers, scale = seen.pop(TimeGrid(T, n_steps).dt)
        assert scale == T**hp.h
        assert np.array_equal(drivers, primary)
        direct = sample_fbm_circulant_batch(TimeGrid(T, n_steps), hp, n, seed)
        assert np.abs(scale * primary - direct).max() <= 1e-14 * np.abs(direct).max()
    assert not seen


def test_horizon_at_t_max_is_the_unscaled_campaign(tmp_path):
    # at T = t_max the scale is exactly 1.0: the horizon's records are those
    # of verify_hoeffding_large_time on the same seed and grid, bit for bit
    ini = tmp_path / "h.ini"
    ini.write_text("[experiment]\nseed = 3\n[grid]\nt_max = 2\nn_steps = 64\n"
                   "[verify]\nn_paths = 300\nhorizons = 1,2\n")
    report = run_verifier("hoeffding-large", load_config(str(ini)))
    ri, r2 = concentration.verify_hoeffding_large_time(0.75, 2.0, 300, 64, seed=3, B=-1.0)
    assert report["horizons"]["2.0"] == {"d_infinity": ri, "d_two": r2}


def test_horizons_pass_memory_below_one_ensemble(tmp_path, workers):
    # three horizons read each task's paths, so they stay live while each
    # solves: the pass still never holds an (n_paths, n_nodes) ensemble
    workers(2)
    n, n_steps = 4 * 2048, 256
    ini = tmp_path / "m.ini"
    ini.write_text(f"[grid]\nt_max = 1\nn_steps = {n_steps}\n"
                   f"[verify]\nn_paths = {n}\nhorizons = 1,2,4\n")
    cfg = load_config(str(ini))
    run_verifier("hoeffding-large", cfg)  # per-grid arrays
    tracemalloc.start()
    try:
        run_verifier("hoeffding-large", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * (n_steps + 1) * 8


def test_kappa_ceiling_infima_are_the_bounded_scalar_searches_or_below():
    # the vectorised golden-section infimum at every beta of the ceiling's
    # grid is no larger than scipy's bounded scalar search over the same
    # interval (which stops at xatol 1e-5 in alpha), and within 1e-4 of it
    betas = np.linspace(*KAPPA_BETA_RANGE, 400)
    infima = k_inf_alpha(betas)
    for beta, value in zip(betas, infima):
        pad = 1e-6 * (beta - 0.5)
        ref = optimize.minimize_scalar(lambda a: k_alpha_beta(a, beta), method="bounded",
                                       bounds=(1.0 - beta + pad, 0.5 - pad)).fun
        assert value <= ref + 1e-12, beta
        assert ref - value <= 1e-4 * ref, beta
    assert kappa_analytic() == float(np.max((betas - 0.5) * infima))
    with pytest.raises(ValueError, match="outside"):
        k_alpha_beta(np.array([0.3, 0.1]), 0.8)


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
            assert run_verifier("stability", cfg)["n_pairs"] == 8
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
    with pytest.raises(PremiseError):  # by the plan, or by esti-int's or phi-link's report
        shares, report = VERIFIERS[name](load_config(str(path)))
        report(*(next(shared_pass([s])) for s in shares))


def test_run_verifier_stamps_reports_and_records_rejections(tmp_path):
    path = tmp_path / "p.ini"
    path.write_text(PREMISE_VIOLATIONS["phi-link"] + "[experiment]\nseed = 5\n")
    cfg = load_config(str(path))
    report = run_verifier("phi-link", cfg)
    assert report == {"verifier": "phi-link", "passed": False, "rejected": True,
                      "reason": "requires C(delta) >= 1, got 0.5",
                      "config_hash": cfg.config_hash, "seed": 5}
    with pytest.raises(ConfigError, match="unknown verifier 'bogus'"):
        run_verifier("bogus", cfg)


PAIR_CHUNK = 1024  # pairs of a 2048-path pair ensemble


@pytest.mark.parametrize("n_pairs", [1, PAIR_CHUNK - 1, PAIR_CHUNK, PAIR_CHUNK + 1, 2000])
def test_streamed_pair_values_equal_whole_ensemble_kernels(n_pairs):
    # both quantities of the stability share in one pass, and each in a pass
    # of its own, against the statistics of the whole pair ensemble
    grid, hp, beta, B, seed = TimeGrid(0.5, 64), HurstParam(0.75), 0.6, -1.0, 11
    g1, g2 = independent_pairs(grid, hp, n_pairs, seed)
    share = stability_share(grid, hp, beta, B, n_pairs, seed)
    whole = {name: stat(g1, g2) for name, stat in share.reads.items()}
    values = share._replace(finish=lambda *values: values)
    both = next(shared_pass([values]))
    assert [len(v) for v in both] == [n_pairs, n_pairs]
    for name, streamed in zip(share.reads, both):
        assert np.array_equal(streamed, whole[name])
        [alone] = next(shared_pass([values._replace(reads={name: share.reads[name]})]))
        assert np.array_equal(alone, whole[name])
    ratios, dists = share.finish(*whole.values())
    s_ratios, s_dists = next(shared_pass([share]))
    assert np.array_equal(s_ratios, ratios) and np.array_equal(s_dists, dists)


def test_shared_pass_equals_each_share_on_its_own(tmp_path, monkeypatch):
    # stability reads the first 1000 pairs, t1-moments and gaussian-tail all
    # 2000, so the pass has two segments; fernique and hoeffding-small read
    # the primary ensemble
    ini = tmp_path / "s.ini"
    ini.write_text("[grid]\nt_max = 0.5\nn_steps = 16\n[verify]\nn_paths = 2000\n")
    cfg = load_config(str(ini))
    pair_names, primary_names = ("stability", "t1-moments", "gaussian-tail"), \
        ("fernique", "hoeffding-small")
    plans = {name: VERIFIERS[name](cfg) for name in pair_names + primary_names}
    pair = [plans[name][0][0] for name in pair_names]
    assert [s.n for s in pair] == [1000, 2000, 2000]
    primary = [plans[name][0][0] for name in primary_names]
    for names, shares in ((pair_names, pair), (primary_names, primary)):
        reports = [plans[name][1] for name in names]
        alone = [report(next(shared_pass([s]))) for s, report in zip(shares, reports)]
        solved, seminorms = [], []
        real, real_seminorm = concentration.solve_model, concentration.holder_seminorm_ensemble
        monkeypatch.setattr(concentration, "solve_model",
                            lambda g, b, dt: solved.append(len(g)) or real(g, b, dt))
        monkeypatch.setattr(concentration, "holder_seminorm_ensemble",
                            lambda t, v, beta: seminorms.append(len(v))
                            or real_seminorm(t, v, beta))
        assert [report(r) for report, r in zip(reports, shared_pass(shares))] == alone
        monkeypatch.setattr(concentration, "solve_model", real)
        monkeypatch.setattr(concentration, "holder_seminorm_ensemble", real_seminorm)
        # each of the 2000 pairs is solved once, stability's first 1000
        # included, and only stability's 1000 pairs take a driver-gap
        # seminorm; fernique's seminorm is taken once per path
        assert sum(solved) == (2 * 2000 if shares is pair else 0)
        assert sum(seminorms) == (1000 if shares is pair else 2000)
    with pytest.raises(ValueError, match="one ensemble"):
        list(shared_pass(pair + primary))


def test_pair_distance_pass_memory_below_four_ensembles(tmp_path, workers):
    # the 2000-pair distances stream in tasks; built whole, the two driver
    # and two solution ensembles and their difference take six ensembles
    workers(2)
    n, n_steps = 2000, 256
    ini = tmp_path / "m.ini"
    ini.write_text(f"[grid]\nn_steps = {n_steps}\n[verify]\nn_paths = {n}\n")
    cfg = load_config(str(ini))
    run_verifier("t1-moments", cfg)  # per-grid arrays
    tracemalloc.start()
    try:
        run_verifier("t1-moments", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * (n_steps + 1) * 8
