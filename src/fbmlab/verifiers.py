"""The verifier registry: one plain function per verification campaign.

Each verifier maps an ExperimentConfig to a JSON-ready report dict with a
boolean "passed".  A verifier whose premises the configuration violates
raises PremiseError, which the command line records as a rejection.
`VERIFIERS` holds them in config.VERIFIER_NAMES order.

Two kernels here are also the Monte Carlo oracles of the calibration: the
driver-stability ratio behind K_hat (`stability_ratios`) and the sweep of
the Young-integral estimate behind kappa_hat (`esti_int_sweep`).

Every ensemble other than the primary one of the config seed is drawn from
`fbm.role_seed`: the independent partner (`independent_pairs`), the esti-int
windows and each large-time horizon, by its index in `[verify] horizons`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from .concentration import (
    PremiseError,
    estimate_t1_constant,
    gaussian_tail_c_delta,
    pair_distances,
    phi_argmax,
    phi_link,
    tail_constant_scaling,
    verify_fernique,
    verify_hoeffding_large_time,
    verify_hoeffding_small_time,
)
from .config import ExperimentConfig
from .fbm import HurstParam, Role, component_rng, role_seed, sample_fbm_circulant_batch
from .fixtures import calibrated_constants
from .fractional import BoundReport, lemma_esti_int_check
from .grid import GridFunction, TimeGrid, holder_seminorm_ensemble
from .sde import euler_additive_ensemble, stability_horizon
from .transport import PathEnsemble, PathMetric


def independent_pairs(grid: TimeGrid, hp: HurstParam, n_pairs: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent (n_pairs, n_nodes) fBm ensembles, matched by row."""
    return (sample_fbm_circulant_batch(grid, hp, n_pairs, seed),
            sample_fbm_circulant_batch(grid, hp, n_pairs, role_seed(seed, Role.partner)))


def solution_distances(grid: TimeGrid, g1: np.ndarray, g2: np.ndarray,
                       drift_b: float) -> np.ndarray:
    """d_inf(x, x~) per row, where x and x~ solve dx = drift_b x dt + dg
    from x = 0 with the drivers g1[i] and g2[i]."""
    x1 = euler_additive_ensemble(0.0, lambda x: drift_b * x, g1, grid.dt)
    x2 = euler_additive_ensemble(0.0, lambda x: drift_b * x, g2, grid.dt)
    return pair_distances(PathEnsemble(grid, x1), PathEnsemble(grid, x2),
                          PathMetric.d_infinity)


def stability_ratios(grid: TimeGrid, g1: np.ndarray, g2: np.ndarray,
                     beta: float, drift_b: float) -> tuple[np.ndarray, np.ndarray]:
    """Driver-stability ratios of dx = drift_b x dt + dg over driver pairs,

        ||x - x~||_inf / (||g1[i] - g2[i]||_beta T^beta)

    (||sigma||_beta = 1), or 0 where the driver gap vanishes.  Returns the
    ratios and the solution_distances they are built from.
    """
    sup_dist = solution_distances(grid, g1, g2, drift_b)
    gap = holder_seminorm_ensemble(grid.points, g1 - g2, beta)
    ratios = np.divide(sup_dist, gap * grid.t_max**beta,
                       out=np.zeros_like(sup_dist), where=gap > 0)
    return ratios, sup_dist


def esti_int_sweep(grid: TimeGrid, hp: HurstParam, beta: float,
                   n_pairs: int, seed: int) -> list[BoundReport]:
    """lemma_esti_int_check over independent fBm pairs (f, g), each on a
    window [a, b] whose grid nodes a < b are drawn at random."""
    f_paths, g_paths = independent_pairs(grid, hp, n_pairs, seed)
    rng = component_rng(role_seed(seed, Role.windows), 0, 0)
    reports = []
    for f, g in zip(f_paths, g_paths):
        ia = int(rng.integers(0, grid.n_steps - 1))
        ib = int(rng.integers(ia + 1, grid.n_steps + 1))
        reports.append(lemma_esti_int_check(GridFunction(grid, f), GridFunction(grid, g),
                                            beta, grid.points[ia], grid.points[ib]))
    return reports


def _grid(cfg: ExperimentConfig) -> TimeGrid:
    return TimeGrid(cfg.get("grid", "t_max"), cfg.get("grid", "n_steps"))


def _verify_stability(cfg: ExperimentConfig) -> dict:
    K_hat = calibrated_constants()["K_hat"]
    B = cfg.get("sde", "drift_b")
    T = cfg.get("grid", "t_max")
    delta = stability_horizon(abs(B))
    if T > delta:
        raise PremiseError(f"stability premise violated: T={T} > Delta={delta}")
    grid = _grid(cfg)
    n_pairs = min(cfg.get("verify", "n_paths"), 1000)
    g1, g2 = independent_pairs(grid, HurstParam(cfg.get("fbm", "hurst")), n_pairs,
                               cfg.get("experiment", "seed"))
    ratios, _ = stability_ratios(grid, g1, g2, cfg.get("verify", "beta"), B)
    worst = float(ratios.max())
    return {"verifier": "stability", "passed": worst <= K_hat,
            "worst_ratio": worst, "K_hat": K_hat, "n_pairs": n_pairs}


def _verify_esti_int(cfg: ExperimentConfig) -> dict:
    H = cfg.get("fbm", "hurst")
    beta = cfg.get("verify", "beta")
    if not 0.5 < beta < H:
        raise PremiseError(f"esti-int premise violated: need 1/2 < beta < H, "
                           f"got beta={beta}, H={H}")
    n_pairs = min(cfg.get("verify", "n_paths"), 200)
    reports = esti_int_sweep(_grid(cfg), HurstParam(H), beta, n_pairs,
                             cfg.get("experiment", "seed"))
    return {"verifier": "esti-int", "passed": all(r.passed for r in reports),
            "worst_ratio": max([0.0] + [r.ratio for r in reports]), "n_pairs": n_pairs}


def _verify_fernique(cfg: ExperimentConfig) -> dict:
    rep = verify_fernique(cfg.get("fbm", "hurst"), cfg.get("verify", "beta"),
                          cfg.get("grid", "t_max"),
                          min(cfg.get("verify", "n_paths"), 20000),
                          n_steps=cfg.get("grid", "n_steps"),
                          seed=cfg.get("experiment", "seed"))
    return {"verifier": "fernique", "passed": rep.all_passed, **rep.to_dict()}


def _verify_hoeffding_small(cfg: ExperimentConfig) -> dict:
    rep_avg, rep_sup = verify_hoeffding_small_time(
        H=cfg.get("fbm", "hurst"), T=cfg.get("grid", "t_max"),
        n_paths=cfg.get("verify", "n_paths"),
        n_steps=cfg.get("grid", "n_steps"), seed=cfg.get("experiment", "seed"))
    return {"verifier": "hoeffding-small",
            "passed": rep_avg.all_passed and rep_sup.all_passed,
            "time_average": rep_avg.to_dict(), "sup_displacement": rep_sup.to_dict()}


def _verify_hoeffding_large(cfg: ExperimentConfig) -> dict:
    seed = cfg.get("experiment", "seed")
    out: dict = {"verifier": "hoeffding-large", "horizons": {}}
    d2_reports = {}
    ok = True
    for k, T in enumerate(cfg.horizon_list):
        ri, r2 = verify_hoeffding_large_time(
            H=cfg.get("fbm", "hurst"), T=T,
            n_paths=cfg.get("verify", "n_paths"),
            n_steps=cfg.get("grid", "n_steps"), seed=role_seed(seed, Role.horizon, k),
            B=cfg.get("sde", "drift_b"))
        ok &= ri.all_passed and r2.all_passed
        out["horizons"][str(T)] = {"d_infinity": ri.to_dict(), "d_two": r2.to_dict()}
        d2_reports[T] = r2
    if len(d2_reports) >= 2:
        expo = tail_constant_scaling(d2_reports)
        target = 2.0 - 2.0 * cfg.get("fbm", "hurst")
        out["scaling_exponent"] = expo
        out["scaling_target"] = target
        ok &= abs(expo - target) <= 0.15
    out["passed"] = bool(ok)
    return out


def _solution_pair_distances(cfg: ExperimentConfig) -> np.ndarray:
    grid = _grid(cfg)
    n_pairs = min(cfg.get("verify", "n_paths"), 2000)
    d1, d2 = independent_pairs(grid, HurstParam(cfg.get("fbm", "hurst")), n_pairs,
                               cfg.get("experiment", "seed"))
    return solution_distances(grid, d1, d2, cfg.get("sde", "drift_b"))


def _verify_t1_moments(cfg: ExperimentConfig) -> dict:
    delta = cfg.get("verify", "delta")
    dists = _solution_pair_distances(cfg)
    c_hat, errs = estimate_t1_constant(dists)
    diag = gaussian_tail_c_delta(dists, delta)
    passed = (not diag["unstable"]) and c_hat <= diag["c_over_delta"]
    return {"verifier": "t1-moments", "passed": bool(passed),
            "moment_constant": c_hat, "jackknife_se": errs,
            "c_delta_over_delta": diag["c_over_delta"], "delta": delta,
            "n_pairs": len(dists)}


def _verify_gaussian_tail(cfg: ExperimentConfig) -> dict:
    dists = _solution_pair_distances(cfg)
    diag = gaussian_tail_c_delta(dists, cfg.get("verify", "delta"))
    return {"verifier": "gaussian-tail", "passed": not diag["unstable"], **diag,
            "n_pairs": len(dists)}


def _verify_phi_link(cfg: ExperimentConfig) -> dict:
    c_values = cfg.c_delta_list
    argmax_ok = all(abs(phi_argmax(c) - 1.0) <= 1e-9 for c in c_values)
    value_ok = all(abs(phi_link(1.0, c) - c / 2.0) <= 1e-12 * c for c in c_values)
    digamma_ok = abs((digamma(2.0) - digamma(3.0)) - (-0.5)) <= 1e-12
    return {"verifier": "phi-link",
            "passed": argmax_ok and value_ok and digamma_ok,
            "argmax_ok": argmax_ok, "value_ok": value_ok,
            "digamma_ok": digamma_ok, "c_values": c_values}


VERIFIERS = {
    "stability": _verify_stability,
    "esti-int": _verify_esti_int,
    "fernique": _verify_fernique,
    "hoeffding-small": _verify_hoeffding_small,
    "hoeffding-large": _verify_hoeffding_large,
    "t1-moments": _verify_t1_moments,
    "gaussian-tail": _verify_gaussian_tail,
    "phi-link": _verify_phi_link,
}
