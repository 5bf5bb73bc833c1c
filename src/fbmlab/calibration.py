"""Calibration of the universal constants kappa and K.

The theory asserts existence of a universal constant kappa dominating the
Young-integral estimate and a universal constant K in the small-horizon
driver-stability / T1 statements, without giving numeric values.  Two
routes pin them down:

* kappa: the proof of the integral estimate produces a closed-form
  constant k(alpha, beta) built from beta functions; minimizing over the
  admissible alpha and taking the supremum of (beta - 1/2) k(alpha, beta)
  over beta in (1/2, 1) yields an analytic value which the inequality
  provably satisfies.  An independent Monte Carlo sweep of the ratio
  confirms it is not vacuous.
* K: calibrated from the moment sufficient condition
  2 sup_k (k! E d(xi, xi')^{2k} / (2k)!)^{1/k} over independent solution
  pairs of the reference dissipative model, divided by ||sigma||_beta
  T^{2H}, with a safety margin so fresh seeds stay below it.

The frozen results live in fixtures/calibrated_constants.json together
with this provenance; verifiers read them from there.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .concentration import (
    MODEL,
    esti_int_sweep,
    estimate_t1_constant,
    shared_pass,
    stability_share,
)
from .config import schema_defaults
from .fbm import HurstParam
from .grid import TimeGrid

REFERENCE_CONFIG = {
    "H": 0.75,
    "beta": 0.6,
    "T": 0.5,
    "n_steps": 256,
    "L_b": 1.0,
    "sigma": 1.0,
}

#: The config values `fbmlab calibrate` honours (any other is rejected, exit
#: 2): the verifiers' MODEL at the reference H, beta and drift_b = -L_b.
#: [grid] and the campaign keys of [verify] are not read (K_hat is calibrated
#: at T = 0.5, kappa_hat at T = 1, each on 256 steps), so they must keep
#: their defaults.  [fbm] n_paths is accepted unread.
SUPPORTED_SETTINGS = {
    "fbm": {**MODEL["fbm"], "hurst": REFERENCE_CONFIG["H"]},
    "sde": {**MODEL["sde"], "drift_b": -REFERENCE_CONFIG["L_b"]},
    "verify": {"beta": REFERENCE_CONFIG["beta"],
               **schema_defaults("verify", "verifiers", "horizons", "delta",
                                 "c_delta_values")},
    "grid": schema_defaults("grid", "t_max", "n_steps"),
}


def k_alpha_beta(alpha, beta):
    """Closed-form constant of the Young-integral estimate,

        k = beta B(alpha+beta, 1-alpha) / ((alpha+beta-1) G(alpha) G(1-alpha))
          + alpha beta B(alpha+beta, 1+beta-alpha)
            / ((alpha+beta-1)(beta-alpha) G(alpha) G(1-alpha)),

    valid for 1 - beta < alpha < 1/2 (which forces beta > 1/2); arrays broadcast."""
    if not np.all((1.0 - beta < alpha) & (alpha < 0.5)):
        raise ValueError(f"alpha={alpha} outside (1-beta, 1/2) for beta={beta}")
    gg = special.gamma(alpha) * special.gamma(1.0 - alpha)
    term1 = beta * special.beta(alpha + beta, 1.0 - alpha) / ((alpha + beta - 1.0) * gg)
    term2 = alpha * beta * special.beta(alpha + beta, 1.0 + beta - alpha) \
        / ((alpha + beta - 1.0) * (beta - alpha) * gg)
    return term1 + term2


def k_inf_alpha(betas: np.ndarray) -> np.ndarray:
    """inf over admissible alpha of k(alpha, beta) for every beta at once:
    golden-section searches, advanced together on arrays, over the
    admissible interval less 1e-6 of its width at each end, until every
    bracket is below 1e-12 wide."""
    r = (5 ** 0.5 - 1) / 2  # golden ratio
    lo, hi = 1.0 - betas, np.full_like(betas, 0.5)
    lo, hi = lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo)
    while np.max(hi - lo) > 1e-12:
        c, d = hi - r * (hi - lo), lo + r * (hi - lo)
        left = k_alpha_beta(c, betas) < k_alpha_beta(d, betas)
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
    return k_alpha_beta((lo + hi) / 2, betas)


KAPPA_BETA_RANGE = (0.55, 0.95)
KAPPA_MARGIN = 1.5   # kappa_hat = margin * empirical sup
K_MARGIN = 1.25      # K_hat = margin * stability-ratio sup


def kappa_analytic() -> float:
    """max over KAPPA_BETA_RANGE (400 grid points) of
    (beta - 1/2) inf_alpha k(alpha, beta), all 400 infima from one k_inf_alpha.

    The closed-form constant diverges like (beta - 1/2)^{-2} as beta drops
    to 1/2, so no beta-uniform value comes out of this decomposition; the
    frozen constant is valid on the declared range only, which covers every
    configuration the verifiers use.
    """
    betas = np.linspace(KAPPA_BETA_RANGE[0], KAPPA_BETA_RANGE[1], 400)
    return float(np.max((betas - 0.5) * k_inf_alpha(betas)))


def kappa_empirical(n_pairs: int = 1000, seed: int = 0) -> float:
    """Monte Carlo sweep of (beta - 1/2) |int f dg| / (||g|| (...)).

    f and g are independent fBm paths (reference H and beta, horizon T = 1),
    the window [a, b] is drawn uniformly over grid-node pairs.  Returns the
    observed supremum; kappa_hat is this supremum times KAPPA_MARGIN.
    """
    cfg = REFERENCE_CONFIG
    beta = cfg["beta"]
    reports = esti_int_sweep(TimeGrid(1.0, cfg["n_steps"]), HurstParam(cfg["H"]),
                             beta, n_pairs, seed)
    return max([0.0] + [(beta - 0.5) * r.lhs / r.context["bracket"]
                        for r in reports if r.context["bracket"] > 0])


def calibrate_k_hat(n_pairs: int = 1000, seed: int = 0) -> dict:
    """K_hat from the driver-stability ratio on the reference model.

    Independent driver pairs g, g~ (the stability share of the pair
    ensemble of `seed`) feed dx = -x dt + dg on [0, T]; the Monte Carlo
    supremum of

        ||x - x~||_inf / (||sigma||_beta ||g - g~||_beta T^beta)

    times K_MARGIN defines K_hat (||sigma||_beta = 1 here).  The
    moment-based transportation constant (k <= 4) over the same solution
    pairs is recorded as a cross-check of the T1 usage K_hat T^{2H}.
    """
    cfg = REFERENCE_CONFIG
    grid = TimeGrid(cfg["T"], cfg["n_steps"])
    ratios, dists = next(shared_pass([stability_share(
        grid, HurstParam(cfg["H"]), cfg["beta"], -cfg["L_b"], n_pairs, seed)]))
    ratio_sup = float(ratios.max())
    c_hat, errs = estimate_t1_constant(dists)
    return {
        "K_hat": float(K_MARGIN * ratio_sup),
        "stability_ratio_sup": ratio_sup,
        "moment_constant": float(c_hat),
        "moment_implied_K": float(c_hat / cfg["T"] ** (2 * cfg["H"])),
        "jackknife_se": errs,
        "margin": K_MARGIN,
        "n_pairs": n_pairs,
        "seed": seed,
    }


def run_calibration(n_pairs: int = 1000, seed: int = 0) -> dict:
    """Full calibration: the frozen constants with their provenance."""
    kap_an = kappa_analytic()
    kap_emp = kappa_empirical(n_pairs=n_pairs, seed=seed)
    k_info = calibrate_k_hat(n_pairs=n_pairs, seed=seed)
    return {
        "K_hat": k_info["K_hat"],
        "kappa_hat": KAPPA_MARGIN * kap_emp,
        "provenance": {
            "reference_config": REFERENCE_CONFIG,
            "kappa": {
                "method": "Monte Carlo sup of the integral-estimate ratio over "
                          "independent fBm pairs (H=0.75, beta=0.6, T=1), "
                          "margin applied",
                "empirical_sup": kap_emp,
                "empirical_n_pairs": n_pairs,
                "margin": KAPPA_MARGIN,
                "analytic_ceiling": kap_an,
                "analytic_ceiling_method": "max over beta range of (beta-1/2) "
                                           "inf_alpha k(alpha,beta), closed form",
                "beta_validity_range": list(KAPPA_BETA_RANGE),
            },
            "K": {
                "method": "Monte Carlo sup of the driver-stability ratio over "
                          "independent solution pairs, margin applied; "
                          "moment-based transportation constant recorded as "
                          "cross-check",
                **{k: v for k, v in k_info.items() if k != "K_hat"},
            },
        },
    }
