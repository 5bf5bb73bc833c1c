"""Monte Carlo verification of the concentration statements.

Everything here compares an empirical quantity carrying a one-sided
confidence bound against a closed-form bound:

* sub-Gaussian tails of two Lipschitz path functionals (the clipped time
  average and the sup displacement) in the small- and large-time regimes,
  against the T1/T2 constants of fbmlab.transport, with Clopper-Pearson
  99% upper bounds so a failure is statistically meaningful;
* Fernique-type moment and exponential-moment estimates for the Holder
  seminorm of fBm;
* the Garsia-Rodemich-Rumsey random Holder constant, whose modulus
  property is checked exactly on the grid, not statistically; its double
  sum and the Holder seminorm are reductions of the one lag loop of
  fbmlab.grid, on one path or an ensemble;
* the moment-based transportation constant and its Gaussian-tail link,
  including the gamma/digamma optimization showing the link supremum sits
  at k = 1.

The verifiers run one model, `MODEL` (solved by `solve_model`), kept here
beside the campaigns that use it.  The 20 000-path campaigns (Fernique and
both Hoeffding regimes) keep one or two numbers per path, so they stream
their paths through `fbm.map_circulant_chunks`: each chunk is sampled,
solved (large time) and reduced to its per-path statistic, and moments,
quantiles and tails are taken on the concatenated vector.  A campaign's
memory is a few chunks, not a few ensembles, and its reports are those of a
whole-batch run byte for byte.

Negative controls are first class: every verifier refuses configurations
that violate its premises (e.g. beta > H) rather than producing vacuous
passes.  An overflow in the Fernique moments raises FloatingPointError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

from .fbm import HurstParam, map_circulant_chunks
from .fixtures import calibrated_constants
from .grid import TimeGrid, by_blocks, holder_seminorm_ensemble, lag_reduce
from .sde import euler_additive_ensemble
from .transport import (
    PathEnsemble,
    PathMetric,
    path_metric,
    t1_constant,
    t2_constant_d2,
    t2_constant_dinf,
)


class PremiseError(ValueError):
    """A configuration outside a verifier's premises (CLI: a "rejected"
    report, exit 1); raised only by the premise guards."""


#: The model every verifier runs: dx = drift_b x dt + sigma dB^H from x0,
#: with one circulant fBm component as B^H.  sigma = 1, so the sampled fBm
#: paths are the drivers themselves.
MODEL = {"fbm": {"generator": "circulant", "components": 1},
         "sde": {"sigma": 1.0, "x0": 0.0}}


def solve_model(drivers: np.ndarray, drift_b: float, dt: float) -> np.ndarray:
    """Euler solutions of the MODEL equation, one per row of drivers."""
    return euler_additive_ensemble(MODEL["sde"]["x0"], lambda x: drift_b * x, drivers, dt)


@dataclass
class TailReport:
    """Empirical tail vs closed-form bound on a grid of thresholds."""

    r_grid: np.ndarray
    empirical_tail: np.ndarray
    upper_confidence: np.ndarray
    paper_bound: np.ndarray
    passed: np.ndarray
    n_samples: int
    config_hash: str = ""
    notes: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))

    def to_dict(self) -> dict:
        return {
            "r_grid": self.r_grid.tolist(),
            "empirical_tail": self.empirical_tail.tolist(),
            "upper_confidence": self.upper_confidence.tolist(),
            "bound": self.paper_bound.tolist(),
            "passed": [bool(x) for x in self.passed],
            "n_samples": self.n_samples,
            "config_hash": self.config_hash,
            "notes": self.notes,
        }


@dataclass
class MomentReport:
    k_list: list[int]
    empirical_moments: list[float]
    standard_errors: list[float]
    upper_confidence: list[float]
    bounds: list[float]
    exp_alpha: float
    exp_empirical: float
    exp_upper_confidence: float
    exp_bound: float
    n_samples: int

    @property
    def all_passed(self) -> bool:
        mom_ok = all(u <= b for u, b in zip(self.upper_confidence, self.bounds))
        return mom_ok and self.exp_upper_confidence <= self.exp_bound

    def to_dict(self) -> dict:
        return {
            "k_list": self.k_list,
            "empirical_moments": self.empirical_moments,
            "standard_errors": self.standard_errors,
            "upper_confidence": self.upper_confidence,
            "bounds": self.bounds,
            "exp_alpha": self.exp_alpha,
            "exp_empirical": self.exp_empirical,
            "exp_upper_confidence": self.exp_upper_confidence,
            "exp_bound": self.exp_bound,
            "n_samples": self.n_samples,
            "passed": self.all_passed,
        }


CONFIDENCE = 0.99  # one-sided level of every upper confidence bound here


def clopper_pearson_upper(successes: np.ndarray, n: int) -> np.ndarray:
    """Exact one-sided upper confidence bound for a binomial proportion."""
    k = np.asarray(successes)
    upper = stats.beta.ppf(CONFIDENCE, k + 1, n - k)
    return np.where(k >= n, 1.0, upper)


def mean_upper_confidence(x: np.ndarray) -> float:
    """Normal-approximation one-sided upper bound for a mean."""
    z = stats.norm.ppf(CONFIDENCE)
    return float(x.mean() + z * x.std(ddof=1) / np.sqrt(len(x)))


# ---------------------------------------------------------------------------
# Moment-based transportation constant and Gaussian-tail link
# ---------------------------------------------------------------------------

T1_K_MAX = 4  # higher empirical moments are noise-dominated at desk scale


def pair_distances(mu: PathEnsemble, nu: PathEnsemble, metric: PathMetric) -> np.ndarray:
    """d(xi_i, xi'_i) for matched independent pairs (diagonal coupling)."""
    if mu.n != nu.n:
        raise ValueError("pair ensembles must have equal size")
    return path_metric(mu.paths - nu.paths, mu.grid.dt, metric)


def estimate_t1_constant(distances: np.ndarray) -> tuple[float, dict[int, float]]:
    """Plug-in estimator of 2 sup_{k <= T1_K_MAX} (k! E d^{2k} / (2k)!)^{1/k}
    and its jackknife standard error per k.

    distances are i.i.d. draws of d(xi, xi') for independent xi, xi'.
    """
    d = np.asarray(distances, dtype=float)
    n = len(d)

    def root(m, k):  # (k! m / (2k)!)^{1/k}
        return (special.factorial(k) * m / special.factorial(2 * k)) ** (1.0 / k)

    terms, errs = [], {}
    for k in np.arange(1, T1_K_MAX + 1):
        p = d ** (2 * k)
        m = p.mean()
        terms.append(root(m, k))
        jk = root((m * n - p) / (n - 1), k)   # leave-one-out moments
        errs[int(k)] = float(np.sqrt((n - 1) * np.var(jk)))
    return float(2.0 * max(terms)), errs


def gaussian_tail_c_delta(distances: np.ndarray, delta: float) -> dict:
    """Empirical C(delta) = E exp(delta d^2) over independent pairs.

    Reports the implied constant C(delta)/delta and a tail-heaviness
    diagnostic: the fraction of pairs saturating the exponential and the
    share of the mean carried by the top 1% of pairs (instability flag).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    d2 = np.asarray(distances, dtype=float) ** 2
    arg = delta * d2
    saturated = arg > 700.0
    vals = np.exp(np.minimum(arg, 700.0))
    c_delta = float(vals.mean())
    top = np.sort(vals)[-max(1, len(vals) // 100):]
    top_share = float(top.sum() / vals.sum())
    return {
        "delta": delta,
        "c_delta": c_delta,
        "c_over_delta": c_delta / delta,
        "saturation_fraction": float(saturated.mean()),
        "top1pct_share": top_share,
        "unstable": bool(saturated.any() or top_share > 0.5),
    }


def fernique_exponent_radius(H: float, beta: float, T: float) -> float:
    """Admissible radius for the exponential moment: 1/(128 (2T)^{2(H-beta)})."""
    return 1.0 / (128.0 * (2.0 * T) ** (2 * (H - beta)))


# ---------------------------------------------------------------------------
# Hoeffding-type tail verification
# ---------------------------------------------------------------------------

TAIL_QUANTILES = np.array([0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999])


def time_average(paths: np.ndarray, grid: TimeGrid, clip: float) -> np.ndarray:
    """F(gamma) = (1/T) int V(gamma(t)) dt with V(x) = x clipped to
    [-clip, clip], per row of an (n_paths, n_nodes) ensemble.

    V is 1-Lipschitz, so F is 1-Lipschitz under d_inf and
    (1/sqrt(T))-Lipschitz under d_2.
    """
    return np.trapezoid(np.clip(paths, -clip, clip), dx=grid.dt, axis=1) / grid.t_max


def sup_displacement(paths: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """F(gamma) = d_inf(gamma, gamma(0)) = sup_t |gamma(t) - gamma(0)| per
    row; 1-Lipschitz under d_inf."""
    return path_metric((paths - paths[:, :1])[..., None], grid.dt, PathMetric.d_infinity)


def _tail_report(samples: np.ndarray, denom: float, notes: dict) -> TailReport:
    """Compare P(F - mean(F) > r) with exp(-r^2 / denom) on the
    TAIL_QUANTILES r-grid.

    Centering uses the empirical mean; its one-standard-error uncertainty is
    absorbed by inflating r on the bound side (documented bias control).
    """
    n = len(samples)
    centered = samples - samples.mean()
    se_mean = samples.std(ddof=1) / np.sqrt(n)
    r_grid = np.quantile(centered, TAIL_QUANTILES)
    r_grid = np.unique(r_grid[r_grid > 0])
    counts = np.array([(centered > r).sum() for r in r_grid])
    emp = counts / n
    upper = clopper_pearson_upper(counts, n)
    bound = np.exp(-(r_grid + se_mean) ** 2 / denom)
    passed = upper <= bound
    return TailReport(r_grid=r_grid, empirical_tail=emp, upper_confidence=upper,
                      paper_bound=bound, passed=passed, n_samples=n,
                      notes={"denominator": denom, "se_mean": float(se_mean), **notes})


def verify_hoeffding_small_time(H: float, T: float, n_paths: int,
                                n_steps: int, seed: int) -> tuple[TailReport, TailReport]:
    """Small-horizon tails for the drift-free unit-diffusion model.

    With b = 0 and sigma = 1 the solution is x + B^H itself; the two
    functionals are the time average of x clipped to [-10, 10] and the sup
    displacement, both 1-Lipschitz under d_inf.  Bound denominators are 2 C
    with C = K_hat T^{2H}, the additive t1_constant (||sigma||_beta = 1,
    L_b = 0).  Refuses horizons beyond its validity window
    T <= stability_horizon(0) = 1.
    """
    C, horizon = t1_constant(H, T, 1.0, 0.0)
    if T > horizon:
        raise PremiseError(f"small-time verifier requires T <= 1, got {T}")
    K = calibrated_constants()["K_hat"]
    hp = HurstParam(H)
    grid = TimeGrid(T, n_steps)
    avg, sup = map_circulant_chunks(grid, hp, n_paths, seed, lambda paths: np.stack(
        [time_average(paths, grid, clip=10.0), sup_displacement(paths, grid)]))
    rep_avg = _tail_report(avg, 2.0 * C, {"functional": "time_average", "C": C, "K": K})
    rep_sup = _tail_report(sup, 2.0 * C, {"functional": "sup_displacement", "C": C, "K": K})
    return rep_avg, rep_sup


def verify_hoeffding_large_time(H: float, T: float, n_paths: int,
                                n_steps: int, seed: int,
                                B: float = -1.0) -> tuple[TailReport, TailReport]:
    """Large-horizon tails for the dissipative MODEL with drift_b = B:
    dX = B X dt + dB^H from 0 (sigma = 1).

    One functional, the time average of X clipped to [-50, 50], two
    metrics: under d_inf the tail bound is exp(-r^2 |B| / (4 H T^{2H-1}))
    (for B < 0 the exponential factor of the constant is 1), under d_2 it is
    exp(-r^2 B^2 T^{2-2H} / (4 H (1 - e^{BT}))).  The constants are
    t2_constant_dinf and t2_constant_d2 of the additive model with
    sigma1 = sigma2 = sigma.  Requires B < 0.
    """
    if B >= 0:
        raise PremiseError(f"large-time bounds require B < 0, got B={B}")
    hp = HurstParam(H)
    grid = TimeGrid(T, n_steps)

    def chunk_average(drivers):
        paths = solve_model(drivers, B, grid.dt)
        del drivers  # at most three (chunk, n_nodes) arrays live at once
        return time_average(paths, grid, clip=50.0)

    samples = map_circulant_chunks(grid, hp, n_paths, seed, chunk_average)
    sigma = MODEL["sde"]["sigma"]
    c_inf = t2_constant_dinf(H, T, B, sigma, sigma)
    c_two = t2_constant_d2(H, T, B, sigma, sigma)
    notes = {"functional": "time_average", "variant": "additive", "B": B, "T": T}
    # denominators 2 c ||F||_Lip^2 with ||F||_Lip = 1 (d_inf), 1/sqrt(T) (d_2)
    rep_inf = _tail_report(samples, 2.0 * c_inf, {"metric": "d_infinity", **notes})
    rep_two = _tail_report(samples, 2.0 * c_two * (1.0 / np.sqrt(T)) ** 2,
                           {"metric": "d_two", **notes})
    return rep_inf, rep_two


def tail_constant_scaling(reports: dict[float, TailReport]) -> float:
    """Fitted exponent of the sub-Gaussian tail constant against the horizon.

    For each horizon the effective constant C(T) of exp(-r^2 / (2 C)) is
    read off a least-squares fit of -log(empirical tail) against r^2; the
    returned value is the log-log slope of C(T) in T (to be compared with
    2 - 2H).
    """
    Ts, cs = [], []
    for T, rep in sorted(reports.items()):
        mask = (rep.empirical_tail > 0) & (rep.r_grid > 0)
        r2 = rep.r_grid[mask] ** 2
        y = -np.log(rep.empirical_tail[mask])
        slope = float(np.sum(r2 * y) / np.sum(r2 * r2))
        Ts.append(T)
        cs.append(1.0 / (2.0 * slope))
    coef = np.polyfit(np.log(Ts), np.log(cs), 1)
    return float(coef[0])


# ---------------------------------------------------------------------------
# Fernique moments and the GRR random Holder constant
# ---------------------------------------------------------------------------

def fernique_moment_bound(k: int, H: float, beta: float, T: float) -> float:
    """32^k (2T)^{2k(H-beta)} (2k)! / k!"""
    return 32.0**k * (2 * T) ** (2 * k * (H - beta)) \
        * special.factorial(2 * k) / special.factorial(k)


FERNIQUE_K = (1, 2, 3)  # moment orders 2k checked against the bound


def verify_fernique(H: float, beta: float, T: float, n_samples: int,
                    n_steps: int = 256, seed: int = 0) -> MomentReport:
    """One-sided check of the Fernique moment and exponential estimates.

    Samples the discrete beta-Holder seminorm of scalar fBm paths (a lower
    bound for the continuum seminorm, so the check is a necessary
    condition).  The exponential moment is taken at half the admissible
    radius.  Premise guard: 1/2 < beta < H.
    """
    if not 0.5 < beta < H:
        raise PremiseError(
            f"Fernique premise violated: need 1/2 < beta < H, got beta={beta}, H={H}"
        )
    alpha = 0.5 * fernique_exponent_radius(H, beta, T)
    hp = HurstParam(H)
    grid = TimeGrid(T, n_steps)
    norms = map_circulant_chunks(grid, hp, n_samples, seed, lambda paths:
                                 holder_seminorm_ensemble(grid.points, paths, beta))

    moments, errs, uppers, bounds = [], [], [], []
    # an overflowing moment raises FloatingPointError (CLI: exit 3) here
    with np.errstate(over="raise"):
        for k in FERNIQUE_K:
            x = norms ** (2 * k)
            moments.append(float(x.mean()))
            errs.append(float(x.std(ddof=1) / np.sqrt(n_samples)))
            uppers.append(mean_upper_confidence(x))
            bounds.append(fernique_moment_bound(k, H, beta, T))
        ex = np.exp(alpha * norms**2)
        exp_empirical, exp_upper = float(ex.mean()), mean_upper_confidence(ex)
    exp_bound = (1.0 - 128.0 * alpha * (2 * T) ** (2 * (H - beta))) ** -0.5
    return MomentReport(
        k_list=list(FERNIQUE_K), empirical_moments=moments, standard_errors=errs,
        upper_confidence=uppers, bounds=bounds,
        exp_alpha=float(alpha), exp_empirical=exp_empirical,
        exp_upper_confidence=exp_upper, exp_bound=float(exp_bound),
        n_samples=n_samples,
    )


def grr_xi(path_values: np.ndarray, grid: TimeGrid, H: float,
           beta: float) -> float | np.ndarray:
    """Random Holder constant xi_beta = 8 (4 Delta)^{(H-beta)/2} with

        Delta = int int |B_t - B_s|^{2/(H-beta)} / |t-s|^{2H/(H-beta)} dt ds

    by a double Riemann sum over grid cells, diagonal excluded (the
    integrand extends by 0 there for the exact path; on the grid the s = t
    cells are simply dropped and refinement convergence is what the tests
    report).  Each lag |t-s| = lag dt appears 2 (n + 1 - lag) times, so
    Delta is 2 dt^2 times the sum over lags of grid.lag_reduce's sum
    reduction.  path_values is one path (returns a float) or an
    (n_paths, n_nodes) ensemble (returns one xi per path).
    """
    if not 0.5 < beta < H:
        raise ValueError(f"need beta < H, got beta={beta}, H={H}")
    v = np.asarray(path_values, dtype=float)
    dt = grid.dt
    q = 2.0 / (H - beta)
    delta = by_blocks(np.atleast_2d(v), lambda block: 2.0 * dt * dt * np.sum(
        lag_reduce(block, dt, np.add, q, q * H), axis=0))
    xi = 8.0 * (4.0 * delta) ** ((H - beta) / 2.0)
    return float(xi[0]) if v.ndim == 1 else xi


def grr_modulus_holds(path_values: np.ndarray, grid: TimeGrid, beta: float,
                      xi: float | np.ndarray) -> bool | np.ndarray:
    """Grid check of |B_t - B_s| <= xi |t - s|^beta over all node pairs,
    i.e. of the discrete beta-Holder seminorm against xi, for one path (a
    bool) or per row of an (n_paths, n_nodes) ensemble with one xi each."""
    v = np.asarray(path_values, dtype=float)
    holds = holder_seminorm_ensemble(grid.points, np.atleast_2d(v), beta) <= xi
    return bool(holds[0]) if v.ndim == 1 else holds


# ---------------------------------------------------------------------------
# Gamma/digamma optimization behind the moment link
# ---------------------------------------------------------------------------

def phi_link(x: float, c_delta: float) -> float:
    """Phi(x) = exp((1/x) ln(C(delta) Gamma^2(x+1) / Gamma(2x+1))), x >= 1.

    Evaluated through log-gamma for stability.
    """
    if c_delta < 1.0:
        raise PremiseError(f"requires C(delta) >= 1, got {c_delta}")
    if x < 1.0:
        raise ValueError(f"Phi is defined for x >= 1, got {x}")
    ln_val = np.log(c_delta) + 2.0 * special.gammaln(x + 1) - special.gammaln(2 * x + 1)
    return float(np.exp(ln_val / x))


def phi_derivative_sign(x: float, c_delta: float) -> float:
    """h(x) = -ln(C Gamma^2(x+1)/Gamma(2x+1)) + 2x (psi(x+1) - psi(2x+1));
    shares the sign of Phi'."""
    ln_val = np.log(c_delta) + 2.0 * special.gammaln(x + 1) - special.gammaln(2 * x + 1)
    return float(-ln_val + 2.0 * x * (special.digamma(x + 1) - special.digamma(2 * x + 1)))


def phi_argmax(c_delta: float) -> float:
    """argmax of Phi on [1, 64], which is 1 for every C(delta) >= 1.

    With L(x) = ln Gamma(2x+1) - 2 ln Gamma(x+1) the sign function is
    h = -ln C + L - x L'.  By the duplication formula
    psi'(2z) = (psi'(z) + psi'(z+1/2)) / 4, L'' = psi'(x+1/2) - psi'(x+1) > 0,
    so L - x L', which is 0 at x = 0 and has derivative -x L'', is negative
    for x > 0.  Hence h < -ln C <= 0 and Phi is strictly decreasing.  A sign
    sweep of h on a log grid checks this numerically; should it ever find
    h > 0, the proof's premise has failed in floating point and an
    ArithmeticError is raised (CLI: exit 3).
    """
    if c_delta < 1.0:
        raise PremiseError(f"requires C(delta) >= 1, got {c_delta}")
    h = np.array([phi_derivative_sign(x, c_delta) for x in np.geomspace(1.0, 64.0, 200)])
    if not np.all(h <= 0.0):
        raise ArithmeticError(f"sign sweep of Phi' on [1, 64] found max h = {np.max(h):.6g}, "
                              f"not <= 0, for C(delta) = {c_delta}")
    return 1.0
