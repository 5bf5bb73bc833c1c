"""Monte Carlo verification of the concentration statements.

Everything here compares an empirical quantity carrying a one-sided
confidence bound against a closed-form bound:

* sub-Gaussian tails of Lipschitz path functionals (small- and large-time
  regimes), with Clopper-Pearson 99% upper bounds so a failure is
  statistically meaningful;
* Fernique-type moment and exponential-moment estimates for the Holder
  seminorm of fBm;
* the Garsia-Rodemich-Rumsey random Holder constant, whose modulus
  property is checked exactly on the grid, not statistically;
* the moment-based transportation constant and its Gaussian-tail link,
  including the gamma/digamma optimization showing the link supremum sits
  at k = 1.

Negative controls are first class: every verifier refuses configurations
that violate its premises (e.g. beta > H) rather than producing vacuous
passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

from .fbm import HurstParam, sample_fbm_circulant_batch
from .grid import TimeGrid, holder_norm, holder_seminorm_ensemble
from .sde import euler_additive_ensemble
from .transport import PathEnsemble, PathMetric, transport_constant


@dataclass
class LipschitzFunctional:
    """A path functional with a declared Lipschitz constant per metric.

    time_average: F(gamma) = (1/T) int V(gamma(t)) dt with ||V||_Lip <= alpha;
    Lipschitz constant alpha under d_inf and alpha/sqrt(T) under d_2.
    sup_displacement: F(gamma) = sup_t |gamma(t) - gamma(0)|; 1-Lipschitz
    under d_inf.
    """

    variant: str                  # "time_average" | "sup_displacement"
    v_fn: object | None = None
    alpha: float = 1.0

    def evaluate(self, paths: np.ndarray, grid: TimeGrid) -> np.ndarray:
        """Vectorized evaluation on an (n_paths, n_nodes) scalar ensemble."""
        if self.variant == "time_average":
            vals = self.v_fn(paths) if self.v_fn is not None else paths
            return np.trapezoid(vals, dx=grid.dt, axis=1) / grid.t_max
        if self.variant == "sup_displacement":
            return np.abs(paths - paths[:, :1]).max(axis=1)
        raise ValueError(f"unknown functional variant {self.variant}")

    def lip_constant(self, metric: PathMetric, T: float) -> float:
        if self.variant == "time_average":
            return self.alpha if metric == PathMetric.d_infinity else self.alpha / np.sqrt(T)
        if self.variant == "sup_displacement":
            if metric != PathMetric.d_infinity:
                raise ValueError("sup_displacement is Lipschitz under d_inf only")
            return 1.0
        raise ValueError(self.variant)


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


def clopper_pearson_upper(successes: np.ndarray, n: int,
                          confidence: float = 0.99) -> np.ndarray:
    """Exact one-sided upper confidence bound for a binomial proportion."""
    k = np.asarray(successes)
    upper = stats.beta.ppf(confidence, k + 1, n - k)
    return np.where(k >= n, 1.0, upper)


def mean_upper_confidence(x: np.ndarray, confidence: float = 0.99) -> float:
    """Normal-approximation one-sided upper bound for a mean."""
    z = stats.norm.ppf(confidence)
    return float(x.mean() + z * x.std(ddof=1) / np.sqrt(len(x)))


# ---------------------------------------------------------------------------
# Moment-based transportation constant and Gaussian-tail link
# ---------------------------------------------------------------------------

K_MAX_CAP = 6  # higher empirical moments are noise-dominated at desk scale


def pair_distances(mu: PathEnsemble, nu: PathEnsemble, metric: PathMetric) -> np.ndarray:
    """d(xi_i, xi'_i) for matched independent pairs (diagonal coupling)."""
    if mu.n != nu.n:
        raise ValueError("pair ensembles must have equal size")
    a, b = mu.paths, nu.paths
    dist = np.linalg.norm(a - b, axis=2)
    if metric == PathMetric.d_infinity:
        return dist.max(axis=1)
    return np.sqrt(np.trapezoid(dist**2, dx=mu.grid.dt, axis=1))


def estimate_t1_constant(distances: np.ndarray, k_max: int = 4,
                         with_errors: bool = False):
    """Plug-in estimator of 2 sup_k (k! E d^{2k} / (2k)!)^{1/k}.

    distances are i.i.d. draws of d(xi, xi') for independent xi, xi'.
    Jackknife standard errors per k are available with with_errors=True.
    """
    if k_max > K_MAX_CAP:
        raise ValueError(f"k_max capped at {K_MAX_CAP}")
    d = np.asarray(distances, dtype=float)
    ks = np.arange(1, k_max + 1)
    terms = []
    for k in ks:
        mk = np.mean(d ** (2 * k))
        terms.append((special.factorial(k) * mk / special.factorial(2 * k)) ** (1.0 / k))
    est = 2.0 * max(terms)
    if not with_errors:
        return float(est)
    n = len(d)
    errs = []
    for k in ks:
        p = d ** (2 * k)
        m = p.mean()
        loo = (m * n - p) / (n - 1)
        jk = (special.factorial(k) * loo / special.factorial(2 * k)) ** (1.0 / k)
        errs.append(float(np.sqrt((n - 1) * np.var(jk))))
    return float(est), dict(zip((int(k) for k in ks), errs))


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

def _tail_report(samples: np.ndarray, denom: float, quantiles: np.ndarray,
                 confidence: float = 0.99, notes: dict | None = None) -> TailReport:
    """Compare P(F - mean(F) > r) with exp(-r^2 / denom) on a quantile r-grid.

    Centering uses the empirical mean; its one-standard-error uncertainty is
    absorbed by inflating r on the bound side (documented bias control).
    """
    n = len(samples)
    centered = samples - samples.mean()
    se_mean = samples.std(ddof=1) / np.sqrt(n)
    r_grid = np.quantile(centered, quantiles)
    r_grid = np.unique(r_grid[r_grid > 0])
    counts = np.array([(centered > r).sum() for r in r_grid])
    emp = counts / n
    upper = clopper_pearson_upper(counts, n, confidence)
    bound = np.exp(-(r_grid + se_mean) ** 2 / denom)
    passed = upper <= bound
    return TailReport(r_grid=r_grid, empirical_tail=emp, upper_confidence=upper,
                      paper_bound=bound, passed=passed, n_samples=n,
                      notes={"denominator": denom, "se_mean": float(se_mean),
                             **(notes or {})})


def verify_hoeffding_small_time(H: float, T: float, n_paths: int,
                                n_steps: int, seed: int,
                                K: float | None = None,
                                alpha: float = 1.0,
                                quantiles: np.ndarray | None = None,
                                sigma_beta_norm: float = 1.0,
                                clip: float = 10.0) -> tuple[TailReport, TailReport]:
    """Small-horizon tails for the drift-free unit-diffusion model.

    With b = 0 and sigma = 1 the solution is x + B^H itself; the two
    functionals are the time average of a clipped-identity V (Lipschitz
    alpha) and the sup displacement.  Bound denominators are
    2 C ||F||_Lip^2 with C = K sigma_beta T^{2H} (K the calibrated
    fixture).  Refuses horizons beyond the small-time validity window.
    """
    if K is None:
        from .fixtures import calibrated_constants
        K = calibrated_constants()["K_hat"]
    if T > 1.0:
        raise ValueError(f"small-time verifier requires T <= 1, got {T}")
    if quantiles is None:
        quantiles = np.array([0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999])
    hp = HurstParam(H)
    grid = TimeGrid(T, n_steps)
    paths = sample_fbm_circulant_batch(grid, hp, n_paths, seed)
    C = K * sigma_beta_norm * T ** (2 * H)

    f_avg = LipschitzFunctional("time_average",
                                v_fn=lambda x: np.clip(x, -clip, clip), alpha=alpha)
    s_avg = f_avg.evaluate(paths, grid)
    rep_avg = _tail_report(s_avg, 2.0 * C * alpha**2, quantiles,
                           notes={"functional": "time_average", "C": C, "K": K})

    f_sup = LipschitzFunctional("sup_displacement")
    s_sup = f_sup.evaluate(paths, grid)
    rep_sup = _tail_report(s_sup, 2.0 * C, quantiles,
                           notes={"functional": "sup_displacement", "C": C, "K": K})
    return rep_avg, rep_sup


def verify_hoeffding_large_time(H: float, T: float, n_paths: int,
                                n_steps: int, seed: int,
                                B: float = -1.0,
                                sigma_sup: float = 1.0,
                                alpha: float = 1.0,
                                scalar_sigma_bounds: tuple[float, float] | None = None,
                                quantiles: np.ndarray | None = None,
                                clip: float = 50.0) -> tuple[TailReport, TailReport]:
    """Large-horizon tails for the dissipative model dX = B X dt + dB^H.

    One time-average functional, two metrics: under d_inf the tail bound is
    exp(-r^2 |B| / (4 alpha^2 H T^{2H-1} sigma^2)) (for B < 0 the
    exponential factor of the constant is 1), under d_2 it is
    exp(-r^2 B^2 T^{2-2H} / (4 alpha^2 H sigma^2 (1 - e^{BT}))).  Passing
    scalar_sigma_bounds=(sigma1, sigma2) switches to the scalar-equation
    constants with (1 - e^{BT/sigma1}).  The constants are the T2 entries of
    transport_constant.  Requires B < 0.
    """
    if B >= 0:
        raise ValueError(f"large-time bounds require B < 0, got B={B}")
    if quantiles is None:
        quantiles = np.array([0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999])
    hp = HurstParam(H)
    grid = TimeGrid(T, n_steps)
    drivers = sample_fbm_circulant_batch(grid, hp, n_paths, seed)
    paths = euler_additive_ensemble(0.0, lambda x: B * x, drivers, grid.dt)
    func = LipschitzFunctional("time_average",
                               v_fn=lambda x: np.clip(x, -clip, clip), alpha=alpha)
    samples = func.evaluate(paths, grid)
    if scalar_sigma_bounds is None:
        variant, sigmas = "additive", {"sigma_sup": sigma_sup}
    else:
        s1, s2 = scalar_sigma_bounds
        variant, sigmas = "scalar", {"sigma1": s1, "sigma2": s2}
    c_inf = transport_constant(f"T2_{variant}_dinf", H=H, T=T, B=B, **sigmas).value
    c_two = transport_constant(f"T2_{variant}_d2", H=H, T=T, B=B, **sigmas).value
    lip_inf = func.lip_constant(PathMetric.d_infinity, T)
    lip_two = func.lip_constant(PathMetric.d_two, T)
    rep_inf = _tail_report(samples, 2.0 * c_inf * lip_inf**2, quantiles,
                           notes={"functional": "time_average", "metric": "d_infinity",
                                  "variant": variant, "B": B, "T": T})
    rep_two = _tail_report(samples, 2.0 * c_two * lip_two**2, quantiles,
                           notes={"functional": "time_average", "metric": "d_two",
                                  "variant": variant, "B": B, "T": T})
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


def verify_fernique(H: float, beta: float, T: float, n_samples: int,
                    n_steps: int = 256, seed: int = 0,
                    alpha: float | None = None,
                    k_list: tuple[int, ...] = (1, 2, 3)) -> MomentReport:
    """One-sided check of the Fernique moment and exponential estimates.

    Samples the discrete beta-Holder seminorm of scalar fBm paths (a lower
    bound for the continuum seminorm, so the check is a necessary
    condition).  Premise guards: 1/2 < beta < H and alpha strictly inside
    the admissible radius.
    """
    if not 0.5 < beta < H:
        raise ValueError(
            f"Fernique premise violated: need 1/2 < beta < H, got beta={beta}, H={H}"
        )
    radius = fernique_exponent_radius(H, beta, T)
    if alpha is None:
        alpha = 0.5 * radius
    if alpha >= radius:
        raise ValueError(f"alpha={alpha} at or beyond the admissible radius {radius}")
    hp = HurstParam(H)
    grid = TimeGrid(T, n_steps)
    paths = sample_fbm_circulant_batch(grid, hp, n_samples, seed)
    norms = holder_seminorm_ensemble(grid.points, paths, beta)

    moments, errs, uppers, bounds = [], [], [], []
    for k in k_list:
        x = norms ** (2 * k)
        moments.append(float(x.mean()))
        errs.append(float(x.std(ddof=1) / np.sqrt(n_samples)))
        uppers.append(mean_upper_confidence(x))
        bounds.append(fernique_moment_bound(k, H, beta, T))
    ex = np.exp(alpha * norms**2)
    exp_bound = (1.0 - 128.0 * alpha * (2 * T) ** (2 * (H - beta))) ** -0.5
    return MomentReport(
        k_list=list(k_list), empirical_moments=moments, standard_errors=errs,
        upper_confidence=uppers, bounds=bounds,
        exp_alpha=float(alpha), exp_empirical=float(ex.mean()),
        exp_upper_confidence=mean_upper_confidence(ex), exp_bound=float(exp_bound),
        n_samples=n_samples,
    )


def grr_xi(path_values: np.ndarray, grid: TimeGrid, H: float, beta: float) -> float:
    """Random Holder constant xi_beta = 8 (4 Delta)^{(H-beta)/2} with

        Delta = int int |B_t - B_s|^{2/(H-beta)} / |t-s|^{2H/(H-beta)} dt ds

    by a double Riemann sum over grid cells, diagonal excluded (the
    integrand extends by 0 there for the exact path; on the grid the s = t
    cells are simply dropped and refinement convergence is what the tests
    report).
    """
    if not 0.5 < beta < H:
        raise ValueError(f"need beta < H, got beta={beta}, H={H}")
    v = np.asarray(path_values, dtype=float)
    n = grid.n_steps
    dt = grid.dt
    q = 2.0 / (H - beta)
    delta = 0.0
    # group by lag: |t-s| = lag*dt appears 2*(n+1-lag) times
    for lag in range(1, n + 1):
        dv = np.abs(v[lag:] - v[:-lag])
        delta += 2.0 * np.sum(dv**q) / (lag * dt) ** (q * H) * dt * dt
    return float(8.0 * (4.0 * delta) ** ((H - beta) / 2.0))


def grr_modulus_holds(path_values: np.ndarray, grid: TimeGrid, H: float,
                      beta: float, xi: float | None = None) -> bool:
    """Grid check of |B_t - B_s| <= xi |t - s|^beta over all node pairs,
    i.e. of the discrete beta-Holder seminorm against xi."""
    v = np.asarray(path_values, dtype=float)
    if xi is None:
        xi = grr_xi(v, grid, H, beta)
    return holder_norm(grid, v, beta).seminorm_beta <= xi


# ---------------------------------------------------------------------------
# Gamma/digamma optimization behind the moment link
# ---------------------------------------------------------------------------

def phi_link(x: float, c_delta: float) -> float:
    """Phi(x) = exp((1/x) ln(C(delta) Gamma^2(x+1) / Gamma(2x+1))), x >= 1.

    Evaluated through log-gamma for stability.
    """
    if c_delta < 1.0:
        raise ValueError(f"requires C(delta) >= 1, got {c_delta}")
    if x < 1.0:
        raise ValueError(f"Phi is defined for x >= 1, got {x}")
    ln_val = np.log(c_delta) + 2.0 * special.gammaln(x + 1) - special.gammaln(2 * x + 1)
    return float(np.exp(ln_val / x))


def phi_derivative_sign(x: float, c_delta: float) -> float:
    """h(x) = -ln(C Gamma^2(x+1)/Gamma(2x+1)) + 2x (psi(x+1) - psi(2x+1));
    shares the sign of Phi'."""
    ln_val = np.log(c_delta) + 2.0 * special.gammaln(x + 1) - special.gammaln(2 * x + 1)
    return float(-ln_val + 2.0 * x * (special.digamma(x + 1) - special.digamma(2 * x + 1)))


def phi_argmax(c_delta: float, x_max: float = 64.0, tol: float = 1e-12) -> float:
    """argmax of Phi on [1, x_max].

    A sign sweep of h on a log grid detects the monotone-decreasing case
    (h < 0 everywhere), in which the maximum sits exactly at 1; otherwise a
    golden-section search localizes the interior maximum.
    """
    if c_delta < 1.0:
        raise ValueError(f"requires C(delta) >= 1, got {c_delta}")
    xs = np.geomspace(1.0, x_max, 200)
    hs = np.array([phi_derivative_sign(x, c_delta) for x in xs])
    if np.all(hs <= 0.0):
        return 1.0
    # interior maximum: golden-section on -Phi
    lo, hi = 1.0, x_max
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    while abs(b - a) > tol:
        if phi_link(c, c_delta) > phi_link(d, c_delta):
            b = d
        else:
            a = c
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
    return float(0.5 * (a + b))
