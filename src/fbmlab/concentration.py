"""Monte Carlo verification of the concentration statements, and the
verifier registry that `fbmlab verify` runs.

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

The verifiers run one model, `MODEL` (solved by `solve_model`); the command
line rejects a config that sets it otherwise.  No verifier builds an
ensemble it only reduces: the 20 000-path campaigns (Fernique and both
Hoeffding regimes) keep one or two numbers per path and the pair verifiers
(stability, t1-moments, gaussian-tail) one or two per pair, so they stream
their paths through `shared_pass`, in tasks of BLOCK_PATHS paths per seed:
each task draws its rows, solves them where a verifier needs it and
reduces them by the one statistic of each named per-row quantity it reads,
and moments, tails and ratios take the whole vectors.  A statistic only
maps rows to values; the pass alone decides how long rows stay in memory.
The tasks run on the calling thread and helper threads, one worker per CPU
in the process's affinity mask and at most two (`WORKERS`; numpy releases
the GIL in the sampler's normals and FFTs, the lag kernel and the Euler
steps), and their values are joined in path order.  A campaign's memory is
a few blocks per worker, not a few ensembles, and its reports are those of
a whole-batch run byte for byte, for any number of CPUs.  The campaigns
return the JSON-ready records that the reports hold: a tail record per
functional and metric (r-grid, empirical tail, upper confidence, bound,
per-threshold "passed", n_samples, notes), and one Fernique record with an
overall "passed".

The registry: `VERIFIERS[name](cfg)`, in config.VERIFIER_NAMES order,
checks the verifier's premises (PremiseError) and returns its plan: the
`EnsembleShare`s it reads and report(*their results), its JSON-ready report
with a boolean "passed" (esti-int and phi-link read none; their report does
their work).  `run_campaign`, what `fbmlab verify` runs, is the one driver:
it plans every selected name, gives the shares of each ensemble one
`shared_pass`, reduced as its members are reached, and stamps each report
with the config hash and seed; a PremiseError, from a plan or a report,
makes a "rejected" one.  `run_verifier` is the campaign of one name.
Fernique, hoeffding-small and every large-time horizon share the primary
ensemble of the seed, drawn on the config grid (a horizon T reads it scaled
by (T / t_max)^H, by self-similarity: `hoeffding_large_share`), and
stability, t1-moments and gaussian-tail the pair ensemble (`pair_seeds`)
and its `solution_d_inf` (stability also its `driver_gap`).  Two kernels
are also the Monte Carlo oracles of the calibration: the stability share
behind K_hat (`stability_share`) and the sweep of the Young-integral
estimate behind kappa_hat (`esti_int_sweep`, which draws its 200 pairs
whole through `independent_pairs`).  Every ensemble other than the primary
one of the config seed is drawn from `fbm.role_seed`: the independent
partner and the esti-int windows.

Negative controls are first class: every verifier refuses configurations
that violate its premises (e.g. beta > H) rather than producing vacuous
passes.  An overflow in the Fernique moments raises FloatingPointError.
"""

from __future__ import annotations

import functools
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
from scipy import special, stats

from . import fbm
from .config import ConfigError, ExperimentConfig
from .fbm import (
    HurstParam,
    Role,
    component_rng,
    role_seed,
    sample_fbm_circulant_batch,
)
from .fixtures import calibrated_constants
from .fractional import BoundReport, esti_int_bound
from .grid import (
    BLOCK_PATHS,
    GridFunction,
    TimeGrid,
    by_blocks,
    holder_seminorm_ensemble,
    lag_reduce,
)
from .sde import euler_additive_ensemble, stability_horizon
from .transport import (
    PathEnsemble,
    PathMetric,
    path_metric,
    require_same_space,
    t1_constant,
    t2_constant_d2,
    t2_constant_dinf,
)


class PremiseError(ValueError):
    """A configuration outside a verifier's premises (CLI: a "rejected"
    report, exit 1); raised only by the premise guards."""


def _require_holder_window(name: str, beta: float, H: float) -> None:
    """The premise 1/2 < beta < H of a check on beta-Holder seminorms of fBm
    of Hurst index H; `name` names the check in the PremiseError."""
    if not 0.5 < beta < H:
        raise PremiseError(f"{name} premise violated: need 1/2 < beta < H, "
                           f"got beta={beta}, H={H}")


#: The model every verifier runs: dx = drift_b x dt + sigma dB^H from x0,
#: with one circulant fBm component as B^H.  sigma = 1, so the sampled fBm
#: paths are the drivers themselves.
MODEL = {"fbm": {"generator": "circulant", "components": 1},
         "sde": {"sigma": 1.0, "x0": 0.0}}


def solve_model(drivers: np.ndarray, drift_b: float, dt: float,
                scale: float = 1.0) -> np.ndarray:
    """Euler solutions of the MODEL equation, one per row of scale * drivers
    (the increments are scaled, not the drivers: no scaled copy is made)."""
    return euler_additive_ensemble(MODEL["sde"]["x0"], lambda x: drift_b * x, drivers, dt,
                                   sigma=scale)


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


#: Workers of shared_pass: the calling thread and WORKERS - 1 helper
#: threads, one per CPU in the process's affinity mask, at most 2.  Each
#: worker adds an in-flight task and a malloc arena to the peak RSS, and two
#: is the count measured against the campaign's RSS bound (BENCH_29.json, 2
#: vCPUs): a higher cap needs a measurement of its own.
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)

_helpers: ThreadPoolExecutor | None = None
_helpers_lock = threading.Lock()


def _helper_pool() -> ThreadPoolExecutor:
    """The one pool of WORKERS - 1 helper threads, made on first use."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="fbmlab-pass")
        return _helpers


def _in_order(tasks: list[Callable[[], object]]) -> list:
    """The results of `tasks`, in order, run on the calling thread and up to
    WORKERS - 1 helper threads.

    Of W workers, worker w runs tasks w, w + W, w + 2W, ... and stops at its
    own first failure, so at most W tasks are in flight.  The failing task of
    lowest index is the one a loop over the tasks would raise: no task before
    it fails, so its worker reached it.  It is raised once every helper is
    back, and no helper is left running when this returns or raises.  With
    one worker or one task, no thread is started: the caller's stride is the
    loop over the tasks.
    """
    results: list = [None] * len(tasks)
    errors: dict[int, BaseException] = {}
    workers = min(WORKERS, len(tasks))

    def work(first: int) -> None:
        for i in range(first, len(tasks), workers):
            try:
                results[i] = tasks[i]()
            except BaseException as exc:  # raised below, in task order
                errors[i] = exc
                return

    helpers = [_helper_pool().submit(work, w) for w in range(1, workers)]
    try:
        work(0)
    finally:
        for helper in helpers:
            helper.result()  # waits for it; work() itself raises nothing
    if errors:
        raise errors[min(errors)]
    return results


class EnsembleShare(NamedTuple):
    """What a verifier reads off one ensemble.

    The ensemble is the circulant fBm drawn from `seeds` on (grid, hp): one
    seed, `(seed,)`, for a primary ensemble, two for a pair ensemble
    (`pair_seeds`), matched by row.  grid is the grid the rows are drawn
    on, not always the one a statistic solves on: a large-time horizon
    reads the primary ensemble and rescales it to its own horizon
    (`hoeffding_large_share`).  The verifier reads its first n rows:
    `reads` maps the name of each per-row quantity it needs to the statistic
    that makes it, reducing a task's rows (one block per seed) to one
    value per row.  A name stands for one quantity of the config, made by one
    builder, so verifiers that read it compute it once (`shared_pass`); a
    quantity that depends on a horizon carries it in its name.
    finish(*arrays), one array per name in `reads` order, turns the
    quantities into the share's result.
    """

    grid: TimeGrid
    hp: HurstParam
    seeds: tuple[int, ...]
    n: int
    reads: dict[str, Callable[..., np.ndarray]]
    finish: Callable[..., object]

    @property
    def ensemble(self) -> tuple:
        return (self.seeds, self.grid, self.hp)


def shared_pass(shares: list[EnsembleShare]):
    """The result of each share of one ensemble, in order, from one pass
    over it; a verifier that reads an ensemble alone is a pass of one share.

    The pass is cut into segments at the distinct prefix lengths n, so no
    row is reduced for a share that does not read it, and a segment is
    reduced when the first share that reads it is finished: an error in a
    later segment stops the run only when a share reading it is reached.
    A segment computes the union of the `reads` of the shares that read it,
    each name once, in tasks of BLOCK_PATHS paths per seed (row i of each
    seed's rows is path i of its ensemble bit for bit, as
    `fbm._circulant_rows` addresses paths by index).  A task draws its rows
    for every seed, hands them to each statistic and releases them when it
    returns; no statistic frees its input.  The tasks of a segment run on
    the calling thread and the helper threads (`_in_order`), at most one per
    worker at a time, and their values are joined in path order, so a share
    finishes on its own first n rows, bit for bit what a pass of its own
    would reduce on one thread; a failing segment raises the error of its
    first failing task.  numpy's error state is context-local and does not
    reach the helpers: a statistic that needs one sets its own
    (`sde._euler`), and no caller wraps a pass in one.
    """
    first = shares[0]
    if any(s.ensemble != first.ensemble for s in shares):
        raise ValueError("shares of one pass must read one ensemble")
    parts: dict[str, list[np.ndarray]] = {name: [] for s in shares for name in s.reads}

    def reduce(lo: int, hi: int) -> None:
        reads = {name: stat for s in shares if s.n >= hi for name, stat in s.reads.items()}

        def task(start: int) -> list[np.ndarray]:
            paths = range(start, min(start + BLOCK_PATHS, hi))
            rows = [fbm._circulant_rows(first.grid, first.hp, s, paths) for s in first.seeds]
            return [stat(*rows) for stat in reads.values()]

        starts = range(lo, hi, BLOCK_PATHS)
        for values in _in_order([functools.partial(task, start) for start in starts]):
            for name, value in zip(reads, values):
                parts[name].append(value)

    done = 0
    for share in shares:
        for hi in sorted({s.n for s in shares if done < s.n <= share.n}):
            reduce(done, hi)
            done = hi
        yield share.finish(*(np.concatenate(parts[name])[:share.n] for name in share.reads))


# ---------------------------------------------------------------------------
# Moment-based transportation constant and Gaussian-tail link
# ---------------------------------------------------------------------------

T1_K_MAX = 4  # higher empirical moments are noise-dominated at desk scale


def pair_distances(mu: PathEnsemble, nu: PathEnsemble, metric: PathMetric) -> np.ndarray:
    """d(xi_i, xi'_i) for matched independent pairs (diagonal coupling)."""
    require_same_space(mu, nu)
    if mu.n != nu.n:
        raise ValueError("pair ensembles must have equal size")
    return path_metric(mu.paths - nu.paths, mu.grid.dt, metric)


def estimate_t1_constant(distances: np.ndarray) -> tuple[float, dict[int, float]]:
    """Plug-in estimator of 2 sup_{k <= T1_K_MAX} (k! E d^{2k} / (2k)!)^{1/k}
    and its jackknife standard error per k.

    distances are i.i.d. draws of d(xi, xi') for independent xi, xi', at
    least two for the jackknife.
    """
    d = np.asarray(distances, dtype=float)
    n = len(d)
    if n < 2:
        raise ValueError(f"the jackknife needs at least 2 distances, got {n}")

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
    [-clip, clip], per row of an (n_paths, n_nodes) array.

    V is 1-Lipschitz, so F is 1-Lipschitz under d_inf and
    (1/sqrt(T))-Lipschitz under d_2.  The clipped copy and the trapezoid's
    temporaries are the size of `paths`: its callers are statistics of
    `shared_pass`, which hands them one task's rows (BLOCK_PATHS at most).
    Each row's value does not depend on the other rows, bit for bit.
    """
    paths = grid.nodes("path", paths, axis=1, ndim=2)
    return np.trapezoid(np.clip(paths, -clip, clip), dx=grid.dt, axis=1) / grid.t_max


def sup_displacement(paths: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """F(gamma) = d_inf(gamma, gamma(0)) = sup_t |gamma(t) - gamma(0)| per
    row; 1-Lipschitz under d_inf."""
    paths = grid.nodes("path", paths, axis=1, ndim=2)
    return path_metric((paths - paths[:, :1])[..., None], grid.dt, PathMetric.d_infinity)


def _tail_report(samples: np.ndarray, denom: float, notes: dict) -> dict:
    """Compare P(F - mean(F) > r) with exp(-r^2 / denom) on the
    TAIL_QUANTILES r-grid; the tail record, with one "passed" per threshold.

    Centering uses the empirical mean; its one-standard-error uncertainty is
    absorbed by inflating r on the bound side (documented bias control).
    An empty r-grid (e.g. every sample equal) checks nothing: ArithmeticError.
    """
    n = len(samples)
    centered = samples - samples.mean()
    se_mean = samples.std(ddof=1) / np.sqrt(n)
    r_grid = np.quantile(centered, TAIL_QUANTILES)
    r_grid = np.unique(r_grid[r_grid > 0])
    if not r_grid.size:  # the small-time records note no metric: theirs is d_inf
        raise ArithmeticError(f"tail check of {notes['functional']} under "
                              f"{notes.get('metric', 'd_infinity')} has an empty r-grid: "
                              f"none of its {n} centred samples is above 0")
    counts = np.array([(centered > r).sum() for r in r_grid])
    emp = counts / n
    upper = clopper_pearson_upper(counts, n)
    bound = np.exp(-(r_grid + se_mean) ** 2 / denom)
    return {"r_grid": r_grid.tolist(), "empirical_tail": emp.tolist(),
            "upper_confidence": upper.tolist(), "bound": bound.tolist(),
            "passed": (upper <= bound).tolist(), "n_samples": n,
            "notes": {"denominator": denom, "se_mean": float(se_mean), **notes}}


def hoeffding_small_share(H: float, T: float, n_paths: int, n_steps: int,
                          seed: int) -> EnsembleShare:
    """The ensemble share of verify_hoeffding_small_time: both functionals
    per path, finished into its two tail records.  Raises its PremiseError
    before any path is drawn."""
    C, horizon = t1_constant(H, T, 1.0, 0.0)
    if T > horizon:
        raise PremiseError(f"small-time verifier requires T <= 1, got {T}")
    K = calibrated_constants()["K_hat"]
    grid = TimeGrid(T, n_steps)

    def records(avg, sup):
        return (_tail_report(avg, 2.0 * C, {"functional": "time_average", "C": C, "K": K}),
                _tail_report(sup, 2.0 * C, {"functional": "sup_displacement", "C": C, "K": K}))

    return EnsembleShare(grid, HurstParam(H), (seed,), n_paths, {
        "time_average": lambda paths: time_average(paths, grid, clip=10.0),
        "sup_displacement": lambda paths: sup_displacement(paths, grid)}, records)


def verify_hoeffding_small_time(H: float, T: float, n_paths: int,
                                n_steps: int, seed: int) -> tuple[dict, dict]:
    """Small-horizon tail records for the drift-free unit-diffusion model.

    With b = 0 and sigma = 1 the solution is x + B^H itself; the two
    functionals are the time average of x clipped to [-10, 10] and the sup
    displacement, both 1-Lipschitz under d_inf.  Bound denominators are 2 C
    with C = K_hat T^{2H}, the additive t1_constant (||sigma||_beta = 1,
    L_b = 0).  Refuses horizons beyond its validity window
    T <= stability_horizon(0) = 1.
    """
    return next(shared_pass([hoeffding_small_share(H, T, n_paths, n_steps, seed)]))


def hoeffding_large_share(H: float, T: float, n_paths: int, n_steps: int,
                          seed: int, B: float, t_draw: float) -> EnsembleShare:
    """The ensemble share of horizon T of hoeffding-large: the clipped time
    average of the solution on TimeGrid(T, n_steps) per path, named
    "solution_time_average(T)" and finished into its two tail records.

    The share reads the ensemble of `seed` drawn on TimeGrid(t_draw,
    n_steps) and drives horizon T with its rows scaled by (T / t_draw)^H.
    fBm is H-self-similar, and so is the circulant sampler, whose fGn
    autocovariance scales as dt^{2H}: the scaled rows are the rows drawn on
    [0, T] up to rounding, so every horizon can read one ensemble.  At
    T = t_draw the scale is exactly 1.0 and the solve is that of the rows
    themselves, bit for bit.  The scale multiplies the increments
    (`solve_model`), since the pass keeps the rows for the other horizons.
    Raises its PremiseError before any path is drawn."""
    if B >= 0:
        raise PremiseError(f"large-time bounds require B < 0, got B={B}")
    grid = TimeGrid(T, n_steps)
    scale = (T / t_draw) ** H

    def solution_average(drivers):
        return time_average(solve_model(drivers, B, grid.dt, scale), grid, clip=50.0)

    def records(samples):
        sigma = MODEL["sde"]["sigma"]
        c_inf = t2_constant_dinf(H, T, B, sigma, sigma)
        c_two = t2_constant_d2(H, T, B, sigma, sigma)
        notes = {"functional": "time_average", "variant": "additive", "B": B, "T": T}
        # denominators 2 c ||F||_Lip^2 with ||F||_Lip = 1 (d_inf), 1/sqrt(T) (d_2)
        return (_tail_report(samples, 2.0 * c_inf, {"metric": "d_infinity", **notes}),
                _tail_report(samples, 2.0 * c_two * (1.0 / np.sqrt(T)) ** 2,
                             {"metric": "d_two", **notes}))

    return EnsembleShare(TimeGrid(t_draw, n_steps), HurstParam(H), (seed,), n_paths,
                         {f"solution_time_average({T})": solution_average}, records)


def verify_hoeffding_large_time(H: float, T: float, n_paths: int,
                                n_steps: int, seed: int,
                                B: float = -1.0) -> tuple[dict, dict]:
    """Large-horizon tail records for the dissipative MODEL with drift_b = B:
    dX = B X dt + dB^H from 0 (sigma = 1), driven by the ensemble of `seed`
    drawn on [0, T] itself (scale 1.0).

    One functional, the time average of X clipped to [-50, 50], two
    metrics: under d_inf the tail bound is exp(-r^2 |B| / (4 H T^{2H-1}))
    (for B < 0 the exponential factor of the constant is 1), under d_2 it is
    exp(-r^2 B^2 T^{2-2H} / (4 H (1 - e^{BT}))).  The constants are
    t2_constant_dinf and t2_constant_d2 of the additive model with
    sigma1 = sigma2 = sigma.  Requires B < 0.
    """
    return next(shared_pass([hoeffding_large_share(H, T, n_paths, n_steps, seed, B, t_draw=T)]))


def tail_constant_scaling(reports: dict[float, dict]) -> float:
    """Fitted exponent of the sub-Gaussian tail constant against the horizon,
    from one tail record per horizon.

    For each horizon the effective constant C(T) of exp(-r^2 / (2 C)) is
    read off a least-squares fit of -log(empirical tail) against r^2; the
    returned value is the log-log slope of C(T) in T (to be compared with
    2 - 2H).  A horizon whose constant is not positive and finite, or has
    no point to fit, raises ArithmeticError naming the horizon.
    """
    Ts, cs = [], []
    for T, rep in sorted(reports.items()):
        tail, r = np.asarray(rep["empirical_tail"]), np.asarray(rep["r_grid"])
        mask = (tail > 0) & (r > 0)
        r2 = r[mask] ** 2
        y = -np.log(tail[mask])
        slope = float(np.sum(r2 * y) / np.sum(r2 * r2)) if mask.any() else 0.0
        c = 1.0 / (2.0 * slope) if slope else np.inf
        if not 0.0 < c < np.inf:
            raise ArithmeticError(f"tail constant fit at horizon T={T}: constant {c} from "
                                  f"{mask.sum()} points with a positive tail at r > 0")
        Ts.append(T)
        cs.append(c)
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


def fernique_share(H: float, beta: float, T: float, n_samples: int,
                   n_steps: int, seed: int) -> EnsembleShare:
    """The ensemble share of verify_fernique: the beta-Holder seminorm per
    path, finished into the Fernique record.  Raises its PremiseError before
    any path is drawn."""
    _require_holder_window("Fernique", beta, H)
    alpha = 0.5 * fernique_exponent_radius(H, beta, T)
    grid = TimeGrid(T, n_steps)

    def record(norms):
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
        exp_bound = float((1.0 - 128.0 * alpha * (2 * T) ** (2 * (H - beta))) ** -0.5)
        passed = all(u <= b for u, b in zip(uppers, bounds)) and exp_upper <= exp_bound
        return {"k_list": list(FERNIQUE_K), "empirical_moments": moments,
                "standard_errors": errs, "upper_confidence": uppers, "bounds": bounds,
                "exp_alpha": float(alpha), "exp_empirical": exp_empirical,
                "exp_upper_confidence": exp_upper, "exp_bound": exp_bound,
                "n_samples": n_samples, "passed": passed}

    return EnsembleShare(grid, HurstParam(H), (seed,), n_samples,
                         {"holder_seminorm": lambda paths: holder_seminorm_ensemble(
                             grid.points, paths, beta)}, record)


def verify_fernique(H: float, beta: float, T: float, n_samples: int,
                    n_steps: int = 256, seed: int = 0) -> dict:
    """One-sided check of the Fernique moment and exponential estimates; the
    Fernique record, "passed" when every upper confidence bound is below its
    bound.

    Samples the discrete beta-Holder seminorm of scalar fBm paths (a lower
    bound for the continuum seminorm, so the check is a necessary
    condition).  The exponential moment is taken at half the admissible
    radius.  Premise guard: 1/2 < beta < H.
    """
    return next(shared_pass([fernique_share(H, beta, T, n_samples, n_steps, seed)]))


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
    _require_holder_window("GRR", beta, H)
    v = grid.nodes("path", path_values, axis=-1)
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


# ---------------------------------------------------------------------------
# The verifier registry
# ---------------------------------------------------------------------------

def pair_seeds(seed: int) -> tuple[int, int]:
    """Seeds of the pair ensemble of `seed`: the primary ensemble and its
    independent partner, matched by row."""
    return seed, role_seed(seed, Role.partner)


def independent_pairs(grid: TimeGrid, hp: HurstParam, n_pairs: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent (n_pairs, n_nodes) fBm ensembles, matched by row:
    the pair ensemble of `seed`, whole."""
    return tuple(sample_fbm_circulant_batch(grid, hp, n_pairs, s) for s in pair_seeds(seed))


def solution_d_inf(grid: TimeGrid, drift_b: float) -> Callable[..., np.ndarray]:
    """The statistic of the per-pair quantity "solution_d_inf": d_inf(x, x~)
    per row, where x and x~ solve the MODEL equation with the drivers g1[i]
    and g2[i]."""
    def d_inf(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
        x1 = solve_model(g1, drift_b, grid.dt)
        x2 = solve_model(g2, drift_b, grid.dt)
        return pair_distances(PathEnsemble(grid, x1), PathEnsemble(grid, x2),
                              PathMetric.d_infinity)
    return d_inf


def stability_share(grid: TimeGrid, hp: HurstParam, beta: float, drift_b: float,
                    n_pairs: int, seed: int) -> EnsembleShare:
    """The share of the stability verifier and of calibrate_k_hat on the
    first n_pairs pairs of the pair ensemble of `seed`: the driver-stability
    ratios ||x - x~||_inf / (||g1[i] - g2[i]||_beta T^beta) of
    dx = drift_b x dt + dg (||sigma||_beta = 1; 0 where the driver gap
    vanishes) and the solution distances they divide.  Raises its
    PremiseError before any path is drawn."""
    delta = stability_horizon(abs(drift_b))
    if grid.t_max > delta:
        raise PremiseError(f"stability premise violated: T={grid.t_max} > Delta={delta}")

    def ratios(dists, gaps):
        return np.divide(dists, gaps * grid.t_max**beta,
                         out=np.zeros_like(dists), where=gaps > 0), dists

    return EnsembleShare(grid, hp, pair_seeds(seed), n_pairs, {
        "solution_d_inf": solution_d_inf(grid, drift_b),
        "driver_gap": lambda g1, g2: holder_seminorm_ensemble(grid.points, g1 - g2, beta)},
        ratios)


def esti_int_sweep(grid: TimeGrid, hp: HurstParam, beta: float,
                   n_pairs: int, seed: int) -> list[BoundReport]:
    """lemma_esti_int_check over independent fBm pairs (f, g), each on a
    window [t_ia, t_ib]: ia uniform on 0 .. n - 2, then ib uniform on
    ia + 1 .. n (n = n_steps), so (ia, ib) has probability 1 / ((n - 1)(n - ia)),
    not uniform over node pairs, and a = t_{n-1} never occurs."""
    f_paths, g_paths = independent_pairs(grid, hp, n_pairs, seed)
    g_seminorms = holder_seminorm_ensemble(grid.points, g_paths, beta).tolist()
    rng = component_rng(role_seed(seed, Role.windows), 0, 0)
    reports = []
    for f, g, g_semi in zip(f_paths, g_paths, g_seminorms):
        ia = int(rng.integers(0, grid.n_steps - 1))
        ib = int(rng.integers(ia + 1, grid.n_steps + 1))
        reports.append(esti_int_bound(GridFunction(grid, f), GridFunction(grid, g), g_semi,
                                      beta, grid.points[ia], grid.points[ib]))
    return reports


def _grid(cfg: ExperimentConfig) -> TimeGrid:
    return TimeGrid(cfg.get("grid", "t_max"), cfg.get("grid", "n_steps"))


#: The most pairs or samples a verifier or calibrate draws, whatever [verify] n_paths asks
SAMPLE_CAPS = {"stability": 1000, "esti-int": 200, "fernique": 20000,
               "solution-distances": 2000, "calibrate": 5000}


def _n_samples(cfg: ExperimentConfig, name: str) -> int:
    return min(cfg.get("verify", "n_paths"), SAMPLE_CAPS[name])


def _require_samples(cfg: ExperimentConfig, name: str, minimum: int = 2,
                     statistic: str = "a standard error") -> None:
    """The premise of a verifier that reports `statistic` of its samples:
    `minimum` of them, two for a ddof=1 standard error and three (TAIL_SHARE)
    for gaussian_tail_c_delta's top-share flag (of two values the larger
    carries half their sum or more).  Every cap is at least 3, so [verify]
    n_paths decides, before any path is drawn."""
    n_paths = cfg.get("verify", "n_paths")
    if n_paths < minimum:
        raise PremiseError(f"{name} premise violated: {statistic} needs "
                           f"[verify] n_paths >= {minimum}, got {n_paths}")


TAIL_SHARE = (3, "the tail-share diagnostic")


Plan = tuple[list[EnsembleShare], Callable[..., dict]]


def _stability(cfg: ExperimentConfig) -> Plan:
    K_hat = calibrated_constants()["K_hat"]
    n_pairs = _n_samples(cfg, "stability")

    def report(result):
        worst = float(result[0].max())
        return {"verifier": "stability", "passed": worst <= K_hat,
                "worst_ratio": worst, "K_hat": K_hat, "n_pairs": n_pairs}

    return [stability_share(_grid(cfg), HurstParam(cfg.get("fbm", "hurst")),
                            cfg.get("verify", "beta"), cfg.get("sde", "drift_b"), n_pairs,
                            cfg.get("experiment", "seed"))], report


def _esti_int(cfg: ExperimentConfig) -> Plan:
    H = cfg.get("fbm", "hurst")
    beta = cfg.get("verify", "beta")
    _require_holder_window("esti-int", beta, H)
    if cfg.get("grid", "n_steps") < 2:
        raise PremiseError("esti-int premise violated: the window draw needs "
                           f"n_steps >= 2, got {cfg.get('grid', 'n_steps')}")
    n_pairs = _n_samples(cfg, "esti-int")

    def report():
        reports = esti_int_sweep(_grid(cfg), HurstParam(H), beta, n_pairs,
                                 cfg.get("experiment", "seed"))
        return {"verifier": "esti-int", "passed": all(r.passed for r in reports),
                "worst_ratio": max([0.0] + [r.ratio for r in reports]), "n_pairs": n_pairs}

    return [], report


def _fernique(cfg: ExperimentConfig) -> Plan:
    _require_samples(cfg, "fernique")
    share = fernique_share(cfg.get("fbm", "hurst"), cfg.get("verify", "beta"),
                           cfg.get("grid", "t_max"), _n_samples(cfg, "fernique"),
                           n_steps=cfg.get("grid", "n_steps"),
                           seed=cfg.get("experiment", "seed"))
    return [share], lambda record: {"verifier": "fernique", **record}


def _hoeffding_small(cfg: ExperimentConfig) -> Plan:
    _require_samples(cfg, "hoeffding-small")

    def report(records):
        rep_avg, rep_sup = records
        return {"verifier": "hoeffding-small",
                "passed": all(rep_avg["passed"]) and all(rep_sup["passed"]),
                "time_average": rep_avg, "sup_displacement": rep_sup}

    return [hoeffding_small_share(
        H=cfg.get("fbm", "hurst"), T=cfg.get("grid", "t_max"),
        n_paths=cfg.get("verify", "n_paths"),
        n_steps=cfg.get("grid", "n_steps"), seed=cfg.get("experiment", "seed"))], report


def _hoeffding_large(cfg: ExperimentConfig) -> Plan:
    _require_samples(cfg, "hoeffding-large")
    horizons = cfg.horizon_list
    shares = [hoeffding_large_share(
        H=cfg.get("fbm", "hurst"), T=T, n_paths=cfg.get("verify", "n_paths"),
        n_steps=cfg.get("grid", "n_steps"), seed=cfg.get("experiment", "seed"),
        B=cfg.get("sde", "drift_b"), t_draw=cfg.get("grid", "t_max")) for T in horizons]

    def report(*records):
        out: dict = {"verifier": "hoeffding-large", "horizons": {}}
        d2_reports = {}
        ok = True
        for T, (ri, r2) in zip(horizons, records):
            ok &= all(ri["passed"]) and all(r2["passed"])
            out["horizons"][str(T)] = {"d_infinity": ri, "d_two": r2}
            d2_reports[T] = r2
        if len(d2_reports) >= 2:
            expo = tail_constant_scaling(d2_reports)
            target = 2.0 - 2.0 * cfg.get("fbm", "hurst")
            out["scaling_exponent"] = expo
            out["scaling_target"] = target
            ok &= abs(expo - target) <= 0.15
        out["passed"] = bool(ok)
        return out

    return shares, report


def _solution_distances(cfg: ExperimentConfig, report: Callable) -> Plan:
    """The d_inf distances of the solution pairs, reported by report."""
    grid = _grid(cfg)
    return [EnsembleShare(grid, HurstParam(cfg.get("fbm", "hurst")),
                          pair_seeds(cfg.get("experiment", "seed")),
                          _n_samples(cfg, "solution-distances"),
                          {"solution_d_inf": solution_d_inf(grid, cfg.get("sde", "drift_b"))},
                          lambda dists: dists)], report


def _t1_moments(cfg: ExperimentConfig) -> Plan:
    _require_samples(cfg, "t1-moments")
    _require_samples(cfg, "t1-moments", *TAIL_SHARE)
    delta = cfg.get("verify", "delta")

    def report(dists):
        c_hat, errs = estimate_t1_constant(dists)
        diag = gaussian_tail_c_delta(dists, delta)
        passed = (not diag["unstable"]) and c_hat <= diag["c_over_delta"]
        return {"verifier": "t1-moments", "passed": bool(passed),
                "moment_constant": c_hat, "jackknife_se": errs,
                "c_delta_over_delta": diag["c_over_delta"], "delta": delta,
                "n_pairs": len(dists)}

    return _solution_distances(cfg, report)


def _gaussian_tail(cfg: ExperimentConfig) -> Plan:
    _require_samples(cfg, "gaussian-tail", *TAIL_SHARE)
    delta = cfg.get("verify", "delta")

    def report(dists):
        diag = gaussian_tail_c_delta(dists, delta)
        return {"verifier": "gaussian-tail", "passed": not diag["unstable"], **diag,
                "n_pairs": len(dists)}

    return _solution_distances(cfg, report)


def _phi_link(cfg: ExperimentConfig) -> Plan:
    def report():
        c_values = cfg.c_delta_list
        argmax_ok = all(abs(phi_argmax(c) - 1.0) <= 1e-9 for c in c_values)
        value_ok = all(abs(phi_link(1.0, c) - c / 2.0) <= 1e-12 * c for c in c_values)
        digamma_ok = abs((special.digamma(2.0) - special.digamma(3.0)) - (-0.5)) <= 1e-12
        return {"verifier": "phi-link",
                "passed": argmax_ok and value_ok and digamma_ok,
                "argmax_ok": argmax_ok, "value_ok": value_ok,
                "digamma_ok": digamma_ok, "c_values": c_values}

    return [], report


VERIFIERS: dict[str, Callable[[ExperimentConfig], Plan]] = {
    "stability": _stability,
    "esti-int": _esti_int,
    "fernique": _fernique,
    "hoeffding-small": _hoeffding_small,
    "hoeffding-large": _hoeffding_large,
    "t1-moments": _t1_moments,
    "gaussian-tail": _gaussian_tail,
    "phi-link": _phi_link,
}


def run_campaign(cfg: ExperimentConfig, names: list[str]):
    """(name, report) for each name in order, stamped with the config_hash
    and seed.  Every name is planned first, then the shares of each ensemble
    take one shared_pass.  A PremiseError from a plan or a report gives the
    report "passed": False, "rejected": True and its reason."""
    stamp = {"config_hash": cfg.config_hash, "seed": cfg.get("experiment", "seed")}
    plans: dict[str, Plan | PremiseError] = {}
    groups: dict[tuple, list[EnsembleShare]] = {}
    for name in names:
        if name not in VERIFIERS:
            raise ConfigError(f"unknown verifier {name!r}")
        try:
            plans[name] = VERIFIERS[name](cfg)
        except PremiseError as exc:
            plans[name] = exc  # reported in its turn
            continue
        for share in plans[name][0]:
            groups.setdefault(share.ensemble, []).append(share)
    passes = {ensemble: shared_pass(group) for ensemble, group in groups.items()}
    for name in names:
        try:
            if isinstance(plans[name], PremiseError):
                raise plans[name]
            shares, report = plans[name]
            result = report(*(next(passes[s.ensemble]) for s in shares))
        except PremiseError as exc:
            result = {"verifier": name, "passed": False, "rejected": True, "reason": str(exc)}
        yield name, {**result, **stamp}


def run_verifier(name: str, cfg: ExperimentConfig) -> dict:
    """The report of verifier `name` on cfg: run_campaign of that one name."""
    return next(run_campaign(cfg, [name]))[1]
