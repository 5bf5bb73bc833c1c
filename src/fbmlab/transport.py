"""Path-space metrics, empirical Wasserstein distances and the closed-form
transportation constants.

Both path metrics are `path_metric` of path differences, which every
distance here, `concentration.pair_distances` and the verifiers' solution
distances call.  A cost matrix is one compiled call: under d_inf on
scalar paths scipy's Chebyshev cdist, equal to path_metric bit for bit,
with no memory beside the n x m result; under d_2 one GEMM of the
trapezoid-weighted, centred paths, each entry within
d_two_rel_bound(n_nodes d) of the exact value (5.9e-10 at 257 nodes) and
those at or below D2_RECOMPUTE_REL (tau = 1e-4) of their norms recomputed
by path_metric, so coincident paths cost exactly 0, in O((n + m) n_nodes d)
memory beside the result.  Only d_inf on d > 1 components still reduces
one row of the first ensemble at a time.  The empirical
Wasserstein distance between equal-size ensembles reduces to an optimal
assignment (the optimum of the Birkhoff polytope sits on a permutation).
Unequal counts n != m reduce to one too: with l = lcm(n, m), scaling the
uniform marginals by l gives integer supplies l/n and demands l/m, the
transportation polytope then has integral vertices, and so its optimum is
that of the l x l assignment in which each row of the cost matrix is
repeated l/n times and each column l/m times.  That assignment runs while
the replication factor (l/n)(l/m) is at most REPLICATION_MAX_FACTOR (12);
beyond it (e.g. 61 vs 67 paths, factor 4087) the exact transportation LP
runs in HiGHS instead.  Above the exact-solver cutoff an entropic solver
takes over: epsilon-scaling with matrix-vector Sinkhorn scalings absorbed
into log-domain potentials, each level stopped on its marginal error, and a
return at the first level whose certified primal-dual bracket is within
ENTROPIC_GAP_REL (1%) of the value.  On 520 vs 520 d_inf
Euler ensembles that takes about 1.3 s at a gap of 0.5-0.9% (2 vCPUs), or
about 4.3 s when the gate needs the epsilon floor.  A per-level iteration
cap or a gap left above the gate at the floor raises ArithmeticError.
Empirical distances between independent samples of one law are biased
upward, so verification against the transportation constants is always
one-sided.

The constants are three closed forms with required arguments:
t1_constant (small horizon, returned with its stability horizon) and
t2_constant_dinf / t2_constant_d2 (dissipative).  Each is written for the
scalar model; the additive model is its case sigma1 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import optimize, sparse
from scipy.spatial import distance

from .fixtures import calibrated_constants
from .grid import TimeGrid
from .sde import stability_horizon

EXACT_ASSIGNMENT_CUTOFF = 512
#: Largest replication factor (l/n)(l/m), l = lcm(n, m), at which unequal
#: counts are solved as one l x l assignment; above it the HiGHS LP runs.
#: A bound, not an option.  Replicated LSA against HiGHS on the same d_inf^2
#: costs of Euler ensembles (2 vCPUs), with n x m (factor):
#:   384 x 256 (6) 0.10 s vs 1.58 s; 240 x 180 (12) 0.09 s vs 0.51 s;
#:   512 x 384 (12) 0.65 s vs 3.13 s; 500 x 400 (20) 0.90 s vs 3.01 s;
#:   210 x 150 (35) 0.20 s vs 0.36 s; 300 x 210 (70) 2.14 s vs 0.88 s;
#:   120 x 110 (132) 0.40 s vs 0.11 s; 31 x 37 (1147) 0.29 s vs 0.02 s;
#: all values within 7e-16 relative.  At 12 the assignment wins every
#: measured case with margin, and the replicated matrix holds at most
#: 12 * 512^2 doubles (24 MiB).
REPLICATION_MAX_FACTOR = 12
#: Largest duality gap of the entropic solver, relative to its value.
ENTROPIC_GAP_REL = 0.01
#: Floor of the entropic solver's epsilon, relative to the largest cost.
SINKHORN_EPS_REL = 2.5e-5
#: L1 row-marginal error at which one epsilon level stops.
SINKHORN_TOL = 1e-5
#: Iterations allowed to one epsilon level; reaching the cap raises.
SINKHORN_MAX_ITERS = 50_000
_SINKHORN_CHECK = 10    # iterations between absorption / convergence checks
#: tau of the d_2 GEMM: an entry ||x - y||_w^2 computed as
#: ||x||_w^2 + ||y||_w^2 - 2 <x, y>_w is recomputed by path_metric when it
#: is not above tau S, S = ||x||_w^2 + ||y||_w^2 of the centred paths, i.e.
#: when the distance is within 1% of sqrt(S).  The identity's absolute
#: error is at most eps S, eps = 2 (k + 8) u for k = n_nodes * d terms and
#: u = 2^-53 (gamma_k of each of the three dot products, the sqrt(w)
#: scaling, the centring and the two additions; barring underflow).  So a
#: kept entry is within eps / (tau - 2 eps) of the exact value, relative:
#: 5.9e-10 at 257 nodes, d = 1 (d_two_rel_bound).  Coincident paths have
#: an identity value of at most eps S < tau S, so they are recomputed, to 0.
D2_RECOMPUTE_REL = 1e-4
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class PathMetric(str, Enum):
    d_infinity = "d_infinity"
    d_two = "d_two"


@dataclass(frozen=True)
class PathEnsemble:
    """i.i.d. collection of at least one path on one grid; a non-finite
    entry is a numerical failure (ArithmeticError)."""

    grid: TimeGrid
    paths: np.ndarray           # (n_paths, n_nodes) or (n_paths, n_nodes, d)

    def __post_init__(self):
        p = np.asarray(self.paths, dtype=float)
        if p.ndim == 2:
            p = p[:, :, None]
        if p.shape[1] != self.grid.n_steps + 1:
            raise ValueError("paths do not match the grid")
        if p.shape[0] == 0:
            raise ValueError("path ensemble needs at least one path")
        if not np.all(np.isfinite(p)):
            raise ArithmeticError("path ensemble contains non-finite entries")
        object.__setattr__(self, "paths", p)

    @property
    def n(self) -> int:
        return self.paths.shape[0]


def path_metric(diff: np.ndarray, dt: float, metric: PathMetric) -> np.ndarray:
    """d_inf (max) or d_2 (trapezoid L2) of path differences shaped
    (..., n_nodes, d).  The state axis reduces first (abs when d = 1, the
    Euclidean norm otherwise), then the time axis."""
    dist = np.abs(diff[..., 0]) if diff.shape[-1] == 1 else np.linalg.norm(diff, axis=-1)
    if metric == PathMetric.d_infinity:
        return dist.max(axis=-1)
    return np.sqrt(np.trapezoid(dist**2, dx=dt, axis=-1))


def require_same_space(mu: PathEnsemble, nu: PathEnsemble) -> None:
    """Raise ValueError unless mu and nu share one grid and one state
    dimension d, so that their paths can be subtracted."""
    if mu.grid != nu.grid or mu.paths.shape[2] != nu.paths.shape[2]:
        raise ValueError(
            f"ensembles must share one grid and one state dimension: paths shaped "
            f"{mu.paths.shape} on {mu.grid!r} and {nu.paths.shape} on {nu.grid!r}")


def d_two_rel_bound(k: int) -> float:
    """Relative error bound of every d_2^2 entry of pairwise_cost_matrix
    against the exact weighted norm, for k = n_nodes * d (see
    D2_RECOMPUTE_REL); about half of it holds for d_2 itself."""
    eps = 2.0 * (k + 8) * _UNIT_ROUNDOFF
    return eps / (D2_RECOMPUTE_REL - 2.0 * eps)


def pairwise_cost_matrix(mu: PathEnsemble, nu: PathEnsemble,
                         metric: PathMetric, p: int) -> np.ndarray:
    """Cost matrix C[i, j] = d(path_i, path_j)^p for p in {1, 2}, as one
    compiled call per matrix.

    - d_inf, d = 1: scipy's Chebyshev cdist, whose exact |a - b| and max
      are path_metric's, so every entry is path_metric's bit for bit;
      working memory is the n x m result.
    - d_2, any d: one GEMM of the trapezoid-weighted paths (_d_two_cost);
      every entry within d_two_rel_bound(n_nodes d) of the exact value,
      coincident paths exactly 0; working memory O((n + m) n_nodes d)
      beside a few n x m arrays.
    - d_inf, d > 1: one path_metric row per path of mu (no compiled kernel
      takes the Euclidean norm over d before the max over nodes); working
      memory O(m n_nodes d) beside the result.

    A cost that overflows raises ArithmeticError."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    require_same_space(mu, nu)
    # an overflowing cost is reported by the finiteness check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if metric == PathMetric.d_two:
            cost = _d_two_cost(mu, nu, p)
        elif mu.paths.shape[2] == 1:
            cost = distance.cdist(mu.paths[:, :, 0], nu.paths[:, :, 0], "chebyshev")
            cost **= p
        else:
            cost = np.empty((mu.n, nu.n))
            for i, row in enumerate(mu.paths):
                cost[i] = path_metric(nu.paths - row, mu.grid.dt, metric) ** p
    if not np.all(np.isfinite(cost)):
        raise ArithmeticError("non-finite entries in the transport cost matrix")
    return cost


def _d_two_cost(mu: PathEnsemble, nu: PathEnsemble, p: int) -> np.ndarray:
    """d_2(x, y)^p for every pair: with the trapezoid weights w and both
    ensembles centred on their joint mean path (a common shift leaves every
    difference alone and shrinks the norms the error scales with),
    ||x - y||_w^2 = ||x||_w^2 + ||y||_w^2 - 2 <sqrt(w) x, sqrt(w) y>, the
    inner products one GEMM over the n_nodes * d flattened axis.  Entries
    not above D2_RECOMPUTE_REL (||x||_w^2 + ||y||_w^2), non-finite ones
    included, are recomputed by path_metric one row of mu at a time."""
    grid = mu.grid
    weights = np.full(grid.n_steps + 1, grid.dt)
    weights[[0, -1]] *= 0.5
    root_w = np.sqrt(weights)[:, None]
    centre = (mu.paths.sum(axis=0) + nu.paths.sum(axis=0)) / (mu.n + nu.n)
    x = ((mu.paths - centre) * root_w).reshape(mu.n, -1)
    y = ((nu.paths - centre) * root_w).reshape(nu.n, -1)
    scale = np.einsum("ij,ij->i", x, x)[:, None] + np.einsum("ij,ij->i", y, y)
    cost = x @ y.T
    cost *= -2.0
    cost += scale
    scale *= D2_RECOMPUTE_REL
    redo = ~(cost > scale)
    np.maximum(cost, 0.0, out=cost)
    if p == 1:
        np.sqrt(cost, out=cost)
    for i in np.flatnonzero(redo.any(axis=1)):
        cols = np.flatnonzero(redo[i])
        cost[i, cols] = path_metric(nu.paths[cols] - mu.paths[i], grid.dt,
                                    PathMetric.d_two) ** p
    return cost


def wasserstein_empirical(mu: PathEnsemble, nu: PathEnsemble, p: int,
                          metric: PathMetric) -> float:
    """Empirical W_p between two ensembles under a path metric.

    Up to the cutoff the value is exact.  Equal sample counts: one optimal
    assignment on the cost matrix itself.  Unequal counts n, m with
    l = lcm(n, m): the same assignment on the l x l matrix that repeats each
    row l/n and each column l/m times, whose optimum is that of the
    uniform-marginal transportation LP (its polytope, scaled by l, has
    integral vertices), as long as (l/n)(l/m) <= REPLICATION_MAX_FACTOR;
    otherwise the LP itself in HiGHS.  Above the cutoff: the entropic
    solver, whose certified duality gap must be at most ENTROPIC_GAP_REL of
    the value, or ArithmeticError is raised.
    """
    cost = pairwise_cost_matrix(mu, nu, metric, p)
    n, m = cost.shape
    if max(n, m) <= EXACT_ASSIGNMENT_CUTOFF:
        lcm = math.lcm(n, m)
        if (lcm // n) * (lcm // m) > REPLICATION_MAX_FACTOR:
            return float(_transport_lp(cost) ** (1.0 / p))
        if n != m:
            cost = np.repeat(np.repeat(cost, lcm // n, axis=0), lcm // m, axis=1)
        ri, ci = optimize.linear_sum_assignment(cost)
        return float(cost[ri, ci].mean() ** (1.0 / p))
    avg, gap = _sinkhorn(cost)
    if gap > ENTROPIC_GAP_REL * max(avg, 1e-300):
        raise ArithmeticError(
            f"entropic solver duality gap {gap:.3e} exceeds "
            f"{ENTROPIC_GAP_REL:.0%} of value {avg:.3e}")
    return float(avg ** (1.0 / p))


def _transport_lp(cost: np.ndarray) -> float:
    """Exact uniform-marginal optimal transport via the HiGHS LP solver."""
    n, m = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))], format="csr")
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = optimize.linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq,
                           bounds=(0, None), method="highs")
    if not res.success:
        raise ArithmeticError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _sinkhorn(cost: np.ndarray) -> tuple[float, float]:
    """Entropic transport with uniform marginals; returns (value, gap).

    Epsilon-scaling (Schmitzer 2019) from max(cost) / 10 down by a factor 4
    per level to the floor SINKHORN_EPS_REL * max(cost).  Each level runs
    the matrix-vector Sinkhorn scalings u = m / (K v), v = n / (u K) of the
    coupling n m diag(u) K diag(v), K = exp((f + g - C) / eps); every
    _SINKHORN_CHECK iterations the scalings are absorbed into the
    potentials (f, g) when they leave [1e-3, 1e3], or else the level stops
    once the L1 row-marginal error is below SINKHORN_TOL.  After each level
    the coupling is rounded to an exactly feasible one (Altschuler, Weed and
    Rigollet 2017), whose cost is the value; the gap subtracts the dual value
    of the c-transform of f, so (value - gap, value) brackets the LP optimum.
    It returns at the first level whose gap is at most ENTROPIC_GAP_REL of
    the value, or at the floor whatever the gap.
    """
    n, m = cost.shape
    scale = max(cost.max(), 1e-12)
    epsilon = SINKHORN_EPS_REL * scale
    f = np.zeros(n)
    g = np.zeros(m)
    eps_levels = []
    e = scale / 10.0
    while e > epsilon:
        eps_levels.append(e)
        e /= 4.0
    eps_levels.append(epsilon)
    kernel = np.empty_like(cost)
    for eps in eps_levels:
        _sinkhorn_level(cost, f, g, eps, kernel)
        primal, gap = _certified_bracket(cost, f, g, eps, kernel)
        if gap <= ENTROPIC_GAP_REL * primal:
            break
    return primal, gap


def _gibbs_kernel(cost, f, g, eps, out):
    """out = exp((f + g - cost) / eps) in place, entries below 1e-200 set to
    0 (subnormal operands slow every BLAS product several times over)."""
    np.subtract(f[:, None], cost, out=out)
    out += g
    out /= eps
    np.exp(out, out=out)
    out[out < 1e-200] = 0.0
    return out


def _sinkhorn_level(cost, f, g, eps, kernel):
    """Sinkhorn scalings at one epsilon until the row marginals are within
    SINKHORN_TOL (L1); the final scalings are absorbed into f and g in
    place.  Raises ArithmeticError when SINKHORN_MAX_ITERS is reached."""
    n, m = cost.shape
    _gibbs_kernel(cost, f, g, eps, kernel)
    u = np.ones(n)
    v = np.ones(m)
    err = np.inf
    for it in range(1, SINKHORN_MAX_ITERS + 1):
        kv = kernel @ v
        if it % _SINKHORN_CHECK == 0:
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                raise ArithmeticError(
                    f"Sinkhorn scalings overflow at epsilon {eps:.3e}")
            if min(u.min(), v.min()) < 1e-3 or max(u.max(), v.max()) > 1e3:
                f += eps * np.log(u)
                g += eps * np.log(v)
                _gibbs_kernel(cost, f, g, eps, kernel)
                u[:] = 1.0
                v[:] = 1.0
                continue
            err = np.abs(u * kv - m).sum() / (n * m)
            if err < SINKHORN_TOL:
                f += eps * np.log(u)
                g += eps * np.log(v)
                return
        u = m / kv
        v = n / (u @ kernel)
    raise ArithmeticError(
        f"Sinkhorn level at epsilon {eps:.3e} did not converge in "
        f"{SINKHORN_MAX_ITERS} iterations: L1 marginal error {err:.3e}")


def _certified_bracket(cost, f, g, eps, kernel):
    """(value, gap) of the coupling exp((f + g - cost) / eps) / (n m),
    rounded to the uniform marginals, against the c-transform dual of f;
    kernel is overwritten."""
    n, m = cost.shape
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    pi = _gibbs_kernel(cost, f, g, eps, kernel)
    pi /= n * m
    pi *= np.minimum(1.0, a / np.maximum(pi.sum(axis=1), 1e-300))[:, None]
    pi *= np.minimum(1.0, b / np.maximum(pi.sum(axis=0), 1e-300))[None, :]
    err_a = a - pi.sum(axis=1)
    err_b = b - pi.sum(axis=0)
    deficit = err_a.sum()
    # the rounded coupling adds outer(err_a, err_b) / deficit to pi
    primal = float(np.vdot(pi, cost))
    if deficit > 1e-300:
        primal += float(err_a @ cost @ err_b) / deficit
    if n == m:
        # the permutation of each row's largest entry, when it is one, is
        # also feasible; it drops the entropic blur of a sharp optimum
        perm = pi.argmax(axis=1)
        if np.unique(perm).size == n:
            primal = min(primal, float(cost[np.arange(n), perm].mean()))
    # c-transform makes (f, g_ct) feasible for the unregularized dual
    g_ct = np.subtract(cost, f[:, None], out=kernel).min(axis=0)
    dual = float(f @ a + g_ct @ b)
    return primal, primal - dual


def relative_entropy_discrete(nu_weights: np.ndarray, mu_weights: np.ndarray) -> float:
    """KL divergence sum nu_i log(nu_i / mu_i); +inf if nu is not << mu."""
    nu = np.asarray(nu_weights, dtype=float)
    mu = np.asarray(mu_weights, dtype=float)
    if nu.shape != mu.shape:
        raise ValueError("weight vectors must have equal length")
    for name, w in (("nu", nu), ("mu", mu)):
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"{name} weights must be a probability vector")
    if np.any((nu > 0) & (mu == 0)):
        return np.inf
    mask = nu > 0
    return float(np.sum(nu[mask] * np.log(nu[mask] / mu[mask])))


# ---------------------------------------------------------------------------
# Transportation constants
# ---------------------------------------------------------------------------

def c_bt(B: float, T: float, sigma1: float = 1.0) -> float:
    """Time factor of the d_2 constants: (e^{3BT/s1} - 1)/3 for B > 0 and
    1 - e^{BT/s1} for B < 0."""
    if B == 0.0:
        raise ValueError("B must be nonzero")
    if B > 0:
        return (np.exp(3 * B * T / sigma1) - 1.0) / 3.0
    return 1.0 - np.exp(B * T / sigma1)


def t1_constant(H: float, T: float, scale: float,
                lipschitz: float) -> tuple[float, float]:
    """Small-horizon constant K_hat scale T^{2H} and its horizon
    stability_horizon(lipschitz); the constant holds for T <= horizon.

    Additive model: scale = ||sigma||_beta, lipschitz = L_b.  Scalar model:
    scale = sigma2^2, lipschitz = sde.lamperti_drift_lipschitz_bound.  The
    universal K of the theory is not numeric; K_hat is the calibrated
    fixture, not analytic ground truth.
    """
    K = calibrated_constants()["K_hat"]
    return float(K * scale * T ** (2 * H)), stability_horizon(lipschitz)


def t2_constant_dinf(H: float, T: float, B: float, sigma1: float,
                     sigma2: float) -> float:
    """Dissipative constant under d_inf for the scalar model,
    (2 / |B|) H T^{2H-1} max(1, e^{(2B + |B|) T / s1}) s2^2 s1; the
    additive model is s1 = 1, s2 = sup |sigma|.  B is the one-sided drift
    constant, nonzero."""
    if B == 0.0:
        raise ValueError("B must be nonzero")
    return float((2.0 / abs(B)) * H * T ** (2 * H - 1)
                 * max(1.0, np.exp((2 * B + abs(B)) * T / sigma1))
                 * sigma2**2 * sigma1)


def t2_constant_d2(H: float, T: float, B: float, sigma1: float,
                   sigma2: float) -> float:
    """Dissipative constant under d_2 for the scalar model,
    (2 / B^2) H T^{2H-1} s2^2 c_bt(B, T, s1) s1^2; the additive model is
    s1 = 1, s2 = sup |sigma|.  B is the one-sided drift constant, nonzero."""
    if B == 0.0:
        raise ValueError("B must be nonzero")
    return float((2.0 / B**2) * H * T ** (2 * H - 1)
                 * sigma2**2 * c_bt(B, T, sigma1) * sigma1**2)
