"""Path-space metrics, empirical Wasserstein distances and the closed-form
transportation constants.

The empirical Wasserstein distance between equal-size ensembles reduces to
an optimal assignment (the optimum of the Birkhoff polytope sits on a
permutation); above the exact-solver cutoff an entropically regularized
solver takes over and reports its duality gap.  Empirical distances between
independent samples of one law are biased upward, so verification against
the transportation constants is always one-sided.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import optimize

from .grid import TimeGrid
from .sde import stability_horizon

EXACT_ASSIGNMENT_CUTOFF = 512


class PathMetric(str, Enum):
    d_infinity = "d_infinity"
    d_two = "d_two"


@dataclass(frozen=True)
class PathEnsemble:
    """i.i.d. collection of paths on one grid with provenance."""

    grid: TimeGrid
    paths: np.ndarray           # (n_paths, n_nodes) or (n_paths, n_nodes, d)
    seeds: tuple[int, ...] = ()
    config_hash: str = ""

    def __post_init__(self):
        p = np.asarray(self.paths, dtype=float)
        if p.ndim == 2:
            p = p[:, :, None]
        if p.shape[1] != self.grid.n_steps + 1:
            raise ValueError("paths do not match the grid")
        object.__setattr__(self, "paths", p)

    @property
    def n(self) -> int:
        return self.paths.shape[0]


def path_distance(gamma1: np.ndarray, gamma2: np.ndarray, grid: TimeGrid,
                  metric: PathMetric) -> float:
    """d_inf or d_2 between two paths sampled on the same grid."""
    g1 = np.asarray(gamma1, dtype=float)
    g2 = np.asarray(gamma2, dtype=float)
    if g1.shape != g2.shape or g1.shape[0] != grid.n_steps + 1:
        raise ValueError("paths must share the grid and shape")
    if g1.ndim == 1:
        g1, g2 = g1[:, None], g2[:, None]
    dist = np.linalg.norm(g1 - g2, axis=1)
    if metric == PathMetric.d_infinity:
        return float(dist.max())
    sq = dist**2
    return float(np.sqrt(np.trapezoid(sq, dx=grid.dt)))


def pairwise_cost_matrix(mu: PathEnsemble, nu: PathEnsemble,
                         metric: PathMetric, p: int) -> np.ndarray:
    """Cost matrix C[i, j] = d(path_i, path_j)^p, vectorized."""
    if mu.grid.n_steps != nu.grid.n_steps or mu.grid.t_max != nu.grid.t_max:
        raise ValueError("ensembles must share one grid")
    a = mu.paths  # (n, T, d)
    b = nu.paths
    n, m = a.shape[0], b.shape[0]
    cost = np.empty((n, m))
    chunk = max(1, 2**24 // (b.size // max(m, 1) or 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = a[lo:hi, None] - b[None]                  # (c, m, T, d)
        dist = np.linalg.norm(diff, axis=3)
        if metric == PathMetric.d_infinity:
            d = dist.max(axis=2)
        else:
            d = np.sqrt(np.trapezoid(dist**2, dx=mu.grid.dt, axis=2))
        cost[lo:hi] = d**p
    if not np.all(np.isfinite(cost)):
        raise ValueError("non-finite entries in the transport cost matrix")
    return cost


def wasserstein_empirical(mu: PathEnsemble, nu: PathEnsemble, p: int,
                          metric: PathMetric,
                          epsilon: float | None = None) -> float:
    """Empirical W_p between two ensembles under a path metric.

    Equal sample counts up to the cutoff: exact optimal assignment.  Unequal
    counts: exact uniform-marginal transportation LP.  Above the cutoff: an
    entropically regularized solver with an a posteriori duality-gap check
    (gap below 1% of the value).
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    cost = pairwise_cost_matrix(mu, nu, metric, p)
    n, m = cost.shape
    if max(n, m) <= EXACT_ASSIGNMENT_CUTOFF:
        if n == m:
            ri, ci = optimize.linear_sum_assignment(cost)
            avg = cost[ri, ci].mean()
        else:
            avg = _transport_lp(cost)
        return float(avg ** (1.0 / p))
    avg, gap = _sinkhorn(cost, epsilon)
    if gap > 0.01 * max(avg, 1e-300):
        raise ArithmeticError(
            f"entropic solver duality gap {gap:.3e} exceeds 1% of value {avg:.3e}"
        )
    return float(avg ** (1.0 / p))


def _transport_lp(cost: np.ndarray) -> float:
    """Exact uniform-marginal optimal transport via the HiGHS LP solver."""
    n, m = cost.shape
    from scipy.sparse import lil_matrix, csr_matrix
    rows = lil_matrix((n + m, n * m))
    for i in range(n):
        rows[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        rows[n + j, j::m] = 1.0
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = optimize.linprog(cost.ravel(), A_eq=csr_matrix(rows), b_eq=b_eq,
                           bounds=(0, None), method="highs")
    if not res.success:
        raise ArithmeticError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _sinkhorn(cost: np.ndarray, epsilon: float | None,
              n_iter: int = 200) -> tuple[float, float]:
    """Log-domain Sinkhorn with uniform marginals; returns (cost, gap).

    Epsilon-scaling warm-starts the potentials down to the target epsilon.
    The reported value is the cost of a rounded, exactly feasible coupling;
    the gap subtracts a dual-feasible value obtained by a c-transform of
    the potentials, so (value - gap, value) brackets the true LP optimum.
    """
    n, m = cost.shape
    scale = max(cost.max(), 1e-12)
    if epsilon is None:
        epsilon = 1e-4 * scale
    log_a = -np.log(n) * np.ones(n)
    log_b = -np.log(m) * np.ones(m)
    f = np.zeros(n)
    g = np.zeros(m)
    eps_levels = []
    e = scale / 10.0
    while e > epsilon:
        eps_levels.append(e)
        e /= 4.0
    eps_levels.append(epsilon)
    for eps in eps_levels:
        for _ in range(n_iter):
            f = -eps * _logsumexp((-cost + g[None, :]) / eps + log_b[None, :], axis=1)
            g = -eps * _logsumexp((-cost + f[:, None]) / eps + log_a[:, None], axis=0)
    log_pi = (-cost + f[:, None] + g[None, :]) / epsilon + log_a[:, None] + log_b[None, :]
    pi = np.exp(log_pi)
    # round to an exactly feasible coupling (scale rows/columns, patch deficit)
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    pi *= np.minimum(1.0, a / np.maximum(pi.sum(axis=1), 1e-300))[:, None]
    pi *= np.minimum(1.0, b / np.maximum(pi.sum(axis=0), 1e-300))[None, :]
    err_a = a - pi.sum(axis=1)
    err_b = b - pi.sum(axis=0)
    deficit = err_a.sum()
    if deficit > 1e-300:
        pi = pi + np.outer(err_a, err_b) / deficit
    primal = float(np.sum(pi * cost))
    # c-transform makes (f, g_ct) feasible for the unregularized dual
    g_ct = (cost - f[:, None]).min(axis=0)
    dual = float(f @ a + g_ct @ b)
    return primal, primal - dual


def _logsumexp(x, axis):
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(x - m), axis=axis))


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

class TheoremTag(str, Enum):
    T1_additive = "T1_additive"
    T1_scalar = "T1_scalar"
    T2_additive_dinf = "T2_additive_dinf"
    T2_additive_d2 = "T2_additive_d2"
    T2_scalar_dinf = "T2_scalar_dinf"
    T2_scalar_d2 = "T2_scalar_d2"


@dataclass
class TransportConstants:
    theorem_tag: TheoremTag
    value: float
    horizon_ok: bool
    detail: dict


def c_bt(B: float, T: float, sigma1: float = 1.0) -> float:
    """Time factor of the d_2 constants: (e^{3BT/s1} - 1)/3 for B > 0 and
    1 - e^{BT/s1} for B < 0."""
    if B == 0.0:
        raise ValueError("B must be nonzero")
    if B > 0:
        return (np.exp(3 * B * T / sigma1) - 1.0) / 3.0
    return 1.0 - np.exp(B * T / sigma1)


def transport_constant(tag: TheoremTag | str, *, H: float, T: float,
                       K: float | None = None,
                       sigma_beta_norm: float | None = None,
                       sigma_sup: float | None = None,
                       sigma1: float | None = None,
                       sigma2: float | None = None,
                       L_b: float | None = None,
                       L_sigma: float | None = None,
                       B_sup: float | None = None,
                       B: float | None = None) -> TransportConstants:
    """Closed-form transportation constant for one theorem variant.

    The universal constant K of the small-horizon variants is not numeric in
    the theory; it defaults to the calibrated fixture K_hat and is flagged
    as such in the detail record.
    """
    tag = TheoremTag(tag)
    detail: dict = {"H": H, "T": T}
    if tag in (TheoremTag.T1_additive, TheoremTag.T1_scalar):
        if K is None:
            from .fixtures import calibrated_constants
            K = calibrated_constants()["K_hat"]
            detail["K_source"] = "calibrated fixture K_hat (not analytic ground truth)"
        detail["K"] = K
        if tag == TheoremTag.T1_additive:
            if sigma_beta_norm is None or L_b is None:
                raise ValueError("T1_additive needs sigma_beta_norm and L_b")
            horizon = stability_horizon(L_b)
            value = K * sigma_beta_norm * T ** (2 * H)
        else:
            if None in (sigma1, sigma2, L_b, L_sigma, B_sup):
                raise ValueError("T1_scalar needs sigma1, sigma2, L_b, L_sigma, B_sup")
            denom = 2 * sigma2 * (L_b * sigma2 + L_sigma * B_sup)
            horizon = min(1.0, sigma1**2 / denom) if denom > 0 else 1.0
            value = K * sigma2**2 * T ** (2 * H)
        detail["horizon"] = horizon
        return TransportConstants(tag, float(value), bool(T <= horizon), detail)

    if B is None or B == 0.0:
        raise ValueError(f"{tag.value} requires a nonzero one-sided constant B")
    detail["B"] = B
    if tag == TheoremTag.T2_additive_dinf:
        if sigma_sup is None:
            raise ValueError("T2_additive_dinf needs sigma_sup")
        value = (2.0 / abs(B)) * H * T ** (2 * H - 1) \
            * max(1.0, np.exp((2 * B + abs(B)) * T)) * sigma_sup**2
    elif tag == TheoremTag.T2_additive_d2:
        if sigma_sup is None:
            raise ValueError("T2_additive_d2 needs sigma_sup")
        value = (2.0 / B**2) * H * T ** (2 * H - 1) * sigma_sup**2 * c_bt(B, T)
    elif tag == TheoremTag.T2_scalar_dinf:
        if None in (sigma1, sigma2):
            raise ValueError("T2_scalar_dinf needs sigma1 and sigma2")
        value = (2.0 * sigma1 * sigma2**2 / abs(B)) * H * T ** (2 * H - 1) \
            * max(1.0, np.exp((2 * B + abs(B)) * T / sigma1))
    elif tag == TheoremTag.T2_scalar_d2:
        if None in (sigma1, sigma2):
            raise ValueError("T2_scalar_d2 needs sigma1 and sigma2")
        value = (2.0 * sigma1**2 * sigma2**2 / B**2) * H * T ** (2 * H - 1) \
            * c_bt(B, T, sigma1)
    else:  # pragma: no cover
        raise ValueError(tag)
    return TransportConstants(tag, float(value), True, detail)
