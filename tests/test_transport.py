"""Path metrics, empirical Wasserstein and transportation constants."""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from fbmlab import transport
from fbmlab.fbm import HurstParam, Role, role_seed, sample_fbm_circulant_batch
from fbmlab.fixtures import calibrated_constants
from fbmlab.grid import TimeGrid
from fbmlab.sde import (
    DriftSpec,
    ScalarDiffusion,
    euler_additive_ensemble,
    lamperti_drift_lipschitz_bound,
)
from fbmlab.transport import (
    PathEnsemble,
    PathMetric,
    c_bt,
    pairwise_cost_matrix,
    path_metric,
    t1_constant,
    t2_constant_d2,
    t2_constant_dinf,
    wasserstein_empirical,
)


def test_path_distance_hand_values():
    # the difference of two scalar paths, shaped (n_nodes, d = 1)
    diff = np.array([[0.0], [1.0], [0.0]])
    assert path_metric(diff, 0.5, PathMetric.d_infinity) == 1.0
    # trapezoid of (0, 1, 0)^2 with dt = 1/2 -> 1/2
    assert path_metric(diff, 0.5, PathMetric.d_two) == pytest.approx(np.sqrt(0.5))


def test_wasserstein_matches_bruteforce_n4():
    rng = np.random.default_rng(8)
    grid = TimeGrid(1.0, 8)
    mu = PathEnsemble(grid, rng.standard_normal((4, 9)))
    nu = PathEnsemble(grid, rng.standard_normal((4, 9)))
    for p in (1, 2):
        for metric in PathMetric:
            cost = pairwise_cost_matrix(mu, nu, metric, p)
            best = min(
                np.mean([cost[i, perm[i]] for i in range(4)])
                for perm in itertools.permutations(range(4))
            )
            w = wasserstein_empirical(mu, nu, p, metric)
            assert w == pytest.approx(best ** (1.0 / p), abs=1e-9)


def test_wasserstein_zero_on_identical_ensembles():
    rng = np.random.default_rng(9)
    grid = TimeGrid(1.0, 8)
    paths = rng.standard_normal((6, 9))
    mu = PathEnsemble(grid, paths)
    nu = PathEnsemble(grid, paths.copy())
    assert wasserstein_empirical(mu, nu, 2, PathMetric.d_two) == pytest.approx(0.0)


def test_wasserstein_unequal_counts_lp():
    # a single-path target makes W1 the average distance to it; 5 vs 1 is
    # the replicated assignment (factor 5), each column repeated 5 times
    rng = np.random.default_rng(10)
    grid = TimeGrid(1.0, 8)
    mu = PathEnsemble(grid, rng.standard_normal((5, 9)))
    nu = PathEnsemble(grid, rng.standard_normal((1, 9)))
    cost = pairwise_cost_matrix(mu, nu, PathMetric.d_infinity, 1)
    w = wasserstein_empirical(mu, nu, 1, PathMetric.d_infinity)
    assert w == pytest.approx(cost.mean(), abs=1e-10)


def test_wasserstein_sinkhorn_above_cutoff(monkeypatch):
    # shifted copy of one ensemble: W2 under d_2 equals the shift exactly;
    # 520 vs 520 runs the entropic solver once, whose (value, gap) pair the
    # benchmark's transport trace reads
    calls = []
    real = transport._sinkhorn

    def counted(cost):
        result = real(cost)
        calls.append(result)
        return result

    monkeypatch.setattr(transport, "_sinkhorn", counted)
    rng = np.random.default_rng(11)
    grid = TimeGrid(1.0, 8)
    base = rng.standard_normal((520, 9))
    mu = PathEnsemble(grid, base)
    nu = PathEnsemble(grid, base + 0.5)
    w = wasserstein_empirical(mu, nu, 2, PathMetric.d_two)
    assert w == pytest.approx(0.5, rel=1e-6)
    assert len(calls) == 1
    value, gap = calls[0]
    assert np.isfinite(float(value)) and np.isfinite(float(gap))


def _euler_ensemble(n, seed):
    """dX = -X dt + dB^H, H = 0.75, on [0, 0.5] with 128 steps, X_0 = 0."""
    grid = TimeGrid(0.5, 128)
    drivers = sample_fbm_circulant_batch(grid, HurstParam(0.75), n, seed)
    return PathEnsemble(grid, euler_additive_ensemble(0.0, lambda v: -v, drivers, grid.dt))


@pytest.mark.parametrize("seed", [4, 2004])
def test_wasserstein_entropic_within_gate_of_assignment(seed):
    # two independent 520-path d_inf ensembles, above the exact-assignment
    # cutoff, so the entropic branch runs
    mu, nu = _euler_ensemble(520, seed), _euler_ensemble(520, role_seed(seed, Role.partner))
    cost = pairwise_cost_matrix(mu, nu, PathMetric.d_infinity, 2)
    ri, ci = linear_sum_assignment(cost)
    oracle = cost[ri, ci].mean() ** 0.5
    w = wasserstein_empirical(mu, nu, 2, PathMetric.d_infinity)
    assert oracle <= w <= 1.01 * oracle


def test_sinkhorn_brackets_lp_optimum_unequal_counts():
    cost = pairwise_cost_matrix(_euler_ensemble(530, 7), _euler_ensemble(520, 8),
                                PathMetric.d_infinity, 2)
    primal, gap = transport._sinkhorn(cost)
    assert 0.0 <= gap <= transport.ENTROPIC_GAP_REL * primal
    assert primal - gap <= transport._transport_lp(cost) <= primal


def test_wasserstein_entropic_fails_closed_above_gate(monkeypatch):
    # a coarse epsilon floor cannot reach the 1% gap
    monkeypatch.setattr(transport, "SINKHORN_EPS_REL", 1e-2)
    rng = np.random.default_rng(15)
    grid = TimeGrid(1.0, 8)
    mu = PathEnsemble(grid, rng.standard_normal((520, 9)))
    nu = PathEnsemble(grid, rng.standard_normal((520, 9)))
    with pytest.raises(ArithmeticError, match="duality gap"):
        wasserstein_empirical(mu, nu, 2, PathMetric.d_infinity)


def test_sinkhorn_level_cap_raises(monkeypatch):
    monkeypatch.setattr(transport, "SINKHORN_MAX_ITERS", 20)
    rng = np.random.default_rng(16)
    cost = rng.random((40, 30))
    with pytest.raises(ArithmeticError, match=r"epsilon .* marginal error"):
        transport._sinkhorn(cost)


def _chunked_cost_matrix(mu, nu, metric, p):
    """Oracle: the cost matrix as whole (chunk, m, n_nodes, d) difference
    tensors reduced by the norm over d, then over time."""
    a, b = mu.paths, nu.paths
    n, m = a.shape[0], b.shape[0]
    cost = np.empty((n, m))
    chunk = max(1, 2**21 // b.size)   # rows of mu per tensor of <= 2^21 doubles
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dist = np.linalg.norm(a[lo:hi, None] - b[None], axis=3)
        if metric == PathMetric.d_infinity:
            dist = dist.max(axis=-1)
        else:
            dist = np.sqrt(np.trapezoid(dist**2, dx=mu.grid.dt, axis=-1))
        cost[lo:hi] = dist ** p
    return cost


def _assert_within_d_two_bound(cost, oracle, k):
    """Every d_2 entry within the stated bound of the oracle, whose own
    rounding (at most (k + 8) eps relative) is added to it."""
    tol = transport.d_two_rel_bound(k) + (k + 8) * np.finfo(float).eps
    assert np.all(np.abs(cost - oracle) <= tol * oracle)


@pytest.mark.parametrize("d", [1, 3])
def test_cost_matrix_equals_chunked_tensor_formula(d):
    # d_inf bit for bit; d_2 within its stated bound (a GEMM identity)
    rng = np.random.default_rng(12 + d)
    grid = TimeGrid(0.5, 64)
    mu = PathEnsemble(grid, np.cumsum(rng.standard_normal((37, 65, d)), axis=1))
    nu = PathEnsemble(grid, np.cumsum(rng.standard_normal((23, 65, d)), axis=1))
    for p in (1, 2):
        assert np.array_equal(pairwise_cost_matrix(mu, nu, PathMetric.d_infinity, p),
                              _chunked_cost_matrix(mu, nu, PathMetric.d_infinity, p))
        _assert_within_d_two_bound(pairwise_cost_matrix(mu, nu, PathMetric.d_two, p),
                                   _chunked_cost_matrix(mu, nu, PathMetric.d_two, p),
                                   65 * d)


@pytest.mark.parametrize("n,m", [(512, 512), (384, 256), (520, 520), (1, 9), (9, 1)])
def test_cost_matrix_d_inf_is_the_row_wise_value_bit_for_bit(n, m):
    # the transport bench's three shapes (Euler ensembles on 129 nodes) and
    # a single path on either side, through the Chebyshev kernel
    mu, nu = _euler_ensemble(n, 21), _euler_ensemble(m, 22)
    for p in (1, 2):
        assert np.array_equal(pairwise_cost_matrix(mu, nu, PathMetric.d_infinity, p),
                              _chunked_cost_matrix(mu, nu, PathMetric.d_infinity, p))


def _random_walks(rng, n, d=1):
    return np.cumsum(rng.standard_normal((n, 65, d)), axis=1)


def test_cost_matrix_d_two_within_stated_bound():
    rng = np.random.default_rng(23)
    grid = TimeGrid(0.5, 64)
    walks = _random_walks(rng, 40)
    cases = {
        "euler": (_euler_ensemble(96, 24), _euler_ensemble(80, 25)),
        "walks": (PathEnsemble(grid, walks), PathEnsemble(grid, _random_walks(rng, 30))),
        "walks_d3": (PathEnsemble(grid, _random_walks(rng, 30, 3)),
                     PathEnsemble(grid, _random_walks(rng, 20, 3))),
        "far_apart": (PathEnsemble(grid, walks),
                      PathEnsemble(grid, 1e3 + _random_walks(rng, 30))),
        "near_coincident": (PathEnsemble(grid, walks),
                            PathEnsemble(grid, walks + 1e-9 * rng.standard_normal(walks.shape))),
    }
    for name, (mu, nu) in cases.items():
        k = mu.paths.shape[1] * mu.paths.shape[2]
        for p in (1, 2):
            cost = pairwise_cost_matrix(mu, nu, PathMetric.d_two, p)
            oracle = _chunked_cost_matrix(mu, nu, PathMetric.d_two, p)
            _assert_within_d_two_bound(cost, oracle, k)
            if name == "near_coincident":
                # the 1e-9 pairs sit below tau and are path_metric's values
                assert np.array_equal(np.diag(cost), np.diag(oracle))


def test_cost_matrix_d_two_coincident_paths_exactly_zero():
    rng = np.random.default_rng(26)
    grid = TimeGrid(0.5, 128)
    paths = rng.standard_normal((40, 129))
    cost = pairwise_cost_matrix(PathEnsemble(grid, paths), PathEnsemble(grid, paths.copy()),
                                PathMetric.d_two, 1)
    assert np.all(np.diag(cost) == 0.0) and np.all(cost + np.eye(40) > 0.0)
    # a fully duplicated ensemble: every entry recomputed, one row of mu at
    # a time, within the one-row memory bound
    mu = PathEnsemble(grid, np.repeat(paths[:1], 512, axis=0))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cost = pairwise_cost_matrix(mu, mu, PathMetric.d_two, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(cost == 0.0)
    assert peak < 32 * 2**20


def test_cost_matrix_d_two_overflowing_identity_falls_back():
    # the joint mean of 1.5e308 paths overflows, so the GEMM identity is
    # NaN; those entries are path_metric's exact 0, with no RuntimeWarning
    grid = TimeGrid(1.0, 4)
    mu = PathEnsemble(grid, np.full((2, 5), 1.5e308))
    nu = PathEnsemble(grid, np.full((3, 5), 1.5e308))
    for p in (1, 2):
        assert np.array_equal(pairwise_cost_matrix(mu, nu, PathMetric.d_two, p),
                              np.zeros((2, 3)))


def test_cost_matrix_requires_one_grid_and_one_state_dimension():
    grid = TimeGrid(1.0, 4)
    scalar = PathEnsemble(grid, np.zeros((2, 5)))
    for other in (PathEnsemble(grid, np.zeros((2, 5, 3))),
                  PathEnsemble(TimeGrid(2.0, 4), np.zeros((2, 5)))):
        for metric in PathMetric:
            with pytest.raises(ValueError, match=r"\(2, 5, 1\) .* and \(2, 5, \d\)"):
                pairwise_cost_matrix(scalar, other, metric, 2)
            with pytest.raises(ValueError, match="one state dimension"):
                wasserstein_empirical(scalar, other, 2, metric)


def test_cost_matrix_rejects_p_outside_one_and_two():
    grid = TimeGrid(1.0, 4)
    mu = PathEnsemble(grid, np.ones((2, 5)))
    for p in (0, 3):
        for metric in PathMetric:
            with pytest.raises(ValueError, match="p must be 1 or 2"):
                pairwise_cost_matrix(mu, mu, metric, p)
            with pytest.raises(ValueError, match="p must be 1 or 2"):
                wasserstein_empirical(mu, mu, p, metric)


def test_cost_matrix_memory_is_one_row():
    # the whole (n, m, n_nodes) tensor at 512 x 512 x 129 would be 258 MiB
    rng = np.random.default_rng(13)
    grid = TimeGrid(0.5, 128)
    mu = PathEnsemble(grid, rng.standard_normal((512, 129)))
    nu = PathEnsemble(grid, rng.standard_normal((512, 129)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        pairwise_cost_matrix(mu, nu, PathMetric.d_infinity, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n,m", [(6, 4), (3, 4), (3, 7), (2, 7)])
def test_wasserstein_unequal_counts_match_replicated_assignment(n, m, monkeypatch):
    # repeating each point lcm/n resp. lcm/m times turns the uniform-marginal
    # LP into an assignment with the same optimum.  Replication factors
    # (l/n)(l/m) of 6 and 12 (the bound) run that assignment; 21 and 14
    # reach HiGHS.
    takes_lp = (n, m) in {(3, 7), (2, 7)}
    calls = []
    real_lp = transport._transport_lp

    def lp(cost):
        assert takes_lp, "the LP ran where the replicated assignment should"
        calls.append(cost.shape)
        return real_lp(cost)

    monkeypatch.setattr(transport, "_transport_lp", lp)
    rng = np.random.default_rng(14)
    grid = TimeGrid(1.0, 8)
    mu = PathEnsemble(grid, rng.standard_normal((n, 9)))
    nu = PathEnsemble(grid, rng.standard_normal((m, 9)))
    l = np.lcm(n, m)
    for metric in PathMetric:
        for p in (1, 2):
            cost = pairwise_cost_matrix(mu, nu, metric, p)
            cost = np.repeat(np.repeat(cost, l // n, axis=0), l // m, axis=1)
            ri, ci = linear_sum_assignment(cost)
            oracle = cost[ri, ci].mean() ** (1.0 / p)
            w = wasserstein_empirical(mu, nu, p, metric)
            assert w == pytest.approx(oracle, rel=1e-12)
    assert calls == [(n, m)] * (4 if takes_lp else 0)


def test_equal_counts_are_one_plain_assignment():
    # l = n: no copy of the cost matrix, the value bit for bit
    rng = np.random.default_rng(18)
    grid = TimeGrid(1.0, 8)
    mu = PathEnsemble(grid, rng.standard_normal((9, 9)))
    nu = PathEnsemble(grid, rng.standard_normal((9, 9)))
    for metric in PathMetric:
        for p in (1, 2):
            cost = pairwise_cost_matrix(mu, nu, metric, p)
            ri, ci = linear_sum_assignment(cost)
            assert wasserstein_empirical(mu, nu, p, metric) == float(
                cost[ri, ci].mean() ** (1.0 / p))


def _quantile_cost(a, b, p):
    """Oracle: W_p^p between the uniform empirical laws of the reals a and
    b by the monotone (quantile) coupling, optimal for the convex cost
    |x - y|^p; the breakpoints k l/n and k l/m are integers, l = lcm."""
    n, m = len(a), len(b)
    l = np.lcm(n, m)
    t = np.union1d(np.arange(0, l + 1, l // n), np.arange(0, l + 1, l // m))
    lo = t[:-1]
    gap = np.abs(np.sort(a)[lo // (l // n)] - np.sort(b)[lo // (l // m)])
    return float(np.sum(np.diff(t) * gap**p) / l)


def test_wasserstein_large_factor_reaches_lp(monkeypatch):
    # 61 vs 67: l = 4087, factor 4087, far above the bound, so HiGHS runs.
    # Constant paths make both metrics |a - b| (T = 1), so W_p is the 1-d
    # quantile transport between the levels.
    calls = []
    real_lp = transport._transport_lp
    monkeypatch.setattr(transport, "_transport_lp",
                        lambda cost: calls.append(cost.shape) or real_lp(cost))
    rng = np.random.default_rng(19)
    grid = TimeGrid(1.0, 8)
    a, b = rng.standard_normal(61), 0.3 + 1.5 * rng.standard_normal(67)
    mu = PathEnsemble(grid, np.repeat(a[:, None], 9, axis=1))
    nu = PathEnsemble(grid, np.repeat(b[:, None], 9, axis=1))
    for metric in PathMetric:
        for p in (1, 2):
            w = wasserstein_empirical(mu, nu, p, metric)
            assert w == pytest.approx(_quantile_cost(a, b, p) ** (1.0 / p), rel=1e-9)
    assert calls == [(61, 67)] * 4


def test_cost_matrix_rejects_nonfinite():
    # a non-finite path or an overflowing cost is a numerical failure
    grid = TimeGrid(1.0, 4)
    bad = np.zeros((2, 5))
    bad[0, 2] = np.inf
    with pytest.raises(ArithmeticError, match="non-finite"):
        PathEnsemble(grid, bad)
    mu = PathEnsemble(grid, np.full((2, 5), 1e308))
    nu = PathEnsemble(grid, np.full((2, 5), -1e308))
    for metric in PathMetric:
        with pytest.raises(ArithmeticError, match="non-finite"):
            pairwise_cost_matrix(mu, nu, metric, 1)


@pytest.mark.parametrize("shape", [(0, 5), (0, 5, 2)])
def test_empty_ensemble_rejected(shape):
    # zero paths have no empirical law: rejected where the ensemble is built,
    # not by a ZeroDivisionError in the transport solvers
    with pytest.raises(ValueError, match="at least one path"):
        PathEnsemble(TimeGrid(1.0, 4), np.zeros(shape))


def test_c_bt_both_signs():
    assert c_bt(-1.0, 1.0) == pytest.approx(1.0 - np.exp(-1.0))
    assert c_bt(2.0, 0.5, sigma1=1.0) == pytest.approx((np.exp(3.0) - 1.0) / 3.0)
    with pytest.raises(ValueError):
        c_bt(0.0, 1.0)


def test_t1_constant_additive():
    K = calibrated_constants()["K_hat"]
    value, horizon = t1_constant(0.75, 0.5, 1.5, 1.0)  # ||sigma||_beta, L_b
    assert value == pytest.approx(K * 1.5 * 0.5**1.5)
    assert horizon == 0.5  # Delta = min(1, 1/(2 L_b)), boundary included
    assert 0.9 > t1_constant(0.75, 0.9, 1.5, 1.0)[1]


def _t1_scalar(H, T, sigma1, sigma2, L_b, L_sigma, B_sup):
    """t1_constant as the scalar model calls it."""
    drift = DriftSpec(lambda x: x, lipschitz=L_b, sup_bound=B_sup)
    sigma_x = ScalarDiffusion(lambda x: sigma2, sigma1, sigma2, lipschitz=L_sigma)
    return t1_constant(H, T, sigma2**2, lamperti_drift_lipschitz_bound(drift, sigma_x))


def test_t1_constant_scalar():
    # K_hat sigma2^2 T^{2H} up to the horizon
    # min(1, sigma1^2 / (2 sigma2 (L_b sigma2 + L_sigma B_sup)))
    K = calibrated_constants()["K_hat"]
    kw = dict(sigma1=1.0, sigma2=1.3, L_b=1.0, L_sigma=0.6, B_sup=1.0)
    expect = 1.0 / (2.0 * 1.3 * (1.0 * 1.3 + 0.6 * 1.0))  # 1/4.94 = 0.2024...
    value, horizon = _t1_scalar(0.75, 0.2, **kw)
    assert value == pytest.approx(K * 1.3**2 * 0.2**1.5, rel=1e-14)
    assert horizon == pytest.approx(expect, rel=1e-14)
    assert 0.2 <= horizon < 0.21
    # no Lipschitz constants: the horizon is 1, boundary included
    flat = dict(sigma1=0.5, sigma2=2.0, L_b=0.0, L_sigma=0.0, B_sup=3.0)
    value, horizon = _t1_scalar(0.9, 1.0, **flat)
    assert value == pytest.approx(K * 4.0, rel=1e-14)
    assert horizon == 1.0
    # a small sigma1 pulls the horizon below 1: 0.25 / (2 * 2 * (2 + 0)) = 1/32
    _, horizon = _t1_scalar(0.6, 1.0 / 32, sigma1=0.5, sigma2=2.0,
                            L_b=1.0, L_sigma=0.0, B_sup=3.0)
    assert horizon == 1.0 / 32


def test_t2_constant_d2_additive():
    # the additive model is sigma1 = 1, sigma2 = sup |sigma|, bit for bit
    value = t2_constant_d2(0.75, 1.0, -1.0, 1.0, 2.0)
    expect = 2.0 * 0.75 * 4.0 * (1.0 - np.exp(-1.0))
    assert value == pytest.approx(expect)
    assert value == (2.0 / (-1.0) ** 2) * 0.75 * 1.0 ** 0.5 * 2.0**2 * c_bt(-1.0, 1.0)


def test_t2_constant_scalar_dissipative():
    # for B < 0 the exponential factor saturates at 1
    value = t2_constant_dinf(0.75, 2.0, -0.5, 1.0, 1.3)
    expect = 2.0 * 1.0 * 1.3**2 / 0.5 * 0.75 * 2.0**0.5
    assert value == pytest.approx(expect)
    # d_2: 2 s1^2 s2^2 / B^2 * H T^{2H-1} * (1 - e^{BT/s1})
    value = t2_constant_d2(0.9, 1.0, -2.0, 0.8, 1.3)
    expect = 2.0 * 0.8**2 * 1.3**2 / 4.0 * 0.9 * 1.0**0.8 * (1.0 - np.exp(-2.0 / 0.8))
    assert value == pytest.approx(expect)


def test_constant_forms_require_parameters():
    for t2 in (t2_constant_dinf, t2_constant_d2):
        with pytest.raises(ValueError, match="B must be nonzero"):
            t2(0.75, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(TypeError):
            t2(0.75, 1.0, -1.0, 1.0)  # no sigma2
    with pytest.raises(TypeError):
        t1_constant(0.75, 0.5, 1.0)  # no lipschitz


def _lp_fails(*args, **kwargs):
    return SimpleNamespace(success=False, message="The problem is infeasible.")


def _sinkhorn_overflow():
    # potentials far above the costs overflow the Gibbs kernel to inf, and
    # the scalings become 0 and NaN: the level raises at its first check
    cost = np.zeros((3, 3))
    with np.errstate(all="ignore"):
        transport._sinkhorn_level(cost, np.full(3, 1e4), np.zeros(3), 1.0, np.empty_like(cost))


@pytest.mark.parametrize("call, error, message", [
    (lambda: PathEnsemble(TimeGrid(1.0, 4), np.zeros((3, 6))), ValueError,
     "are not on a grid of 5 nodes"),
    # 7 vs 11 paths: replication factor 77, so the LP runs
    (lambda: wasserstein_empirical(PathEnsemble(TimeGrid(1.0, 4), np.zeros((7, 5))),
                                   PathEnsemble(TimeGrid(1.0, 4), np.ones((11, 5))),
                                   2, PathMetric.d_infinity), ArithmeticError,
     "transport LP failed: The problem is infeasible"),
    (_sinkhorn_overflow, ArithmeticError, "Sinkhorn scalings overflow"),
], ids=["ensemble-off-grid", "lp-failure", "sinkhorn-overflow"])
def test_guards_fail_closed(monkeypatch, call, error, message):
    monkeypatch.setattr(transport.optimize, "linprog", _lp_fails)
    with pytest.raises(error, match=message):
        call()
