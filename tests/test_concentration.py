"""Concentration verifiers: oracles, confidence machinery, guards."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import digamma, factorial

from fbmlab import concentration, fbm
from fbmlab.concentration import (
    clopper_pearson_upper,
    estimate_t1_constant,
    fernique_exponent_radius,
    fernique_moment_bound,
    gaussian_tail_c_delta,
    grr_modulus_holds,
    grr_xi,
    pair_distances,
    phi_argmax,
    phi_derivative_sign,
    phi_link,
    verify_fernique,
    verify_hoeffding_large_time,
    verify_hoeffding_small_time,
)
from fbmlab.fbm import HurstParam, sample_fbm_circulant_batch
from fbmlab.grid import BLOCK_PATHS, TimeGrid
from fbmlab.transport import PathEnsemble, PathMetric


def test_t1_constant_two_point_oracle():
    # constant distance a: terms (k! a^{2k} / (2k)!)^{1/k} peak at k = 1,
    # so the estimate is exactly a^2
    for a in (0.5, 1.5, 3.0):
        d = np.full(100, a)
        assert estimate_t1_constant(d)[0] == pytest.approx(a**2)
    # verify the k-term formula against a direct evaluation at k = 1..4
    d = np.abs(np.random.default_rng(0).standard_normal(500))
    est = estimate_t1_constant(d)[0]
    terms = [
        (factorial(k) * np.mean(d ** (2 * k)) / factorial(2 * k)) ** (1.0 / k)
        for k in (1, 2, 3, 4)
    ]
    assert est == pytest.approx(2.0 * max(terms))


def test_t1_jackknife_errors_positive():
    d = np.random.default_rng(1).rayleigh(1.0, 400)
    est, errs = estimate_t1_constant(d)
    assert est > 0
    assert set(errs) == {1, 2, 3, 4}
    assert all(e > 0 for e in errs.values())


@pytest.mark.parametrize("n", [0, 1])
def test_t1_constant_needs_two_distances(n):
    # the leave-one-out moments divide by n - 1
    with pytest.raises(ValueError, match="at least 2 distances"):
        estimate_t1_constant(np.ones(n))


def test_clopper_pearson_known_values():
    # 0 successes of n: upper bound 1 - (1 - conf)^{1/n}
    n = 100
    ub = clopper_pearson_upper(np.array([0]), n)[0]  # 0.99 confidence
    assert ub == pytest.approx(1.0 - 0.01 ** (1.0 / n), rel=1e-9)
    assert clopper_pearson_upper(np.array([n]), n)[0] == 1.0
    # monotone in the count
    ubs = clopper_pearson_upper(np.array([0, 5, 20]), n)
    assert np.all(np.diff(ubs) > 0)


def test_gaussian_tail_diagnostics():
    d = np.random.default_rng(2).normal(0.0, 0.3, 2000)
    diag = gaussian_tail_c_delta(d, 0.5)
    # E exp(delta d^2) for centered normal: (1 - 2 delta s^2)^{-1/2}
    exact = (1.0 - 2.0 * 0.5 * 0.09) ** -0.5
    assert diag["c_delta"] == pytest.approx(exact, rel=0.02)
    assert not diag["unstable"]
    with pytest.raises(ValueError):
        gaussian_tail_c_delta(d, 0.0)


def test_gaussian_tail_flags_saturation():
    d = np.array([1.0] * 99 + [100.0])
    diag = gaussian_tail_c_delta(d, 1.0)
    assert diag["unstable"]
    assert diag["saturation_fraction"] > 0


def test_pair_distances_requires_equal_sizes():
    grid = TimeGrid(1.0, 4)
    mu = PathEnsemble(grid, np.zeros((3, 5)))
    nu = PathEnsemble(grid, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        pair_distances(mu, nu, PathMetric.d_infinity)


def test_pair_distances_requires_one_grid_and_one_state_dimension():
    # a 1-component ensemble against a 3-component one used to broadcast
    grid = TimeGrid(1.0, 4)
    mu = PathEnsemble(grid, np.zeros((2, 5)))
    for nu in (PathEnsemble(grid, np.zeros((2, 5, 3))),
               PathEnsemble(TimeGrid(2.0, 4), np.zeros((2, 5)))):
        for metric in PathMetric:
            with pytest.raises(ValueError, match=r"\(2, 5, 1\) .* and \(2, 5, \d\)"):
                pair_distances(mu, nu, metric)


def test_fernique_bound_value_at_reference():
    # k = 1 at (H, beta, T) = (0.75, 0.6, 0.5): 32 * 1^{0.3} * 2 = 64
    assert fernique_moment_bound(1, 0.75, 0.6, 0.5) == pytest.approx(64.0)


def test_fernique_premise_guards():
    with pytest.raises(ValueError):
        verify_fernique(0.6, 0.75, 1.0, 100)  # beta > H
    with pytest.raises(ValueError):
        verify_fernique(0.75, 0.4, 1.0, 100)  # beta <= 1/2


def test_fernique_small_run_passes():
    rep = verify_fernique(0.75, 0.6, 0.5, n_samples=2000, n_steps=128, seed=5)
    assert rep["passed"]
    assert rep["exp_alpha"] == 0.5 * fernique_exponent_radius(0.75, 0.6, 0.5)
    assert rep["exp_bound"] == pytest.approx(
        (1.0 - 128.0 * rep["exp_alpha"]) ** -0.5)  # (2T)^{2(H-beta)} = 1 here


def test_grr_modulus_exact_on_grid():
    grid = TimeGrid(1.0, 128)
    paths = sample_fbm_circulant_batch(grid, HurstParam(0.75), 3, seed=9)
    for i in range(3):
        xi = grr_xi(paths[i], grid, 0.75, 0.6)
        assert xi > 0
        assert grr_modulus_holds(paths[i], grid, 0.6, xi)


def test_grr_modulus_fails_for_tiny_xi():
    grid = TimeGrid(1.0, 128)
    path = sample_fbm_circulant_batch(grid, HurstParam(0.75), 1, seed=9)[0]
    assert not grr_modulus_holds(path, grid, 0.6, xi=1e-6)


def grr_xi_per_lag(v, grid, H, beta):
    """Oracle: xi_beta from the double Riemann sum accumulated one lag at a
    time, |t-s| = lag dt appearing 2 (n + 1 - lag) times."""
    dt = grid.dt
    q = 2.0 / (H - beta)
    delta = 0.0
    for lag in range(1, grid.n_steps + 1):
        dv = np.abs(v[lag:] - v[:-lag])
        delta += 2.0 * np.sum(dv**q) / (lag * dt) ** (q * H) * dt * dt
    return float(8.0 * (4.0 * delta) ** ((H - beta) / 2.0))


def test_grr_ensemble_matches_per_path_and_per_lag_oracle():
    # 300 paths span two blocks of the lag reduction; only the order of the
    # sums differs between the three routes, so they agree to a few ulps
    grid = TimeGrid(0.5, 64)
    paths = sample_fbm_circulant_batch(grid, HurstParam(0.7), 300, seed=11)
    xi = grr_xi(paths, grid, 0.7, 0.55)
    assert xi.shape == (300,)
    per_path = np.array([grr_xi(p, grid, 0.7, 0.55) for p in paths])
    oracle = np.array([grr_xi_per_lag(p, grid, 0.7, 0.55) for p in paths])
    np.testing.assert_allclose(xi, per_path, rtol=1e-14, atol=0)
    np.testing.assert_allclose(xi, oracle, rtol=1e-14, atol=0)
    holds = grr_modulus_holds(paths, grid, 0.55, xi)
    assert holds.shape == (300,) and holds.all()
    scaled = xi * np.where(np.arange(300) % 2 == 0, 1.0, 1e-6)
    np.testing.assert_array_equal(grr_modulus_holds(paths, grid, 0.55, scaled),
                                  np.arange(300) % 2 == 0)


def test_grr_premise_guard():
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ValueError):
        grr_xi(np.zeros(17), grid, 0.6, 0.75)


def test_phi_link_values():
    # Phi(1) = C Gamma(2)^2 / Gamma(3) = C / 2
    for c in (1.0, 2.0, 10.0):
        assert phi_link(1.0, c) == pytest.approx(c / 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        phi_link(0.5, 2.0)
    with pytest.raises(ValueError):
        phi_link(1.0, 0.5)


def test_phi_derivative_sign_closed_form_at_one():
    # h(1) = -ln(C/2) + 2 (psi(2) - psi(3)) = -ln(C/2) - 1
    for c in (1.0, 4.0):
        assert phi_derivative_sign(1.0, c) == pytest.approx(
            -np.log(c / 2.0) - 1.0, rel=1e-12)


def test_phi_argmax_at_one():
    for c in (1.0, 2.0, 10.0, 1e6):
        assert phi_argmax(c) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("h", [1e-3, np.nan])
def test_phi_argmax_fails_closed_on_positive_sign(monkeypatch, h):
    # the proof gives h < 0; a sweep that finds otherwise is a numerical
    # error, not a swept maximiser
    monkeypatch.setattr(concentration, "phi_derivative_sign",
                        lambda x, c: h if x > 8.0 else -1.0)
    with pytest.raises(ArithmeticError, match="sign sweep"):
        phi_argmax(2.0)


def test_digamma_identity():
    assert digamma(2.0) - digamma(3.0) == pytest.approx(-0.5, abs=1e-12)


def test_hoeffding_small_time_guards():
    # the window is T <= stability_horizon(0) = 1, boundary included
    verify_hoeffding_small_time(H=0.75, T=1.0, n_paths=10, n_steps=8, seed=0)
    for T in (1.0 + 1e-9, 2.0):
        with pytest.raises(ValueError):
            verify_hoeffding_small_time(H=0.75, T=T, n_paths=10, n_steps=8, seed=0)


def test_hoeffding_large_time_guards():
    with pytest.raises(ValueError):
        verify_hoeffding_large_time(H=0.75, T=2.0, n_paths=10, n_steps=8,
                                    seed=0, B=0.5)


@pytest.mark.parametrize("H,T,B", [(0.75, 2.0, -1.0), (0.6, 4.0, -0.3)],
                         ids=["0.75-2.0--1.0-None", "0.6-4.0--0.3-None"])
def test_hoeffding_large_time_denominators_closed_form(H, T, B):
    # the T2 constants in closed form, written out apart from fbmlab.transport
    c_inf = (2.0 / abs(B)) * H * T ** (2 * H - 1) * 1.0**2
    c_two = (2.0 / B**2) * H * T ** (2 * H - 1) * 1.0**2 * (1.0 - np.exp(B * T))
    rep_inf, rep_two = verify_hoeffding_large_time(
        H=H, T=T, n_paths=50, n_steps=8, seed=3, B=B)
    assert rep_inf["notes"]["denominator"] == 2.0 * c_inf * 1.0**2
    assert rep_two["notes"]["denominator"] == 2.0 * c_two * (1.0 / np.sqrt(T))**2


def test_tail_report_monotone_invariants():
    rep_avg, rep_sup = verify_hoeffding_small_time(
        H=0.75, T=0.5, n_paths=4000, n_steps=64, seed=77)
    for rep in (rep_avg, rep_sup):
        assert np.all(np.diff(rep["empirical_tail"]) <= 0)
        assert np.all(np.diff(rep["bound"]) <= 0)
        assert np.all(np.isfinite(rep["empirical_tail"]))
        assert rep["n_samples"] == 4000


@pytest.mark.parametrize("notes, named", [
    ({"functional": "sup_displacement"}, "sup_displacement under d_infinity"),
    ({"functional": "time_average", "metric": "d_two"}, "time_average under d_two"),
])
def test_tail_report_without_thresholds_fails_closed(notes, named):
    # equal samples leave no centred quantile above 0: the record would
    # pass with no threshold checked
    with pytest.raises(ArithmeticError, match=f"tail check of {named} has an empty r-grid"):
        concentration._tail_report(np.full(50, 2.0), 1.0, notes)


def _tail_record(r, tail):
    return {"r_grid": r, "empirical_tail": tail}


@pytest.mark.parametrize("record, message", [
    (_tail_record([0.5, 1.0], [0.0, 0.0]), "constant inf from 0 points"),
    (_tail_record([], []), "constant inf from 0 points"),
    (_tail_record([0.5, 1.0], [1.0, 1.0]), "constant inf from 2 points"),
], ids=["zero-tails", "empty-grid", "unit-tails"])
def test_tail_constant_fit_fails_closed(record, message):
    # a horizon with nothing to fit names itself, not a 0/0 downstream
    good = _tail_record([0.5, 1.0, 1.5], [0.3, 0.1, 0.02])
    with pytest.raises(ArithmeticError, match=f"horizon T=2.0: {message}"):
        concentration.tail_constant_scaling({1.0: good, 2.0: record, 4.0: good})


CAMPAIGNS = {
    "fernique": lambda n: verify_fernique(0.75, 0.6, 1.0, n, n_steps=64, seed=5),
    "hoeffding-small": lambda n: verify_hoeffding_small_time(0.75, 1.0, n, 64, seed=5),
    "hoeffding-large": lambda n: verify_hoeffding_large_time(0.75, 2.0, n, 64, seed=5),
}


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_campaign_statistic_chunked_equals_whole_batch(monkeypatch, campaign):
    # the statistics each campaign streams, applied task by task (a full
    # block and a ragged one, on the caller or a helper thread, so drawn in
    # either order) and to the whole batch at once
    drawn, wholes = [], []
    real_rows, real_pass = fbm._circulant_rows, concentration.shared_pass

    def rows(grid, h, seed, paths, component=0):
        drawn.append(len(paths))
        return real_rows(grid, h, seed, paths, component)

    def shared_pass(shares):
        [share] = shares
        batch = sample_fbm_circulant_batch(share.grid, share.hp, share.n, *share.seeds)
        wholes.append([stat(batch) for stat in share.reads.values()])
        return real_pass([share._replace(finish=lambda *values: values)])

    monkeypatch.setattr(fbm, "_circulant_rows", rows)
    monkeypatch.setattr(concentration, "shared_pass", shared_pass)
    n = BLOCK_PATHS + 37
    streamed = CAMPAIGNS[campaign](n)
    assert Counter(drawn) == Counter([n, BLOCK_PATHS, 37])  # the whole batch and two tasks
    [whole] = wholes
    assert len(streamed) == len(whole)
    assert all(np.array_equal(s, w) for s, w in zip(streamed, whole))


#: Paths of the memory tests' unit: 4 MiB of (CHUNK, 257) float64 paths
CHUNK = 2048


def test_workers_are_at_most_the_two_the_memory_tests_pin():
    # each worker adds a task in flight (and a malloc arena) to a pass's
    # peak; the memory tests run the cap, two workers, on any machine
    assert 1 <= concentration.WORKERS <= 2


def test_lone_read_pass_memory_below_two_chunks(workers):
    # one seed and one statistic: each task's paths are released when it
    # returns and at most one task runs per worker, so far less than two
    # chunks of paths are ever live
    workers(2)
    n, n_steps = 4 * CHUNK, 256
    verify_fernique(0.75, 0.6, 1.0, 16, n_steps, seed=1)  # per-grid arrays
    tracemalloc.start()
    try:
        verify_fernique(0.75, 0.6, 1.0, n, n_steps, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * CHUNK * (n_steps + 1) * 8


def test_large_time_campaign_memory_below_one_ensemble(workers):
    # four chunks of paths: the streamed campaign never holds an
    # (n_paths, n_nodes) ensemble
    workers(2)
    n, n_steps = 4 * CHUNK, 256
    verify_hoeffding_large_time(0.75, 2.0, 16, n_steps, seed=1)  # per-grid arrays
    tracemalloc.start()
    try:
        verify_hoeffding_large_time(0.75, 2.0, n, n_steps, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * (n_steps + 1) * 8
