"""Concentration verifiers: oracles, confidence machinery, guards."""

import numpy as np
import pytest
from scipy.special import digamma, factorial

from fbmlab.concentration import (
    LipschitzFunctional,
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
from fbmlab.grid import TimeGrid
from fbmlab.transport import PathEnsemble, PathMetric


def test_t1_constant_two_point_oracle():
    # constant distance a: terms (k! a^{2k} / (2k)!)^{1/k} peak at k = 1,
    # so the estimate is exactly a^2
    for a in (0.5, 1.5, 3.0):
        d = np.full(100, a)
        assert estimate_t1_constant(d) == pytest.approx(a**2)
    # verify the k-term formula against a direct evaluation at k = 3
    d = np.abs(np.random.default_rng(0).standard_normal(500))
    est = estimate_t1_constant(d, k_max=3)
    terms = [
        (factorial(k) * np.mean(d ** (2 * k)) / factorial(2 * k)) ** (1.0 / k)
        for k in (1, 2, 3)
    ]
    assert est == pytest.approx(2.0 * max(terms))


def test_t1_constant_caps_k():
    with pytest.raises(ValueError):
        estimate_t1_constant(np.ones(10), k_max=12)


def test_t1_jackknife_errors_positive():
    d = np.random.default_rng(1).rayleigh(1.0, 400)
    est, errs = estimate_t1_constant(d, k_max=3, with_errors=True)
    assert est > 0
    assert set(errs) == {1, 2, 3}
    assert all(e > 0 for e in errs.values())


def test_clopper_pearson_known_values():
    # 0 successes of n: upper bound 1 - (1 - conf)^{1/n}
    n = 100
    ub = clopper_pearson_upper(np.array([0]), n, 0.99)[0]
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


def test_lipschitz_functional_constants():
    f = LipschitzFunctional("time_average", alpha=2.0)
    assert f.lip_constant(PathMetric.d_infinity, 4.0) == 2.0
    assert f.lip_constant(PathMetric.d_two, 4.0) == 1.0
    s = LipschitzFunctional("sup_displacement")
    assert s.lip_constant(PathMetric.d_infinity, 4.0) == 1.0
    with pytest.raises(ValueError):
        s.lip_constant(PathMetric.d_two, 4.0)


def test_fernique_bound_value_at_reference():
    # k = 1 at (H, beta, T) = (0.75, 0.6, 0.5): 32 * 1^{0.3} * 2 = 64
    assert fernique_moment_bound(1, 0.75, 0.6, 0.5) == pytest.approx(64.0)


def test_fernique_premise_guards():
    with pytest.raises(ValueError):
        verify_fernique(0.6, 0.75, 1.0, 100)  # beta > H
    with pytest.raises(ValueError):
        verify_fernique(0.75, 0.4, 1.0, 100)  # beta <= 1/2
    radius = fernique_exponent_radius(0.75, 0.6, 1.0)
    with pytest.raises(ValueError):
        verify_fernique(0.75, 0.6, 1.0, 100, alpha=radius)  # at the radius


def test_fernique_small_run_passes():
    rep = verify_fernique(0.75, 0.6, 0.5, n_samples=2000, n_steps=128, seed=5)
    assert rep.all_passed
    assert rep.exp_bound == pytest.approx(
        (1.0 - 128.0 * rep.exp_alpha) ** -0.5)  # (2T)^{2(H-beta)} = 1 here


def test_grr_modulus_exact_on_grid():
    grid = TimeGrid(1.0, 128)
    paths = sample_fbm_circulant_batch(grid, HurstParam(0.75), 3, seed=9)
    for i in range(3):
        xi = grr_xi(paths[i], grid, 0.75, 0.6)
        assert xi > 0
        assert grr_modulus_holds(paths[i], grid, 0.75, 0.6, xi)


def test_grr_modulus_fails_for_tiny_xi():
    grid = TimeGrid(1.0, 128)
    path = sample_fbm_circulant_batch(grid, HurstParam(0.75), 1, seed=9)[0]
    assert not grr_modulus_holds(path, grid, 0.75, 0.6, xi=1e-6)


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


def test_digamma_identity():
    assert digamma(2.0) - digamma(3.0) == pytest.approx(-0.5, abs=1e-12)


def test_hoeffding_small_time_guards():
    with pytest.raises(ValueError):
        verify_hoeffding_small_time(H=0.75, T=2.0, n_paths=10, n_steps=8, seed=0)


def test_hoeffding_large_time_guards():
    with pytest.raises(ValueError):
        verify_hoeffding_large_time(H=0.75, T=2.0, n_paths=10, n_steps=8,
                                    seed=0, B=0.5)


@pytest.mark.parametrize("H,T,B,sigmas", [(0.75, 2.0, -1.0, None),
                                            (0.6, 4.0, -0.3, None),
                                            (0.9, 1.0, -2.0, (0.8, 1.3))])
def test_hoeffding_large_time_denominators_closed_form(H, T, B, sigmas):
    # the T2 constants in closed form, written out apart from transport_constant
    if sigmas is None:
        c_inf = (2.0 / abs(B)) * H * T ** (2 * H - 1) * 1.0**2
        c_two = (2.0 / B**2) * H * T ** (2 * H - 1) * 1.0**2 * (1.0 - np.exp(B * T))
    else:
        s1, s2 = sigmas
        c_inf = (2.0 * s1 * s2**2 / abs(B)) * H * T ** (2 * H - 1)
        c_two = (2.0 * s1**2 * s2**2 / B**2) * H * T ** (2 * H - 1) \
            * (1.0 - np.exp(B * T / s1))
    rep_inf, rep_two = verify_hoeffding_large_time(
        H=H, T=T, n_paths=50, n_steps=8, seed=3, B=B, scalar_sigma_bounds=sigmas)
    assert rep_inf.notes["denominator"] == 2.0 * c_inf * 1.0**2
    assert rep_two.notes["denominator"] == 2.0 * c_two * (1.0 / np.sqrt(T))**2


def test_tail_report_monotone_invariants():
    rep_avg, rep_sup = verify_hoeffding_small_time(
        H=0.75, T=0.5, n_paths=4000, n_steps=64, seed=77)
    for rep in (rep_avg, rep_sup):
        assert np.all(np.diff(rep.empirical_tail) <= 0)
        assert np.all(np.diff(rep.paper_bound) <= 0)
        assert np.all(np.isfinite(rep.empirical_tail))
        assert rep.n_samples == 4000
