"""fBm generator tests: covariance, kernels, determinism, agreement."""

import numpy as np
import pytest
from scipy import stats

from fbmlab import fbm
from fbmlab.fbm import (
    CIRCULANT_EIG_TOL,
    HurstParam,
    covariance_matrix,
    covariance_rh,
    kernel_kh,
    kernel_kh_fast,
    kernel_kh_partial,
    kernel_normalization,
    sample_fbm_cholesky,
    sample_fbm_circulant,
    sample_fbm_circulant_batch,
    sample_fbm_transfer,
    transfer_from_wiener_increments,
    transfer_kernel_matrix,
)
from fbmlab.grid import TimeGrid

H75 = HurstParam(0.75)

# frozen oracle values (quadrature route, cross-checked against the
# hypergeometric closed form to ~4e-16)
KERNEL_KH_1_025 = 1.0982815801571657
KERNEL_PARTIAL_1_05 = 0.5348223175159952  # FD of kernel_kh in t agrees to 5e-11


def test_hurst_param_domain():
    with pytest.raises(ValueError):
        HurstParam(0.5)
    with pytest.raises(ValueError):
        HurstParam(1.0)
    assert HurstParam(0.75).h == 0.75


def test_covariance_rh_values():
    # R_H(t, t) = t^{2H}; symmetric in (s, t)
    assert covariance_rh(0.5, 0.5, H75) == pytest.approx(0.5**1.5)
    assert covariance_rh(0.25, 0.75, H75) == covariance_rh(0.75, 0.25, H75)
    s, t = 0.3, 0.8
    expect = 0.5 * (t**1.5 + s**1.5 - (t - s) ** 1.5)
    assert covariance_rh(s, t, H75) == pytest.approx(expect)


def test_covariance_matrix_psd():
    for h in (0.55, 0.75, 0.9):
        grid = TimeGrid(1.0, 32)
        cov = covariance_matrix(grid, HurstParam(h))
        np.linalg.cholesky(cov + 1e-14 * np.eye(32))


def test_kernel_kh_frozen_oracle():
    assert kernel_kh(1.0, 0.25, H75) == pytest.approx(KERNEL_KH_1_025, rel=1e-12)


def test_kernel_fast_matches_quadrature():
    for t, s, h in [(1.0, 0.25, 0.75), (0.7, 0.3, 0.6), (2.0, 1.5, 0.9)]:
        hp = HurstParam(h)
        assert kernel_kh_fast(t, s, hp) == pytest.approx(
            kernel_kh(t, s, hp), rel=1e-10)


def test_kernel_domain():
    assert kernel_kh(0.5, 0.7, H75) == 0.0  # s >= t
    with pytest.raises(ValueError):
        kernel_kh(1.0, 0.0, H75)
    with pytest.raises(ValueError):
        kernel_kh(1.0, -0.1, H75)


def test_kernel_partial_frozen_oracle():
    assert kernel_kh_partial(1.0, 0.5, H75) == pytest.approx(
        KERNEL_PARTIAL_1_05, rel=1e-9)


def test_kernel_partial_divergence_floor():
    # (u - s)^{H - 3/2} diverges as u drops to s; gaps below the documented
    # floor are refused instead of returning astronomically large values
    with pytest.raises(ValueError):
        kernel_kh_partial(0.5 + 1e-13, 0.5, H75)
    near = kernel_kh_partial(0.5 + 1e-11, 0.5, H75)
    ref = kernel_kh_partial(0.5 + 1e-6, 0.5, H75)
    assert np.isfinite(near) and near >= ref > 0


def test_kernel_normalization_value():
    from scipy.special import beta as beta_fn
    h = 0.75
    expect = np.sqrt(h * (2 * h - 1) / beta_fn(2 - 2 * h, h - 0.5))
    assert kernel_normalization(H75) == pytest.approx(expect)


def test_seed_determinism_bit_identical():
    grid = TimeGrid(1.0, 64)
    for sampler in (sample_fbm_cholesky, sample_fbm_circulant):
        a = sampler(grid, H75, 2, seed=3)
        b = sampler(grid, H75, 2, seed=3)
        assert np.array_equal(a.values, b.values)
    a, wa = sample_fbm_transfer(grid, H75, 1, seed=3)
    b, wb = sample_fbm_transfer(grid, H75, 1, seed=3)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(wa, wb)


def test_distinct_seeds_differ():
    grid = TimeGrid(1.0, 64)
    a = sample_fbm_circulant(grid, H75, 1, seed=3)
    b = sample_fbm_circulant(grid, H75, 1, seed=4)
    assert not np.array_equal(a.values, b.values)


def test_batch_matches_single_paths():
    grid = TimeGrid(1.0, 32)
    batch = sample_fbm_circulant_batch(grid, H75, 4, seed=11)
    for i in range(4):
        single = sample_fbm_circulant(grid, H75, 1, seed=11, path_index=i)
        assert np.array_equal(batch[i], single.values[:, 0])


@pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 600])
def test_batch_bit_identical_to_single_across_block_seams(n_paths):
    grid = TimeGrid(0.7, 24)
    batch = sample_fbm_circulant_batch(grid, H75, n_paths, seed=5, component=1)
    assert batch.shape == (n_paths, 25)
    for i in range(n_paths):
        single = sample_fbm_circulant(grid, H75, 2, seed=5, path_index=i)
        assert np.array_equal(batch[i], single.values[:, 1])


@pytest.mark.parametrize("h", [0.501, 0.6, 0.75, 0.9, 0.999])
def test_circulant_embedding_nonnegative_for_h_above_half(h):
    for n in (1, 2, 3, 17, 256, 4096):
        assert fbm._fgn_circulant_eigs(n, h, 1.0 / n).min() > 0.0


def test_circulant_embedding_failure_raises(monkeypatch):
    def broken_eigs(n, hurst, dt):
        eigs = np.ones(2 * n)
        eigs[3] = 100 * CIRCULANT_EIG_TOL
        return eigs

    monkeypatch.setattr(fbm, "_fgn_circulant_eigs", broken_eigs)
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ArithmeticError, match="circulant embedding"):
        sample_fbm_circulant(grid, H75, 1, seed=0)
    with pytest.raises(ArithmeticError, match="circulant embedding"):
        sample_fbm_circulant_batch(grid, H75, 3, seed=0)


def test_paths_start_at_zero_and_finite():
    grid = TimeGrid(1.0, 64)
    p = sample_fbm_circulant(grid, H75, 3, seed=0)
    assert np.all(p.values[0] == 0.0)
    assert np.all(np.isfinite(p.values))
    assert p.values.shape == (65, 3)


def test_generator_agreement_ks():
    # terminal values of Cholesky and circulant ensembles follow one law
    grid = TimeGrid(1.0, 32)
    n = 400
    chol = np.array([
        sample_fbm_cholesky(grid, H75, 1, seed=5, path_index=i).values[-1, 0]
        for i in range(n)
    ])
    circ = sample_fbm_circulant_batch(grid, H75, n, seed=6)[:, -1]
    _, p_value = stats.ks_2samp(chol, circ)
    assert p_value > 1e-3
    # both match the exact N(0, T^{2H}) law
    _, p_norm = stats.kstest(chol, "norm", args=(0.0, 1.0))
    assert p_norm > 1e-3


def test_transfer_variance_bias_below_5pct():
    grid = TimeGrid(1.0, 256)
    n = 2000
    term = np.array([
        sample_fbm_transfer(grid, H75, 1, seed=8, path_index=i)[0].values[-1, 0]
        for i in range(n)
    ])
    v = term.var()
    assert abs(v - 1.0) < 0.05 + 3 * np.sqrt(2.0 / n)


def test_transfer_from_wiener_reproduces_path():
    grid = TimeGrid(1.0, 64)
    path, wiener = sample_fbm_transfer(grid, H75, 1, seed=9)
    kern = transfer_kernel_matrix(grid, H75)
    dw = np.diff(wiener[:, 0])[:, None]
    rebuilt = transfer_from_wiener_increments(kern, dw)
    np.testing.assert_allclose(rebuilt[:, 0], path.values[:, 0], atol=1e-12)


def test_components_independent():
    grid = TimeGrid(1.0, 64)
    n = 500
    vals = np.array([
        sample_fbm_circulant(grid, H75, 2, seed=14, path_index=i).values[-1]
        for i in range(n)
    ])
    corr = np.corrcoef(vals[:, 0], vals[:, 1])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(n)
