"""fBm generator tests: covariance, kernels, determinism, agreement."""

import numpy as np
import pytest
from scipy import integrate, stats

from fbmlab import fbm
from fbmlab.fbm import (
    CIRCULANT_EIG_TOL,
    DENSE_MAX_STEPS,
    HurstParam,
    cholesky_factor,
    covariance_matrix,
    covariance_rh,
    kernel_kh_fast,
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

# frozen oracle value (quadrature route, cross-checked against the
# hypergeometric closed form to ~4e-16)
KERNEL_KH_1_025 = 1.0982815801571657


def kernel_kh_quad(t, s, h):
    """K(t, s) = c_H s^{1/2-H} int_s^t (u-s)^{H-3/2} u^{H-1/2} du, 0 < s < t,
    by adaptive quadrature: the oracle of the closed form kernel_kh_fast.

    The endpoint singularity at u = s (exponent H - 3/2 in (-1, -1/2)) is
    removed by the substitution u = s + w^{1/(H-1/2)}, after which the
    integrand (s + w^{1/(H-1/2)})^{H-1/2} / (H-1/2) is smooth.
    """
    gamma = h.h - 0.5
    val, err = integrate.quad(lambda w: (s + w ** (1.0 / gamma)) ** gamma / gamma,
                              0.0, (t - s) ** gamma, epsabs=0.0, epsrel=1e-12, limit=200)
    assert abs(err) <= 1e-8 * max(abs(val), 1.0)
    return kernel_normalization(h) * s ** (0.5 - h.h) * val


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


def test_covariance_matrix_is_bit_identical_to_the_meshgrid_formula():
    # covariance_matrix evaluates covariance_rh on the grid, bit for bit the
    # formula written out on a meshgrid
    for h in (0.6, 0.75, 0.9):
        grid = TimeGrid(1.0, 64)
        s, u = np.meshgrid(grid.points[1:], grid.points[1:], indexing="ij")
        expect = 0.5 * (s**(2 * h) + u**(2 * h) - np.abs(s - u) ** (2 * h))
        assert np.array_equal(covariance_matrix(grid, HurstParam(h)), expect)


def test_covariance_matrix_psd():
    for h in (0.55, 0.75, 0.9):
        grid = TimeGrid(1.0, 32)
        cov = covariance_matrix(grid, HurstParam(h))
        np.linalg.cholesky(cov + 1e-14 * np.eye(32))


def test_kernel_kh_frozen_oracle():
    assert kernel_kh_quad(1.0, 0.25, H75) == pytest.approx(KERNEL_KH_1_025, rel=1e-12)
    assert kernel_kh_fast(1.0, 0.25, H75) == pytest.approx(KERNEL_KH_1_025, rel=1e-12)


def test_kernel_fast_matches_quadrature():
    for t, s, h in [(1.0, 0.25, 0.75), (0.7, 0.3, 0.6), (2.0, 1.5, 0.9)]:
        hp = HurstParam(h)
        assert kernel_kh_fast(t, s, hp) == pytest.approx(
            kernel_kh_quad(t, s, hp), rel=1e-10)


def test_kernel_domain():
    assert kernel_kh_fast(0.5, 0.7, H75) == 0.0  # s >= t
    assert kernel_kh_fast(0.5, 0.5, H75) == 0.0
    with pytest.raises(ValueError):
        kernel_kh_fast(1.0, 0.0, H75)
    with pytest.raises(ValueError):
        kernel_kh_fast(1.0, -0.1, H75)


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


def _full_spectrum_rows(grid, h, seed, keys):
    """Oracle: the paths of `fbm._circulant_rows` through the full Hermitian
    vector (z_0, z_1, ..., z_n, conj z_{n-1}, ..., conj z_1) and a complex
    FFT of width 2n, from the same 2n normals per path."""
    n = grid.n_steps
    lam = np.sqrt(np.clip(fbm._fgn_circulant_eigs(n, h.h, grid.dt), 0.0, None) / (2 * n))
    d = np.array([fbm.component_rng(seed, i, c).standard_normal(2 * n) for i, c in keys])
    z = np.empty(d.shape, dtype=complex)
    z[:, 0] = d[:, 0]
    z[:, n] = d[:, 1]
    z[:, 1:n] = (d[:, 2:n + 1] + 1j * d[:, n + 1:]) / np.sqrt(2.0)
    z[:, n + 1:] = np.conj(z[:, n - 1:0:-1])
    out = np.zeros((len(keys), n + 1))
    out[:, 1:] = np.cumsum(np.fft.fft(z * lam, axis=1).real[:, :n], axis=1)
    return out


def _hfft_rows(grid, h, seed, keys):
    """The sampler's formula as written: cumsum of np.fft.hfft(half, 2n)."""
    n = grid.n_steps
    lam = np.sqrt(np.clip(fbm._fgn_circulant_eigs(n, h.h, grid.dt)[:n + 1], 0.0, None) / (2 * n))
    lam[1:n] /= np.sqrt(2.0)
    d = np.array([fbm.component_rng(seed, i, c).standard_normal(2 * n) for i, c in keys])
    half = np.zeros((len(keys), n + 1), dtype=complex)
    half.real[:, 0], half.real[:, n] = d[:, 0], d[:, 1]
    half.real[:, 1:n], half.imag[:, 1:n] = d[:, 2:n + 1], d[:, n + 1:]
    out = np.zeros((len(keys), n + 1))
    out[:, 1:] = np.cumsum(np.fft.hfft(half * lam, n=2 * n, axis=1)[:, :n], axis=1)
    return out


@pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 200, 256])
def test_half_spectrum_rows_match_full_hermitian_fft(n, h):
    # the real transform of the n + 1 half spectrum is the full complex FFT
    # of the Hermitian vector up to rounding (relative to the largest |value|
    # of the rows: a row that nearly returns to 0 has no scale of its own),
    # and np.fft.hfft of the half spectrum bit for bit
    paths, components = [0, 1, 7, 300], (0, 2)
    keys = [(i, c) for c in components for i in paths]
    for t_max in (0.5, 1.0, 4.0):
        grid, hp = TimeGrid(t_max, n), HurstParam(h)
        rows = np.vstack([fbm._circulant_rows(grid, hp, 17, paths, c) for c in components])
        oracle = _full_spectrum_rows(grid, hp, 17, keys)
        assert rows.shape == oracle.shape == (len(keys), n + 1)
        assert np.all(rows[:, 0] == 0.0)
        err = np.abs(rows - oracle).max()
        assert err <= 2e-15 * np.abs(oracle).max(), (t_max, err)
        assert np.array_equal(rows, _hfft_rows(grid, hp, 17, keys))


# the arrays built once per (t_max, n_steps, H)
PER_GRID_ARRAYS = {
    "fgn_autocovariance": lambda t, n, h: fbm.fgn_autocovariance(n, h, t / n),
    "circulant_eigs": lambda t, n, h: fbm._fgn_circulant_eigs(n, h, t / n),
    "transfer_kernel": lambda t, n, h: transfer_kernel_matrix(TimeGrid(t, n), HurstParam(h)),
    "cholesky_factor": lambda t, n, h: cholesky_factor(TimeGrid(t, n), HurstParam(h)),
}


@pytest.mark.parametrize("build", PER_GRID_ARRAYS.values(), ids=PER_GRID_ARRAYS)
def test_per_grid_arrays_cached_and_read_only(build):
    arr = build(1.0, 16, 0.75)
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = 1.0
    assert build(1.0, 16, 0.75) is arr
    for other in ((2.0, 16, 0.75), (1.0, 17, 0.75), (1.0, 16, 0.8)):
        assert not np.array_equal(build(*other), arr)


@pytest.mark.parametrize("build, inner", [(transfer_kernel_matrix, "kernel_kh_fast"),
                                          (cholesky_factor, "covariance_matrix")])
def test_dense_arrays_refused_above_the_cap(monkeypatch, build, inner):
    # one cap for both (n_steps, n_steps) arrays, checked before either is built
    monkeypatch.setattr(fbm, inner, lambda *args: pytest.fail(f"{inner} called"))
    with pytest.raises(ValueError, match=f"capped at {DENSE_MAX_STEPS} steps; got "
                                         f"{DENSE_MAX_STEPS + 1}"):
        build(TimeGrid(1.0, DENSE_MAX_STEPS + 1), H75)


def test_paths_start_at_zero_and_finite():
    grid = TimeGrid(1.0, 64)
    p = sample_fbm_circulant(grid, H75, 3, seed=0)
    assert np.all(p.values[0] == 0.0)
    assert np.all(np.isfinite(p.values))
    assert p.values.shape == (65, 3)


def test_fbm_path_error_types():
    # shape and start are usage errors; a non-finite value is numerical
    grid = TimeGrid(1.0, 4)
    tag = fbm.GeneratorTag.circulant
    with pytest.raises(ValueError):
        fbm.FbmPath(grid, np.zeros((4, 1)), tag)
    with pytest.raises(ValueError):
        fbm.FbmPath(grid, np.ones((5, 1)), tag)
    vals = np.zeros((5, 1))
    vals[2, 0] = np.inf
    with pytest.raises(ArithmeticError, match="non-finite"):
        fbm.FbmPath(grid, vals, tag)


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


def _factorization_fails(a):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


@pytest.mark.parametrize("call, error, message", [
    (lambda: covariance_rh(-0.5, 1.0, H75), ValueError, "nonnegative"),
    (lambda: covariance_rh(0.5, np.array([1.0, -1.0]), H75), ValueError, "nonnegative"),
    # the cache is bypassed, so the patched factorization is the one run
    (lambda: cholesky_factor.__wrapped__(TimeGrid(1.0, 8), H75), ArithmeticError,
     "factorization failed"),
], ids=["negative-s", "negative-t", "cholesky-failure"])
def test_guards_fail_closed(monkeypatch, call, error, message):
    monkeypatch.setattr(np.linalg, "cholesky", _factorization_fails)
    with pytest.raises(error, match=message):
        call()
