"""fbmlab: a numerical laboratory for fractional Brownian motion (H > 1/2),
Young pathwise SDEs, path-space optimal transport and concentration checks.

Layout:
    grid           time grids, cell averages, sampled functions, Holder norms
    fbm            exact fBm samplers (Cholesky, circulant, Volterra transfer)
    fractional     RL derivatives, Young integrals, the K_H operators K and K*
    sde            pathwise Euler solvers, Lamperti transform, coupling bounds
    transport      path metrics, empirical Wasserstein, transportation constants
    concentration  Monte Carlo tail/moment verifiers with confidence bounds
    verifiers      the verifier registry run by `fbmlab verify`
    calibration    frozen universal constants K_hat and kappa_hat
    pathio/config/cli   serialization, declarative configs, command line
"""

from .grid import GridFunction, HolderNorm, TimeGrid, holder_norm, holder_seminorm
from .fbm import (
    FbmPath,
    GeneratorTag,
    HurstParam,
    covariance_rh,
    kernel_kh,
    kernel_kh_partial,
    sample_fbm_cholesky,
    sample_fbm_circulant,
    sample_fbm_transfer,
)
from .fractional import (
    BoundReport,
    FracOrder,
    frac_deriv_left,
    lemma_esti_int_check,
    operator_kh,
    scalar_product_h,
    young_integral_frac,
    young_integral_rs,
)
from .sde import (
    BlowUpError,
    DriftSpec,
    ScalarDiffusion,
    SolutionPath,
    TimeDiffusion,
    drift_coupled_pair,
    gronwall_coupling_bound,
    solve_additive,
    solve_scalar,
    solve_scalar_via_lamperti,
)
from .transport import (
    PathEnsemble,
    PathMetric,
    path_distance,
    relative_entropy_discrete,
    t1_constant,
    t2_constant_d2,
    t2_constant_dinf,
    wasserstein_empirical,
)
from .concentration import (
    MomentReport,
    PremiseError,
    TailReport,
    estimate_t1_constant,
    gaussian_tail_c_delta,
    grr_modulus_holds,
    grr_xi,
    phi_argmax,
    phi_link,
    verify_fernique,
    verify_hoeffding_large_time,
    verify_hoeffding_small_time,
)
from .config import ConfigError, ExperimentConfig, load_config
from .fixtures import calibrated_constants

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "BoundReport", "ConfigError", "DriftSpec", "ExperimentConfig",
    "FbmPath", "FracOrder", "GeneratorTag", "GridFunction", "HolderNorm",
    "HurstParam", "MomentReport", "PathEnsemble", "PathMetric", "PremiseError",
    "ScalarDiffusion", "SolutionPath", "TailReport",
    "TimeDiffusion", "TimeGrid", "calibrated_constants",
    "covariance_rh", "drift_coupled_pair", "estimate_t1_constant",
    "frac_deriv_left", "gaussian_tail_c_delta",
    "gronwall_coupling_bound", "grr_modulus_holds", "grr_xi", "holder_norm",
    "holder_seminorm", "kernel_kh", "kernel_kh_partial",
    "lemma_esti_int_check", "load_config", "operator_kh",
    "path_distance", "phi_argmax", "phi_link", "relative_entropy_discrete",
    "sample_fbm_cholesky", "sample_fbm_circulant", "sample_fbm_transfer",
    "scalar_product_h", "solve_additive", "solve_scalar",
    "solve_scalar_via_lamperti", "t1_constant", "t2_constant_d2",
    "t2_constant_dinf", "verify_fernique",
    "verify_hoeffding_large_time", "verify_hoeffding_small_time",
    "wasserstein_empirical", "young_integral_frac", "young_integral_rs",
]
