"""fbmlab: a numerical laboratory for fractional Brownian motion (H > 1/2),
Young pathwise SDEs, path-space optimal transport and concentration checks.

Layout:
    grid           time grids, cell averages, sampled functions, Holder norms
    fbm            exact fBm samplers (Cholesky, circulant, Volterra transfer)
    fractional     RL derivatives, Young integrals, the K_H operator K
    sde            pathwise Euler solvers, Lamperti transform, coupling bounds
    transport      path metrics, empirical Wasserstein, transportation constants
    concentration  Monte Carlo tail/moment verifiers with confidence bounds,
                   and the verifier registry run by `fbmlab verify`
    calibration    frozen universal constants K_hat and kappa_hat
    pathio/config/cli   serialization, declarative configs, command line
"""

from .grid import GridFunction, HolderNorm, TimeGrid, holder_norm
from .fbm import (
    FbmPath,
    GeneratorTag,
    HurstParam,
    covariance_rh,
    sample_fbm_cholesky,
    sample_fbm_circulant,
    sample_fbm_transfer,
)
from .fractional import (
    BoundReport,
    FracOrder,
    lemma_esti_int_check,
    operator_kh,
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
    relative_entropy_discrete,
    t1_constant,
    t2_constant_d2,
    t2_constant_dinf,
    wasserstein_empirical,
)
from .concentration import (
    PremiseError,
    estimate_t1_constant,
    gaussian_tail_c_delta,
    grr_modulus_holds,
    grr_xi,
    phi_argmax,
    phi_link,
    verify_fernique,
    verify_hoeffding_small_time,
)
from .config import ConfigError, ExperimentConfig, load_config
from .fixtures import calibrated_constants

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "BoundReport", "ConfigError", "DriftSpec",
    "ExperimentConfig", "FbmPath", "FracOrder", "GeneratorTag", "GridFunction",
    "HolderNorm", "HurstParam", "PathEnsemble", "PathMetric", "PremiseError",
    "ScalarDiffusion", "SolutionPath", "TimeDiffusion", "TimeGrid",
    "calibrated_constants", "covariance_rh", "drift_coupled_pair",
    "estimate_t1_constant", "gaussian_tail_c_delta", "gronwall_coupling_bound",
    "grr_modulus_holds", "grr_xi", "holder_norm", "lemma_esti_int_check",
    "load_config", "operator_kh", "phi_argmax", "phi_link",
    "relative_entropy_discrete", "sample_fbm_cholesky", "sample_fbm_circulant",
    "sample_fbm_transfer", "solve_additive", "solve_scalar",
    "solve_scalar_via_lamperti", "t1_constant", "t2_constant_d2",
    "t2_constant_dinf", "verify_fernique", "verify_hoeffding_small_time",
    "wasserstein_empirical", "young_integral_frac", "young_integral_rs",
]
