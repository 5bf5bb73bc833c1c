"""Path-space optimal transport and the closed-form constants.

Empirical Wasserstein distances between path ensembles under the sup and
L2 metrics, relative entropy between reweightings, and the transportation
constants of the small- and large-horizon theorems.
"""

import numpy as np

from fbmlab import (
    HurstParam,
    PathEnsemble,
    PathMetric,
    TimeGrid,
    relative_entropy_discrete,
    t1_constant,
    t2_constant_d2,
    t2_constant_dinf,
    wasserstein_empirical,
)
from fbmlab.fbm import sample_fbm_circulant_batch
from fbmlab.sde import euler_additive_ensemble

grid = TimeGrid(0.5, 128)
h = HurstParam(0.75)

print("W2 between two independent 256-path ensembles of the same law:")
drv1 = sample_fbm_circulant_batch(grid, h, 256, seed=1)
drv2 = sample_fbm_circulant_batch(grid, h, 256, seed=2)
x1 = euler_additive_ensemble(0.0, lambda x: -x, drv1, grid.dt)
x2 = euler_additive_ensemble(0.0, lambda x: -x, drv2, grid.dt)
mu = PathEnsemble(grid, x1)
nu = PathEnsemble(grid, x2)
for metric in PathMetric:
    w2 = wasserstein_empirical(mu, nu, 2, metric)
    print(f"  {metric.value:12s} W2 = {w2:.4f} (same-law bias, shrinks with n)")

print("\nRelative entropy of an exponential tilt of the empirical measure:")
n = mu.n
scores = x1[:, -1]
w = np.exp(0.5 * scores)
w /= w.sum()
uniform = np.full(n, 1.0 / n)
print(f"  H(nu | mu) = {relative_entropy_discrete(w, uniform):.4f}")

print("\nTransportation constants (closed form):")
H, T = 0.75, 0.5
c_t1, horizon = t1_constant(H, T, 1.0, 1.0)   # ||sigma||_beta = 1, L_b = 1
# the dissipative T2 constants hold at every horizon; additive is sigma1 = 1
for label, value, horizon_ok in [
    ("T1_additive", c_t1, T <= horizon),
    ("T2_additive_dinf", t2_constant_dinf(H, T, -1.0, 1.0, 1.0), True),
    ("T2_additive_d2", t2_constant_d2(H, T, -1.0, 1.0, 1.0), True),
    ("T2_scalar_d2", t2_constant_d2(H, T, -1.0, 1.0, 1.3), True),
]:
    print(f"  {label:18s} C = {value:.5f}  horizon_ok = {horizon_ok}")
