"""Monte Carlo verification of the concentration inequalities.

Hoeffding-type tails of Lipschitz path functionals with Clopper-Pearson
confidence bounds, the Fernique moment suite, the Garsia-Rodemich-Rumsey
random Holder constant, and the gamma/digamma link optimization.
"""

import numpy as np

from fbmlab import (
    HurstParam,
    TimeGrid,
    grr_modulus_holds,
    grr_xi,
    phi_argmax,
    phi_link,
    verify_fernique,
    verify_hoeffding_small_time,
)
from fbmlab.fbm import sample_fbm_circulant_batch

print("Small-time Hoeffding tails (b = 0, sigma = 1, T = 0.25, H = 0.75):")
rep_avg, rep_sup = verify_hoeffding_small_time(H=0.75, T=0.25, n_paths=20_000,
                                               n_steps=256, seed=99)
for name, rep in (("time average", rep_avg), ("sup displacement", rep_sup)):
    print(f"  {name:17s} all thresholds below bound: {all(rep['passed'])}")
    worst = np.divide(rep["upper_confidence"], rep["bound"]).max()
    print(f"    tightest margin: upper confidence / bound = {worst:.3f}")

print("\nFernique moments (H = 0.75, beta = 0.6, T = 0.5):")
rep = verify_fernique(0.75, 0.6, 0.5, n_samples=5000, seed=3)
for k, emp, bnd in zip(rep["k_list"], rep["empirical_moments"], rep["bounds"]):
    print(f"  E||B||^{2 * k}: empirical {emp:9.3f}  bound {bnd:12.1f}")
print(f"  exp moment at alpha = {rep['exp_alpha']:.5f}: "
      f"{rep['exp_empirical']:.4f} <= {rep['exp_bound']:.4f}")

print("\nGRR random Holder constant (exact grid check on 5 paths):")
grid = TimeGrid(1.0, 256)
paths = sample_fbm_circulant_batch(grid, HurstParam(0.75), 5, seed=17)
for i in range(5):
    xi = grr_xi(paths[i], grid, 0.75, 0.6)
    ok = grr_modulus_holds(paths[i], grid, 0.6, xi)
    print(f"  path {i}: xi = {xi:7.2f}  modulus holds everywhere: {ok}")

print("\nGamma/digamma link: Phi is maximized at x = 1 for every C >= 1.")
for c in (1.0, 2.0, 10.0, 1e6):
    print(f"  C = {c:g}: argmax = {phi_argmax(c):.10f}, "
          f"Phi(1) = {phi_link(1.0, c):.6g} (= C/2)")
