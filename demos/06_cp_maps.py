"""The singleton specialization: completely positive maps between matrix algebras.

A cp kernel over a one-point set is a cp map; its Kolmogorov decomposition is
the Stinespring dilation, built here from the Choi matrix.
"""

import numpy as np

from ncrkhs import (
    CpMap,
    CpMapRkhs,
    cb_norm_cp,
    choi,
    effros_ruan_lower_bound,
    is_cp,
    stinespring,
)
from ncrkhs.sampling import complex_gaussian, rng_from_seed

rng = rng_from_seed(5)

# a random Kraus-built channel-like map C^{2x2} -> C^{2x2}
phi = CpMap.from_kraus([complex_gaussian(rng, 2, 2) for _ in range(2)])
ok, min_eig = is_cp(phi)
print(f"Choi PSD: {ok} (min eigenvalue {min_eig:.3e})")
print("Choi matrix real part:")
print(np.round(choi(phi).real, 3))

# Stinespring dilation phi(a) = H (a (x) I_r) H*
dil = stinespring(phi)
print(f"\ndilation multiplicity r = {dil.r}, X = C^{dil.x_dim}, "
      f"reconstruction error {dil.reconstruction_error:.2e}")

# cp maps attain their completely bounded norm at the unit
bound = cb_norm_cp(phi)
print(f"\ncb norm = ||phi(1)|| = {bound:.4f}")
root = complex_gaussian(rng, 6, 6)
p = root @ root.conj().T
ratio = np.linalg.norm(phi.apply_amplified(p), 2) / np.linalg.norm(p, 2)
print(f"sampled 3-fold amplification ratio: {ratio:.4f} <= {bound:.4f}")

# the Effros-Ruan style lower bound approaches the cb norm from below
er = effros_ruan_lower_bound(phi, n_samples=20, seed=1)
print(f"Effros-Ruan sampled lower bound: {er:.4f}")

# the singleton RKHS model: unit-indexed basis with L(Y)-blocked gramian
model = CpMapRkhs(phi)
coeffs = complex_gaussian(rng, model.dim, 1)[:, 0]
v = complex_gaussian(rng, 2, 2)
y = complex_gaussian(rng, 2, 1)[:, 0]
print(f"\nsingleton model: {model.n_units} unit symbols, coefficient dimension {model.dim}")
print(f"reproducing violation: {model.reproducing_violation(coeffs, v, y):.2e}")

# a non-cp map is rejected with its witness eigenvalue
units = {(p, q): np.zeros((2, 2)) for p in range(2) for q in range(2)}
units[(0, 0)] = np.diag([1.0, -0.25])
bad = CpMap(2, 2, units)
print(f"\nperturbed map cp: {is_cp(bad)[0]} (min eigenvalue {is_cp(bad)[1]:.3f})")
