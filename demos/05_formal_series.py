"""Formal power series over the free monoid and their kernels.

One moment table (MomentKernel) is both the formal kernel and the nc kernel
it induces on nilpotent points.  Truncated moment positivity is complete for
kernels supported within the truncation; the nilpotent route checks the same
table through evaluation, with scaled truncated shifts as universal witnesses.
"""

import numpy as np

from ncrkhs import (
    MomentKernel,
    NcSeries,
    extract_taylor_coefficients,
    formal_kolmogorov_truncated,
    functional_evaluator,
    is_formal_positive_truncated,
    moment_kernel_from_factor,
    moment_matrix,
    multiply,
    nilpotent_positivity_check,
    szego_kernel,
)
from ncrkhs.sampling import complex_gaussian, rng_from_seed

rng = rng_from_seed(4)

# convolution: (1 + z_1)(1 + z_2) = 1 + z_1 + z_2 + z_1 z_2
a = NcSeries(2, 1, 1, {(): [[1.0]], (1,): [[1.0]]})
b = NcSeries(2, 1, 1, {(): [[1.0]], (2,): [[1.0]]})
print("product support:", [list(w) for w in multiply(a, b).support])

# the Szego formal kernel has the identity moment matrix
szego = szego_kernel(d=1, max_len=2)
print("\nSzego moment matrix at L=2:")
print(moment_matrix(szego, 2).real)

# truncated Kolmogorov factorization: moment matrix = F F*
fact = formal_kolmogorov_truncated(szego, 2)
print(f"factor rank {fact.rank}, reconstruction error {fact.reconstruction_error:.2e}")

# Gram-built kernels are positive at every truncation level
h = NcSeries(2, 1, 2, {(): complex_gaussian(rng, 1, 2), (1,): complex_gaussian(rng, 1, 2)})
gram_kernel = moment_kernel_from_factor(h, 2)
print("\nGram-built kernel positive at L=0,1,2:",
      [is_formal_positive_truncated(gram_kernel, level)[0] for level in range(3)])

# a planted negative direction fails both routes; the scaled shift witnesses it
moments = dict(gram_kernel.moments)
moments[((1,), (1,))] = moments.get(((1,), (1,)), np.zeros((1, 1))) - 10.0 * np.eye(1)
planted = MomentKernel(2, 1, moments, 2)
moment_ok = is_formal_positive_truncated(planted, 2)[0]
cert = nilpotent_positivity_check(planted, seed=5)
print(f"planted kernel: moment route {moment_ok}, nilpotent route {cert.passed} "
      f"(min_eig {cert.min_eig:.3f})")

# formal <-> functional round trip: coefficients come back exactly
f = NcSeries(2, 1, 1, {(): [[1.0]], (1, 2): [[2.0]], (2, 2, 1): [[0.5]]})
recovered = extract_taylor_coefficients(functional_evaluator(f), 2, 4, 1, 1)
gap = max(
    np.linalg.norm(recovered.coefficient(w) - f.coefficient(w))
    for w in set(f.support) | set(recovered.support)
)
print(f"\nround-trip coefficient gap: {gap:.2e}")
