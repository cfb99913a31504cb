"""De Branges-Rovnyak kernels take S through its values S(Z), never through a product series.

The moved factor of K - S K' S* is ``series.Multiplied``, whose value at Z is
S(Z) F'(Z), formed from the two values the point keeps; that no certificate
calls ``series.multiply`` is tested in ``test_multipliers.py``.

A test-local copy of the product-series path (S F' as ``multiply(s, F')``, a
moment table's factor as its one-hot series) gives the same certificate
matrix within 1e-12 relative, and the same verdict and ``min_eig``, on
Kolmogorov, Gram-basis (k = 2) and moment sources and for the kernel of a
de Branges-Rovnyak kernel.
"""

import numpy as np
import pytest

from ncrkhs.core import MatrixTuple
from ncrkhs.kernels import (
    FULL_MATRIX,
    AlgebraSpec,
    FactoredKernel,
    GramBasisKernel,
    KolmogorovKernel,
    MomentKernel,
    cp_certificate,
)
from ncrkhs.multipliers import Multiplier, dbr_kernel
from ncrkhs.sampling import complex_gaussian, gaussian_tuple, nilpotent_tuple, random_psd, rng_from_seed
from ncrkhs.series import Multiplied, NcSeries, WordIndicator, factor_values, multiply

REL = 1e-12
WORDS = [(), (1,), (2,), (2, 1), (1, 1, 2)]


def random_series(rng, p, q, words=WORDS, scale=1.0):
    return NcSeries(2, p, q, {w: scale * complex_gaussian(rng, p, q) for w in words})


def moment(rng, y):
    words = WORDS[:4]
    a = complex_gaussian(rng, y * len(words), y * len(words))
    blocks = ((a + a.conj().T) / 2).reshape(len(words), y, len(words), y)
    return MomentKernel(2, y, {(u, v): blocks[i, :, j, :] for i, u in enumerate(words)
                               for j, v in enumerate(words)}, max_len=3)


def multipliers(rng):
    """name -> (multiplier, sampler), S never constant."""
    kol = KolmogorovKernel(AlgebraSpec(), random_series(rng, 2, 3), s=3)
    kol2 = KolmogorovKernel(AlgebraSpec(FULL_MATRIX, k=2), random_series(rng, 2, 4), s=2)
    gram2 = GramBasisKernel(AlgebraSpec(FULL_MATRIX, k=2), [random_series(rng, 2, 2, WORDS[:i + 2]) for i in range(3)],
                            random_psd(rng, 3) + np.eye(3))
    inner = dbr_kernel(Multiplier(random_series(rng, 2, 2, [(), (2,)]), kol, kol))
    return {
        "kolmogorov": (Multiplier(random_series(rng, 2, 2, [(), (1,), (2, 2)], 0.1), kol, kol), "gaussian"),
        "gram-k2": (Multiplier(random_series(rng, 2, 2, [(), (2, 1)], 0.1), gram2, kol2), "gaussian"),
        "moment": (Multiplier(random_series(rng, 2, 2, [(), (1,), (1, 2)], 0.1), moment(rng, 2), moment(rng, 2)),
                   "nilpotent"),
        "dbr-of-dbr": (Multiplier(random_series(rng, 2, 2, [(1,), (1, 2)], 0.1), inner, kol), "gaussian"),
    }


NAMES = sorted(multipliers(rng_from_seed(0)))


def product_series_factor(f, s: NcSeries):
    """S F' as one series, as the product-series path formed it: F' one-hot for a moment table."""
    if isinstance(f, Multiplied):
        f = product_series_factor(f.f, f.s)
    elif isinstance(f, WordIndicator):
        eye = np.eye(len(f.words) * f.y_dim, dtype=np.complex128)
        f = NcSeries(f.d, f.y_dim, len(eye), {w: eye[i * f.y_dim:(i + 1) * f.y_dim] for i, w in enumerate(f.words)})
    return multiply(s, f)


def product_series_kernel(kernel: FactoredKernel) -> FactoredKernel:
    terms = [(product_series_factor(f.f, f.s) if isinstance(f, Multiplied) else f, c) for f, c in kernel.terms]
    return FactoredKernel(kernel.d, kernel.y_dim, kernel.algebra, terms, kernel.max_len, kernel.tol, kernel.kind)


@pytest.mark.parametrize("name", NAMES)
def test_certificate_matrix_matches_the_product_series_path(name):
    mult, sampler = multipliers(rng_from_seed(28))[name]
    kernel = dbr_kernel(mult)
    rng = rng_from_seed(29)
    sample = nilpotent_tuple if sampler == "nilpotent" else gaussian_tuple
    points = [sample(rng, 2, n) for n in (1, 3, 2, 4)]
    args = [complex_gaussian(rng, z.n * kernel.algebra.k, 2) for z in points]
    got = kernel.block_matrix(points, args)
    want = product_series_kernel(kernel).block_matrix([MatrixTuple(z.coords) for z in points], args)
    assert np.linalg.norm(got - want) <= REL * np.linalg.norm(want)


@pytest.mark.parametrize("name", NAMES)
def test_verdict_and_min_eig_match_the_product_series_path(name):
    mult, sampler = multipliers(rng_from_seed(30))[name]
    kernel = dbr_kernel(mult)
    got = cp_certificate(kernel, n_points=5, sizes=(1, 2, 3), seed=31, sampler=sampler)
    want = cp_certificate(product_series_kernel(kernel), n_points=5, sizes=(1, 2, 3), seed=31, sampler=sampler)
    assert got.passed == want.passed
    assert abs(got.min_eig - want.min_eig) <= REL * max(abs(want.min_eig), 1e-300)


def test_the_product_value_is_kept_on_the_point_with_both_factor_values():
    rng = rng_from_seed(33)
    s, f = random_series(rng, 2, 1), random_series(rng, 1, 3)
    factor = Multiplied(s, f)
    z, w = gaussian_tuple(rng, 2, 3), gaussian_tuple(rng, 2, 2)
    value = factor_values(factor, [z, w, z])
    assert value[0] is value[2] and not value[0].flags.writeable
    for point, v in zip((z, w), value):
        assert np.array_equal(v, factor_values(s, [point])[0] @ factor_values(f, [point])[0])
        assert factor_values(factor, [point])[0] is v
    # nesting: (S2 S) F as a product of kept values
    outer = Multiplied(random_series(rng, 1, 2), factor)
    assert outer.d == 2
    assert np.array_equal(factor_values(outer, [z])[0], factor_values(outer.s, [z])[0] @ value[0])
