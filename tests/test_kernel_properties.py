"""The nc-kernel axioms as properties of every kernel form, over seeded random inputs.

For points Z, W of sizes n, m and an argument P in A^{n x m}:

- Hermitian symmetry: K(Z, W)(P)* = K(W, Z)(P*);
- direct sums: K(Z (+) Z', W (+) W') applied to a 2 x 2 block argument is the
  2 x 2 block matrix of the four kernel values on the blocks;
- similarity: K(S Z S^-1, T W T^-1)((S (x) I_k) P (T (x) I_k)*) =
  (S (x) I_y) K(Z, W)(P) (T (x) I_y)*.
- embedding: with the column embedding alpha = [I; 0] of Z into Z (+) Z',
  K(Z (+) Z', W)((alpha (x) I_k) P) = (alpha (x) I_y) K(Z, W)(P).

Each form is rebuilt from the drawn seed: moment tables (indefinite, evaluated
at nilpotent points their order covers), Kolmogorov factors, Gram bases for
k = 1 and k = 2, de Branges-Rovnyak kernels and difference kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncrkhs.core import MatrixTuple, TruncationRefused, direct_sum, frobenius
from ncrkhs.kernels import (
    FULL_MATRIX,
    AlgebraSpec,
    GramBasisKernel,
    KolmogorovKernel,
    MomentKernel,
)
from ncrkhs.multipliers import Multiplier, dbr_kernel, difference_kernel
from ncrkhs.sampling import (
    complex_gaussian,
    gaussian_tuple,
    random_algebra_matrix,
    random_psd,
    random_similarity,
    rng_from_seed,
    sample_tuple,
)
from ncrkhs.series import NcSeries

REL = 1e-9
D = 2
WORDS = [(), (1,), (2,), (1, 2), (2, 2)]


def random_series(rng, p, q, words=WORDS):
    return NcSeries(D, p, q, {w: complex_gaussian(rng, p, q) for w in words})


def moment(rng, y=1):
    """An indefinite Hermitian table on a random subset of word pairs, max_len 3."""
    table = {}
    for a in WORDS:
        for b in WORDS:
            if (b, a) not in table and rng.random() < 0.5:
                c = complex_gaussian(rng, y, y)
                table[(a, b)] = c if a != b else c + c.conj().T
                table[(b, a)] = table[(a, b)].conj().T
    return MomentKernel(D, y, table, max_len=3)


def kolmogorov(rng, k=1, y=2):
    return KolmogorovKernel(AlgebraSpec(FULL_MATRIX if k > 1 else "scalar", k=k), random_series(rng, y, 2 * k), s=2)


def gram_basis(rng, k=1, y=2):
    basis = [random_series(rng, y, k, WORDS[: 2 + i]) for i in range(3)]
    return GramBasisKernel(AlgebraSpec(FULL_MATRIX if k > 1 else "scalar", k=k), basis, random_psd(rng, 3) + np.eye(3))


# form -> kernel built from an rng; points are drawn by its default sampler,
# nilpotent exactly for the forms built on moment tables
FORMS = {
    "moment-y1": lambda rng: moment(rng),
    "moment-y2": lambda rng: moment(rng, y=2),
    "kolmogorov-k1": lambda rng: kolmogorov(rng),
    "kolmogorov-k2": lambda rng: kolmogorov(rng, k=2),
    "gram-k1": lambda rng: gram_basis(rng),
    "gram-k2": lambda rng: gram_basis(rng, k=2),
    "dbr-kolmogorov": lambda rng: dbr_kernel(Multiplier(
        random_series(rng, 2, 2, [(), (1,)]), kolmogorov(rng), kolmogorov(rng))),
    "dbr-moment": lambda rng: dbr_kernel(Multiplier(
        random_series(rng, 1, 1, [(), (2,)]), moment(rng), moment(rng))),
    "difference-gram-k2": lambda rng: difference_kernel(gram_basis(rng, k=2), kolmogorov(rng, k=2)),
    "difference-moment": lambda rng: difference_kernel(moment(rng), moment(rng)),
}
ON_MOMENT_TABLES = {"moment-y1", "moment-y2", "dbr-moment", "difference-moment"}


def draw_case(form, seed, n_points):
    rng = rng_from_seed(seed)
    kernel = FORMS[form](rng)
    points = [sample_tuple(rng, kernel.default_sampler, D, int(rng.integers(1, 3))) for _ in range(n_points)]
    return rng, kernel, points


def assert_close(lhs, rhs):
    assert frobenius(lhs - rhs) <= REL * max(1.0, frobenius(lhs))


seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("form", sorted(FORMS))
@settings(max_examples=10)
@given(seeds)
def test_hermitian_symmetry(form, seed):
    rng, kernel, (z, w) = draw_case(form, seed, 2)
    p = random_algebra_matrix(rng, kernel.algebra.k, z.n, w.n)
    assert_close(kernel.evaluate(z, w, p).conj().T, kernel.evaluate(w, z, p.conj().T))


@pytest.mark.parametrize("form", sorted(FORMS))
@settings(max_examples=10)
@given(seeds)
def test_direct_sums(form, seed):
    rng, kernel, (z, zt, w, wt) = draw_case(form, seed, 4)
    k = kernel.algebra.k
    p = random_algebra_matrix(rng, k, z.n + zt.n, w.n + wt.n)
    nk, mk = z.n * k, w.n * k
    blocks = np.block([
        [kernel.evaluate(z, w, p[:nk, :mk]), kernel.evaluate(z, wt, p[:nk, mk:])],
        [kernel.evaluate(zt, w, p[nk:, :mk]), kernel.evaluate(zt, wt, p[nk:, mk:])],
    ])
    assert_close(kernel.evaluate(direct_sum([z, zt]), direct_sum([w, wt]), p), blocks)


@pytest.mark.parametrize("form", sorted(FORMS))
@settings(max_examples=10)
@given(seeds)
def test_similarity(form, seed):
    rng, kernel, (z, w) = draw_case(form, seed, 2)
    k, y = kernel.algebra.k, kernel.y_dim
    p = random_algebra_matrix(rng, k, z.n, w.n)
    s = random_similarity(rng, z.n)
    t = random_similarity(rng, w.n)
    zs = MatrixTuple(tuple(s @ c @ np.linalg.inv(s) for c in z.coords))
    wt = MatrixTuple(tuple(t @ c @ np.linalg.inv(t) for c in w.coords))
    moved = np.kron(s, np.eye(k)) @ p @ np.kron(t, np.eye(k)).conj().T
    want = np.kron(s, np.eye(y)) @ kernel.evaluate(z, w, p) @ np.kron(t, np.eye(y)).conj().T
    assert_close(kernel.evaluate(zs, wt, moved), want)


@pytest.mark.parametrize("form", sorted(FORMS))
@settings(max_examples=10)
@given(seeds)
def test_embedding(form, seed):
    rng, kernel, (z, zp, w) = draw_case(form, seed, 3)
    k, y = kernel.algebra.k, kernel.y_dim
    p = random_algebra_matrix(rng, k, z.n, w.n)
    alpha = np.vstack([np.eye(z.n), np.zeros((zp.n, z.n))])  # Z -> Z (+) Z', the column embedding
    want = np.kron(alpha, np.eye(y)) @ kernel.evaluate(z, w, p)
    assert_close(kernel.evaluate(direct_sum([z, zp]), w, np.kron(alpha, np.eye(k)) @ p), want)


@pytest.mark.parametrize("form", sorted(FORMS))
def test_exact_domain(form):
    # a kernel built on a moment table is exact only at nilpotent points its order covers
    rng = rng_from_seed(3)
    kernel = FORMS[form](rng)
    z = gaussian_tuple(rng, D, 2)
    p = random_algebra_matrix(rng, kernel.algebra.k, 2, 2)
    if form in ON_MOMENT_TABLES:
        assert kernel.max_len == 3
        with pytest.raises(TruncationRefused):
            kernel.evaluate(z, z, p)
    else:
        assert kernel.max_len is None
        assert np.all(np.isfinite(kernel.evaluate(z, z, p)))
