"""Every kernel form is one factored form F(Z) (P (x) C) F(W)*; certificates take one product.

The references are test-local loops over the definitions:

- a kernel value is the per-word sum  sum_{a,b} sum_{i,j} (Z^a e_i e_j* W^b*) (x) phi_ab(P_ij)
  over the blocks P_ij of the argument, with phi_ab(p) = p K_ab for a moment table,
  H_a (p (x) I) H_b* for a Kolmogorov factor and sum_ij (G^-1)_ij f_i,a p f_j,b* for a
  Gram basis; a de Branges-Rovnyak or difference kernel adds its parts' sums;
- a certificate matrix is the N^2 block matrix of kernel values.

Sums run in another order, so values agree to rounding: 1e-12 relative.
"""

import sys

import numpy as np
import pytest

from ncrkhs import core
from ncrkhs.core import MatrixTuple, NotPsd, TruncationRefused, word_eval
from ncrkhs.kernels import (
    FULL_MATRIX,
    AlgebraSpec,
    GramBasisKernel,
    KolmogorovKernel,
    MomentKernel,
    cp_certificate,
    kolmogorov_at_sample,
    szego_kernel,
)
from ncrkhs.multipliers import Multiplier, dbr_kernel, difference_kernel
from ncrkhs.sampling import (
    complex_gaussian,
    gaussian_tuple,
    nilpotent_tuple,
    random_algebra_matrix,
    random_psd,
    random_similarity,
    rng_from_seed,
)
from ncrkhs.series import NcSeries

REL = 1e-12
WORDS = [(), (1,), (2,), (2, 1), (1, 1, 2)]


def series(rng, p, q, words=WORDS):
    return NcSeries(2, p, q, {w: complex_gaussian(rng, p, q) for w in words})


def dense_nilpotent(rng, d, n):
    """A strictly upper-triangular tuple conjugated by a random similarity: nilpotent, not triangular."""
    s = random_similarity(rng, n)
    return MatrixTuple(tuple(s @ c @ np.linalg.inv(s) for c in nilpotent_tuple(rng, d, n).coords))


def with_point(sample_points, extra):
    """``sample_points`` with ``extra`` added to every sample."""
    def sampled(*args):
        sampler, points = sample_points(*args)
        return sampler, points + [extra]

    return sampled


def algebra(k):
    return AlgebraSpec(FULL_MATRIX, k=k) if k > 1 else AlgebraSpec()


# ---------------------------------------------------------------------------
# per-word references: (a, b, phi_ab) triples
# ---------------------------------------------------------------------------

def moment_pairs(kernel):
    return [(a, b, lambda p, c=c: p[0, 0] * c) for (a, b), c in kernel.moments.items()]


def kolmogorov_pairs(kernel):
    mult = kernel.algebra.r * kernel.s
    return [(a, b, lambda p, ha=ha, hb=hb: ha @ np.kron(p, np.eye(mult)) @ hb.conj().T)
            for a, ha in kernel.h.terms.items() for b, hb in kernel.h.terms.items()]


def gram_pairs(kernel):
    words = sorted({w for f in kernel.basis for w in f.support})
    g = np.asarray(kernel.gram_inv)

    def phi(p, a, b):
        return sum(g[i, j] * fi.coefficient(a) @ p @ fj.coefficient(b).conj().T
                   for i, fi in enumerate(kernel.basis) for j, fj in enumerate(kernel.basis))

    return [(a, b, lambda p, a=a, b=b: phi(p, a, b)) for a in words for b in words]


def multiplied(s, pairs, sign=-1.0):
    """The triples of S K S* (times sign) from those of K."""
    return [(u + a, v + b, lambda p, su=su, sv=sv, phi=phi: sign * su @ phi(p) @ sv.conj().T)
            for u, su in s.terms.items() for v, sv in s.terms.items() for a, b, phi in pairs]


def negated(pairs):
    return [(a, b, lambda p, phi=phi: -phi(p)) for a, b, phi in pairs]


def reference(pairs, z, w, p, k, y):
    out = np.zeros((z.n * y, w.n * y), dtype=complex)
    for a, b, phi in pairs:
        za, wb = word_eval(a, z), word_eval(b, w)
        for i in range(z.n):
            for j in range(w.n):
                out += np.kron(np.outer(za[:, i], wb[:, j].conj()), phi(p[i * k:(i + 1) * k, j * k:(j + 1) * k]))
    return out


def table(rng, y, words=WORDS[:4]):
    out = {}
    for a in words:
        for b in words:
            if (b, a) not in out and rng.random() < 0.6:
                c = complex_gaussian(rng, y, y)
                out[(a, b)] = c + c.conj().T if a == b else c
                out[(b, a)] = out[(a, b)].conj().T
    return out


def cases(rng):
    """(name, kernel, per-word triples, whether points must be nilpotent)."""
    mom = MomentKernel(2, 2, table(rng, 2), max_len=3)
    mom2 = MomentKernel(2, 2, table(rng, 2), max_len=3)
    kol = KolmogorovKernel(algebra(1), series(rng, 2, 3), s=3)
    kol2 = KolmogorovKernel(algebra(2), series(rng, 2, 4), s=2)
    gram1 = GramBasisKernel(algebra(1), [series(rng, 2, 1, WORDS[:i + 2]) for i in range(3)],
                            random_psd(rng, 3) + np.eye(3))
    gram2 = GramBasisKernel(algebra(2), [series(rng, 2, 2, WORDS[:i + 2]) for i in range(3)],
                            random_psd(rng, 3) + np.eye(3))
    s = series(rng, 2, 2, [(), (2,)])
    s_mom = series(rng, 2, 2, [(1,)])
    return [
        ("moment", mom, moment_pairs(mom), True),
        ("kolmogorov-k1", kol, kolmogorov_pairs(kol), False),
        ("kolmogorov-k2", kol2, kolmogorov_pairs(kol2), False),
        ("gram-k1", gram1, gram_pairs(gram1), False),
        ("gram-k2", gram2, gram_pairs(gram2), False),
        ("dbr-kolmogorov", dbr_kernel(Multiplier(s, kol, kol)),
         kolmogorov_pairs(kol) + multiplied(s, kolmogorov_pairs(kol)), False),
        ("dbr-moment", dbr_kernel(Multiplier(s_mom, mom2, mom)),
         moment_pairs(mom) + multiplied(s_mom, moment_pairs(mom2)), True),
        ("difference-gram-k2", difference_kernel(kol2, gram2), gram_pairs(gram2) + negated(kolmogorov_pairs(kol2)),
         False),
        ("difference-moment", difference_kernel(mom2, mom), moment_pairs(mom) + negated(moment_pairs(mom2)), True),
    ]


CASE_NAMES = [name for name, *_ in cases(rng_from_seed(0))]


def case(name, seed):
    rng = rng_from_seed(seed)
    for case_name, kernel, pairs, nilpotent in cases(rng):
        if case_name == name:
            return rng, kernel, pairs, nilpotent_tuple if nilpotent else gaussian_tuple


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= REL * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_evaluate_matches_per_word_sum(name):
    rng, kernel, pairs, sample = case(name, 41)
    k = kernel.algebra.k
    for n, m in ((1, 3), (3, 2), (4, 4)):
        z, w = sample(rng, 2, n), sample(rng, 2, m)
        p = random_algebra_matrix(rng, k, n, m)
        assert_close(kernel.evaluate(z, w, p), reference(pairs, z, w, p, k, kernel.y_dim))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_stacked_certificate_matrix_matches_block_loop(name):
    rng, kernel, _, sample = case(name, 42)
    k = kernel.algebra.k
    points = [sample(rng, 2, n) for n in (1, 3, 2, 4)]
    args = [random_algebra_matrix(rng, k, 2, z.n).conj().T for z in points]
    blocks = np.block([[kernel.evaluate(zi, zj, xi @ xj.conj().T) for zj, xj in zip(points, args)]
                       for zi, xi in zip(points, args)])
    assert_close(kernel.block_matrix(points, args), blocks)


@pytest.mark.parametrize("name", ["moment", "gram-k1", "dbr-moment", "difference-moment"])
def test_certificate_eigenchecks_the_block_loop_matrix(name):
    # rebuild cp_certificate's seeded sample and its old N^2 block assembly
    _, kernel, _, sample = case(name, 43)
    sampler = "nilpotent" if sample is nilpotent_tuple else "gaussian"
    cert = cp_certificate(kernel, n_points=5, sizes=(1, 2, 3), n_rows=2, seed=44, sampler=sampler)
    rng = rng_from_seed(44)
    points = [(nilpotent_tuple if sampler == "nilpotent" else gaussian_tuple)(rng, 2, (1, 2, 3)[i % 3])
              for i in range(5)]
    rows = [random_algebra_matrix(rng, 1, 2, z.n) for z in points]
    blocks = np.block([[kernel.evaluate(zi, zj, ri.conj().T @ rj) for zj, rj in zip(points, rows)]
                       for zi, ri in zip(points, rows)])
    for got, want in zip(cert.points, points):
        assert all(np.array_equal(a, b) for a, b in zip(got.coords, want.coords))
    vals = np.linalg.eigvalsh((blocks + blocks.conj().T) / 2)
    assert cert.sample_description["gram_dim"] == blocks.shape[0]
    assert abs(cert.min_eig - vals[0]) <= REL * max(1.0, np.abs(vals).max())


@pytest.mark.parametrize("name", [n for n in CASE_NAMES if "k2" not in n])
def test_kolmogorov_at_sample_matches_its_block_form(name):
    rng, kernel, _, _ = case(name, 45)
    points = [nilpotent_tuple(rng, 2, n) for n in (1, 3, 2)]
    y = kernel.y_dim
    amplified = [MatrixTuple(tuple(np.kron(c, np.eye(z.n)) for c in z.coords)) for z in points]
    units = [np.eye(z.n).reshape(-1) for z in points]
    gram = np.block([[kernel.evaluate(ai, aj, np.outer(ui, uj)) for aj, uj in zip(amplified, units)]
                     for ai, ui in zip(amplified, units)])
    vals = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    scale = max(1.0, np.abs(vals).max())
    if vals[0] < -1e-9 * scale:
        # an indefinite kernel has no sampled factorization; the refusal names the same eigenvalue
        with pytest.raises(NotPsd) as refusal:
            kolmogorov_at_sample(kernel, points)
        assert abs(refusal.value.min_eig - vals[0]) <= REL * scale
        return
    sample = kolmogorov_at_sample(kernel, points)
    rows = np.vstack([h.reshape(z.n, y, z.n, sample.rank).transpose(0, 2, 1, 3).reshape(-1, sample.rank)
                      for z, h in zip(points, sample.factors)])
    assert_close(rows @ rows.conj().T, gram)


def test_empty_moment_table_is_the_zero_kernel():
    kernel = MomentKernel(2, 1, {}, 2)
    assert kernel.words == () and kernel.middle.shape == (0, 0)
    rng = rng_from_seed(46)
    z, w = nilpotent_tuple(rng, 2, 3), nilpotent_tuple(rng, 2, 2)
    assert np.array_equal(kernel.evaluate(z, w, complex_gaussian(rng, 3, 2)), np.zeros((3, 2)))
    cert = cp_certificate(kernel, n_points=3, sizes=(1, 2, 3), seed=0)
    assert cert.passed and cert.min_eig == 0.0
    assert kolmogorov_at_sample(kernel, [z, w]).rank == 0
    with pytest.raises(TruncationRefused):
        kernel.evaluate(gaussian_tuple(rng, 2, 2), w, np.eye(2, 2))


def test_long_sparse_table_holds_only_its_words():
    # d = 3, max_len = 8 spans 9,841 words; the table stores six of them
    rng = rng_from_seed(47)
    long_words = [(), (3,), (1, 2, 3), (2, 2, 2, 1, 3, 1, 1, 2), (3, 1, 2, 2, 1, 3, 1, 2), (1,) * 8]
    moments = {}
    for i, a in enumerate(long_words):
        moments[(a, a)] = np.eye(2) * (i + 1)
        if i:
            c = complex_gaussian(rng, 2, 2)
            moments[(long_words[0], a)], moments[(a, long_words[0])] = c, c.conj().T
    kernel = MomentKernel(3, 2, moments, max_len=8)
    assert len(kernel.words) == 6 and kernel.middle.shape == (12, 12)
    pairs = moment_pairs(kernel)
    for n, m in ((9, 4), (6, 9)):
        z, w = nilpotent_tuple(rng, 3, n), nilpotent_tuple(rng, 3, m)
        p = complex_gaussian(rng, n, m)
        assert_close(kernel.evaluate(z, w, p), reference(pairs, z, w, p, 1, 2))


def counted_everywhere(monkeypatch, module, name):
    """Count calls of module.name wherever an ncrkhs namespace holds it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[:1])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ncrkhs" or mod_name.startswith("ncrkhs."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("n_points", [1, 6, 16])
def test_moment_certificate_work_counts(monkeypatch, n_points):
    from ncrkhs import kernels, series

    kernel = szego_kernel(2, max_len=4)
    # the sample plus one dense nilpotent point of order <= max_len + 1
    dense = dense_nilpotent(rng_from_seed(49), 2, 4)
    monkeypatch.setattr(kernels, "sample_points", with_point(kernels.sample_points, dense))
    krons = counted_everywhere(monkeypatch, core, "kron")
    word_evals = counted_everywhere(monkeypatch, core, "word_eval")
    orders = counted_everywhere(monkeypatch, series, "nilpotency_orders")
    cert = cp_certificate(kernel, n_points=n_points, sizes=(1, 2, 3, 4, 5), seed=48)
    assert cert.passed and cert.points[-1] is dense
    assert len(krons) == 0 and len(word_evals) == 0
    # one batched domain test, of the dense point alone: the sampled points
    # are strictly upper triangular, of sizes <= max_len + 1
    assert all(z.strictly_triangular for z in cert.points[:-1]) and not dense.strictly_triangular
    assert len(orders) == 1
    assert [z for (points,) in orders for z in points] == [dense]
