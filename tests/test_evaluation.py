"""The prefix-streamed series evaluator and the per-point value memo.

The reference is the definition ``sum_w kron(word_eval(w, Z), f_w)``, one
word product and one Kronecker product per term.  The streamed evaluator
sums the same terms in another order, so values agree to rounding: the
bound is 1e-12 relative in the Frobenius norm.
"""

import numpy as np
import pytest

from ncrkhs import series
from ncrkhs.core import MatrixTuple, kron, word_eval, words_up_to
from ncrkhs.kernels import AlgebraSpec, KolmogorovKernel, cp_certificate, kolmogorov_at_sample
from ncrkhs.multipliers import contractive_containment
from ncrkhs.sampling import complex_gaussian, rng_from_seed
from ncrkhs.series import NcSeries, evaluate

REL = 1e-12


def naive(f: NcSeries, z: MatrixTuple) -> np.ndarray:
    out = np.zeros((z.n * f.out_dim, z.n * f.in_dim), dtype=np.complex128)
    for w, c in f.terms.items():
        out += kron(word_eval(w, z), c)
    return out


def random_point(rng, d, n):
    # spectral norms near one keep degree-8 products at the scale of the data
    return MatrixTuple(tuple(complex_gaussian(rng, n, n) / np.sqrt(2 * n) for _ in range(d)))


def series_on(rng, d, p, q, words):
    return NcSeries(d, p, q, {w: complex_gaussian(rng, p, q) for w in words})


# (d, p, q, support).  Apart from the empty word alone and the full degree-3
# support, which checks that shared prefixes are reused, no support is
# prefix-closed: the walk must build the products of words it skips.
CASES = {
    "degree-8 monomial": (2, 1, 1, [(2, 1, 1, 2, 1, 2, 2, 1)]),
    "support with gaps": (2, 2, 2, [(), (1, 2, 1), (2, 2, 1, 1, 2, 1, 2), (1, 2, 2)]),
    "zero series": (2, 2, 3, []),
    "empty word only": (2, 3, 2, [()]),
    "rectangular p < q": (2, 2, 3, [(), (1,), (2, 1), (1, 1, 2)]),
    "rectangular p > q": (2, 3, 1, [(1,), (2,), (2, 2, 2), (1, 2, 1, 2)]),
    "d = 3": (3, 2, 2, [(), (3,), (1, 3), (3, 2, 1), (2, 2, 3, 1), (3, 3)]),
    "d = 3 full degree 3": (3, 1, 2, words_up_to(3, 3)),
}


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_evaluation_matches_definition(case, n):
    d, p, q, words = CASES[case]
    rng = rng_from_seed([17, n, sorted(CASES).index(case)])
    f = series_on(rng, d, p, q, words)
    z = random_point(rng, d, n)
    got = evaluate(f, z)
    want = naive(f, z)
    assert got.shape == (n * p, n * q)
    assert np.linalg.norm(got - want) <= REL * np.linalg.norm(want)


def test_repeated_evaluation_returns_the_same_read_only_array():
    rng = rng_from_seed(3)
    f = series_on(rng, 2, 2, 2, [(), (1,), (1, 2)])
    z = random_point(rng, 2, 3)
    first = evaluate(f, z)
    assert evaluate(f, z) is first
    assert not first.flags.writeable


def test_returned_values_reject_writes():
    rng = rng_from_seed(4)
    f = series_on(rng, 2, 1, 1, [(), (2,)])
    value = evaluate(f, random_point(rng, 2, 2))
    with pytest.raises(ValueError):
        value[0, 0] = 1.0
    with pytest.raises(ValueError):
        value += 1.0


def count_misses(monkeypatch) -> list:
    """Record every series value the memo has to compute."""
    misses = []
    stream = series._stream

    def counted(f, z):
        misses.append((f, z))
        return stream(f, z)

    monkeypatch.setattr(series, "_stream", counted)
    return misses


def test_distinct_series_with_equal_terms_never_share_an_entry(monkeypatch):
    misses = count_misses(monkeypatch)
    z = random_point(rng_from_seed(5), 1, 2)
    terms = {(): [[1.0]], (1,): [[2.0]]}
    f, g = NcSeries(1, 1, 1, terms), NcSeries(1, 1, 1, terms)
    assert evaluate(f, z) is not evaluate(g, z)
    assert [id(s) for s, _ in misses] == [id(f), id(g)]


def test_series_dropped_in_turn_never_find_a_stale_entry():
    # CPython hands a freed object's id to the next one made, so the memo
    # must keep each series alive for as long as its entry
    z = random_point(rng_from_seed(15), 1, 2)
    for i in range(50):
        assert evaluate(NcSeries.constant(1, [[float(i)]]), z)[0, 0] == i


def kolmogorov_kernel(seed):
    rng = rng_from_seed(seed)
    h = series_on(rng, 2, 1, 2, [(), (1,), (2,), (1, 2), (2, 1, 1)])
    return KolmogorovKernel(AlgebraSpec(), h, s=2)


@pytest.mark.parametrize("n_points", [1, 4, 7])
def test_cp_certificate_computes_one_factor_value_per_point(monkeypatch, n_points):
    kernel = kolmogorov_kernel(7)
    misses = count_misses(monkeypatch)
    cert = cp_certificate(kernel, n_points=n_points, sizes=(1, 2, 3), seed=8, sampler="gaussian")
    assert cert.passed
    assert len(misses) == n_points
    assert {id(f) for f, _ in misses} == {id(kernel.h)}
    assert {id(z) for _, z in misses} == {id(z) for z in cert.points}


def test_kolmogorov_at_sample_computes_one_factor_value_per_point(monkeypatch):
    kernel = kolmogorov_kernel(9)
    rng = rng_from_seed(10)
    points = [random_point(rng, 2, n) for n in (2, 3, 2)]
    misses = count_misses(monkeypatch)
    kolmogorov_at_sample(kernel, points)
    assert len(misses) == len(points)


def test_difference_kernel_computes_each_factor_once_per_point(monkeypatch):
    kernel = kolmogorov_kernel(11)
    half = KolmogorovKernel(AlgebraSpec(), series.scale(kernel.h, 0.5), s=2)
    misses = count_misses(monkeypatch)
    cert, _ = contractive_containment(half, kernel, n_points=5, sizes=(1, 2), seed=12, sampler="gaussian")
    assert cert.passed
    assert len(misses) == 2 * 5

