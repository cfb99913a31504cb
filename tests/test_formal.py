import numpy as np
import pytest

from ncrkhs.core import MatrixTuple, ShapeMismatch, TruncationTooShort, words_up_to
from ncrkhs.formal import (
    convolve_truncated,
    formal_kolmogorov_truncated,
    is_formal_positive_truncated,
    moment_matrix,
    nilpotent_positivity_check,
)
from ncrkhs.kernels import (
    MomentKernel as FormalKernel,
    moment_kernel_from_factor as formal_kernel_from_factor,
    szego_kernel as szego_formal_kernel,
)
from ncrkhs.sampling import complex_gaussian, nilpotent_tuple, random_similarity, rng_from_seed
from ncrkhs.series import NcSeries, extract_taylor_coefficients
from ncrkhs.series import functional_evaluator as functional_from_series
from ncrkhs.series import multiply as convolve
from ncrkhs.core import zero_tuple


def random_series(rng, d, p, q, max_len=2, n_terms=4):
    words = [()] + [
        tuple(int(l) for l in rng.integers(1, d + 1, size=rng.integers(1, max_len + 1)))
        for _ in range(n_terms - 1)
    ]
    terms = {}
    for w in words:
        terms[w] = terms.get(w, 0) + complex_gaussian(rng, p, q)
    return NcSeries(d, p, q, terms)


def test_convolve_unit():
    rng = rng_from_seed(0)
    one = NcSeries.constant(2, [[1.0]])
    f = random_series(rng, 2, 1, 1)
    out = convolve(one, f)
    for w in set(out.support) | set(f.support):
        np.testing.assert_allclose(out.coefficient(w), f.coefficient(w))


def test_convolve_hand_expansion():
    a = NcSeries(2, 1, 1, {(): [[1.0]], (1,): [[1.0]]})
    b = NcSeries(2, 1, 1, {(): [[1.0]], (2,): [[1.0]]})
    out = convolve(a, b)
    assert out.support == [(), (1,), (2,), (1, 2)]
    for w in out.support:
        np.testing.assert_allclose(out.coefficient(w), [[1.0]])


def test_convolve_zero_and_shapes():
    rng = rng_from_seed(1)
    f = random_series(rng, 2, 2, 3)
    zero = NcSeries.zero(2, 3, 2)
    assert convolve(f, zero).support == []
    bad = NcSeries.zero(2, 2, 2)
    with pytest.raises(ShapeMismatch):
        convolve(f, bad)


def test_convolve_associative_and_truncation_flag():
    rng = rng_from_seed(2)
    f = random_series(rng, 2, 1, 1, max_len=3)
    g = random_series(rng, 2, 1, 1, max_len=3)
    h = random_series(rng, 2, 1, 1, max_len=3)
    left = convolve(convolve(f, g), h)
    right = convolve(f, convolve(g, h))
    for w in set(left.support) | set(right.support):
        assert np.linalg.norm(left.coefficient(w) - right.coefficient(w)) <= 1e-12 * max(
            1.0, np.linalg.norm(left.coefficient(w))
        )

    cut, truncated = convolve_truncated(f, g, 2)
    assert truncated
    assert cut.degree <= 2
    full, flag = convolve_truncated(f, g, 12)
    assert not flag


def test_moment_matrix_cases():
    szego = szego_formal_kernel(1, 3)
    np.testing.assert_allclose(moment_matrix(szego, 2), np.eye(3))
    assert is_formal_positive_truncated(szego, 3)[0]

    bad = FormalKernel(1, 1, {((), ()): [[-1.0]]}, 0)
    passed, min_eig = is_formal_positive_truncated(bad, 0)
    assert not passed and min_eig == pytest.approx(-1.0)

    rng = rng_from_seed(3)
    h = random_series(rng, 2, 1, 2, max_len=2)
    gram_kernel = formal_kernel_from_factor(h, 2)
    for level in range(3):
        assert is_formal_positive_truncated(gram_kernel, level)[0]


def test_moment_matrix_monotone_failure():
    # failure at L persists at L+1 (principal submatrix)
    moments = {((), ()): [[1.0]], ((1,), (1,)): [[-0.5]]}
    kernel = FormalKernel(1, 1, moments, 2)
    assert is_formal_positive_truncated(kernel, 0)[0]
    assert not is_formal_positive_truncated(kernel, 1)[0]
    assert not is_formal_positive_truncated(kernel, 2)[0]


def test_formal_kolmogorov_szego():
    szego = szego_formal_kernel(1, 2)
    fact = formal_kolmogorov_truncated(szego, 2)
    assert fact.rank == 3
    assert fact.reconstruction_error <= 1e-12
    for w in [(), (1,), (1, 1)]:
        got = fact.h.coefficient(w) @ fact.h.coefficient(w).conj().T
        np.testing.assert_allclose(got, [[1.0]], atol=1e-12)


def test_formal_kolmogorov_rank_one():
    rng = rng_from_seed(4)
    c = {(): complex_gaussian(rng, 1, 1), (1,): complex_gaussian(rng, 1, 1), (2,): complex_gaussian(rng, 1, 1)}
    h = NcSeries(2, 1, 1, c)
    kernel = formal_kernel_from_factor(h, 1)
    fact = formal_kolmogorov_truncated(kernel, 1)
    assert fact.rank == 1
    assert fact.reconstruction_error <= 1e-10


def test_formal_kolmogorov_round_trip_random():
    rng = rng_from_seed(5)
    for _ in range(5):
        h = random_series(rng, 2, 2, 3, max_len=2)
        kernel = formal_kernel_from_factor(h, 2)
        fact = formal_kolmogorov_truncated(kernel, 2)
        assert fact.reconstruction_error <= 1e-10


def test_formal_kolmogorov_error_is_blockwise_with_clipped_eigenvalue():
    # H H* minus a negative eigenvalue within the PSD floor: the factor clips it,
    # so the reconstruction error is small but not zero
    rng = rng_from_seed(8)
    words = words_up_to(2, 2)
    y = 2
    h = complex_gaussian(rng, len(words) * y, 2)
    u = complex_gaussian(rng, len(words) * y, 1)
    m = h @ h.conj().T - 1e-10 * (u @ u.conj().T)
    moments = {
        (wa, wb): m[i * y:(i + 1) * y, j * y:(j + 1) * y]
        for i, wa in enumerate(words) for j, wb in enumerate(words)
    }
    kernel = FormalKernel(2, y, moments, 2)
    fact = formal_kolmogorov_truncated(kernel, 2)
    assert fact.rank == 2
    want = max(
        np.linalg.norm(c - fact.h.coefficient(wa) @ fact.h.coefficient(wb).conj().T) / max(1.0, np.linalg.norm(c))
        for (wa, wb), c in moments.items()
    )
    assert 1e-12 < want < 1e-8
    # both sides round O(1) entries of M - H H*
    assert abs(fact.reconstruction_error - want) <= 1e-13


def test_formal_functional_round_trip_series():
    rng = rng_from_seed(6)
    f = random_series(rng, 2, 2, 2, max_len=4, n_terms=6)
    ev = functional_from_series(f)
    got = extract_taylor_coefficients(ev, 2, 4, 2, 2)
    for w in set(f.support) | set(got.support):
        assert np.linalg.norm(got.coefficient(w) - f.coefficient(w)) <= 1e-12 * max(
            1.0, np.linalg.norm(f.coefficient(w))
        )


def test_zero_series_zero_evaluator():
    ev = functional_from_series(NcSeries.zero(2, 2, 2))
    z = zero_tuple(2, 3)
    assert np.all(ev(z) == 0)


def test_nilpotent_positivity_agreement():
    rng = rng_from_seed(7)
    # positive: Gram-built kernels
    for _ in range(5):
        h = random_series(rng, 2, 1, 2, max_len=2)
        kernel = formal_kernel_from_factor(h, 2)
        cert = nilpotent_positivity_check(kernel, seed=1)
        assert cert.passed == is_formal_positive_truncated(kernel, 2)[0] == True  # noqa: E712

    # negative: plant a strictly negative direction
    moments = {((), ()): [[1.0]], ((1,), (1,)): [[-1.0]]}
    planted = FormalKernel(2, 1, moments, 2)
    assert not is_formal_positive_truncated(planted, 2)[0]
    cert = nilpotent_positivity_check(planted, seed=1)
    assert not cert.passed
    assert cert.witness is not None


def test_nilpotent_positivity_truncation_guard():
    # sizes beyond the coverage max_len + 1 are clamped, as in every certificate
    kernel = szego_formal_kernel(1, 1)
    cert = nilpotent_positivity_check(kernel, n_points=2, sizes=(4,))
    assert cert.passed
    assert cert.sample_description["sizes"][:2] == [2, 2]
    # the moment matrix cannot be clamped: words beyond max_len are unknown
    with pytest.raises(TruncationTooShort):
        moment_matrix(kernel, 2)


def test_zero_kernel_passes():
    kernel = FormalKernel(2, 1, {}, 2)
    assert nilpotent_positivity_check(kernel, seed=0).passed


def test_positivity_check_forms_no_value_at_the_shift_size(monkeypatch):
    # the shift's value is the table placed on its words: no factor value or nilpotency test at size |W|;
    # of the sampled points, only one that is not strictly triangular is tested
    from ncrkhs import formal, kernels

    kernel = szego_formal_kernel(2, 3)
    size = len(words_up_to(2, 3))
    rng = rng_from_seed(2)
    similarity = random_similarity(rng, 3)
    dense = MatrixTuple(tuple(similarity @ c @ np.linalg.inv(similarity) for c in nilpotent_tuple(rng, 2, 3).coords))
    sample_points = formal.sample_points

    def with_dense(*args):
        sampler, points = sample_points(*args)
        return sampler, points + [dense]

    monkeypatch.setattr(formal, "sample_points", with_dense)
    factor_sizes, order_sizes = [], []
    factor_values, nilpotency_orders = kernels.factor_values, kernels.nilpotency_orders
    monkeypatch.setattr(kernels, "factor_values",
                        lambda f, zs: factor_sizes.extend(z.n for z in zs) or factor_values(f, zs))
    monkeypatch.setattr(kernels, "nilpotency_orders",
                        lambda zs, tol: order_sizes.extend(z.n for z in zs) or nilpotency_orders(zs, tol))
    cert = nilpotent_positivity_check(kernel, seed=1)
    assert cert.passed and cert.points[-2] is dense
    assert cert.points[-1].n == size
    assert factor_sizes and max(factor_sizes) <= kernel.max_len + 1 < size
    assert order_sizes == [dense.n]


def _hermitian_table(rng, d, y, max_len):
    words = words_up_to(d, max_len)
    a = complex_gaussian(rng, len(words) * y, len(words) * y)
    h = (a + a.conj().T).reshape(len(words), y, len(words), y)
    return FormalKernel(d, y, {(u, v): h[i, :, j, :] for i, u in enumerate(words)
                               for j, v in enumerate(words)}, max_len)


SHIFT_CASES = {
    "szego-d1": lambda: szego_formal_kernel(1, 4),
    "szego-d2": lambda: szego_formal_kernel(2, 3),
    "szego-d3": lambda: szego_formal_kernel(3, 2),
    "szego-y2": lambda: szego_formal_kernel(2, 2, y_dim=2),
    "hermitian-y2": lambda: _hermitian_table(rng_from_seed(60), 2, 2, 3),
    "hermitian-d3": lambda: _hermitian_table(rng_from_seed(61), 3, 1, 2),
    "sparse": lambda: FormalKernel(2, 1, {((1,), (2, 1)): [[0.5j]], ((2, 1), (1,)): [[-0.5j]],
                                          ((), ()): [[3.0]], ((2,), (2,)): [[-1.0]]}, 3),
    "max-len-0": lambda: FormalKernel(2, 2, {((), ()): [[2.0, 1.0], [1.0, 2.0]]}, 0),
    "empty": lambda: FormalKernel(2, 1, {}, 2),
}


def _suffix_closure(kernel):
    return sorted({()} | {w[i:] for w in kernel.words for i in range(len(w))}, key=lambda w: (len(w), w))


def _tested_matrices(monkeypatch, kernel, **kwargs):
    """The certificate of nilpotent_positivity_check and the matrices its verdict tested."""
    from ncrkhs import formal

    seen = []
    psd_verdict = formal.psd_verdict
    monkeypatch.setattr(formal, "psd_verdict", lambda mats, tol: psd_verdict(seen.extend(mats) or seen, tol))
    return nilpotent_positivity_check(kernel, **kwargs), seen


@pytest.mark.parametrize("name", sorted(SHIFT_CASES))
def test_shift_values_match_evaluation_at_the_shift(monkeypatch, name):
    # the shift's value is K(T,T)(e_() e_()*) at the free shift compressed to the stored words' suffixes
    kernel = SHIFT_CASES[name]()
    cert, tested = _tested_matrices(monkeypatch, kernel, seed=2)
    shift = cert.points[-1]
    assert shift.n == len(_suffix_closure(kernel)) and shift.d == kernel.d
    vacuum = np.zeros((shift.n, shift.n))
    vacuum[0, 0] = 1.0
    want = kernel.evaluate(shift, shift, vacuum)
    # one nonzero product per entry, so evaluation through F(T) is exact
    assert np.array_equal(tested[-1], want)
    assert len(tested) == len(cert.points)


@pytest.mark.parametrize("name, level", [("sparse", 2), ("empty", 0), ("max-len-0", 0), ("szego-d2", 3)])
def test_the_witness_shift_is_built_at_the_longest_stored_word(name, level):
    kernel = SHIFT_CASES[name]()
    cert = nilpotent_positivity_check(kernel, seed=3)
    shift = cert.points[-1]
    assert shift.n == len(_suffix_closure(kernel)) and shift.structural_order == level + 1
    assert [z.n for z in cert.points[:-1]] == cert.sample_description["sizes"][:-1]
    # the moment matrix at max_len pads the one at the level with zeros, so the verdict is the moment route's
    assert cert.passed == is_formal_positive_truncated(kernel, kernel.max_len)[0]


def test_a_table_declaring_far_more_than_it_stores_is_checked_at_its_words():
    kernel = FormalKernel(2, 1, {((), ()): [[1.0]]}, 40)
    cert = nilpotent_positivity_check(kernel, seed=1)
    assert cert.passed
    assert cert.points[-1].n == 1
    bad = FormalKernel(2, 1, {((), ()): [[1.0]], ((1,), (1,)): [[-1.0]]}, 40)
    assert not nilpotent_positivity_check(bad, seed=1).passed
