"""The block-walk series evaluator, its block bound and the per-point value memo.

Two references: the definition ``sum_w kron(word_eval(w, Z), f_w)``, one
word product and one Kronecker product per term, and a test-local copy of
the depth-first prefix stream the block walk replaced, which holds one
product per trie level and adds one broadcast per word.  The walk sums the
same terms in another order, so values agree to rounding: the bound is
1e-12 relative in the Frobenius norm.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from ncrkhs import kernels, series
from ncrkhs.core import EMPTY_WORD, MatrixTuple, kron, word_eval, words_up_to
from ncrkhs.kernels import AlgebraSpec, KolmogorovKernel, cp_certificate, kolmogorov_at_sample, szego_kernel
from ncrkhs.multipliers import contractive_containment
from ncrkhs.sampling import complex_gaussian, rng_from_seed
from ncrkhs.series import (
    NcSeries,
    WordIndicator,
    evaluate,
    evaluate_on_nilpotent,
    factor_values,
    truncate,
    truncated_shift_tuple,
)

REL = 1e-12


def naive(f: NcSeries, z: MatrixTuple) -> np.ndarray:
    out = np.zeros((z.n * f.out_dim, z.n * f.in_dim), dtype=np.complex128)
    for w, c in f.terms.items():
        out += kron(word_eval(w, z), c)
    return out


def prefix_powers(words, z: MatrixTuple):
    """(w, Z^w) for each word, in lexicographic order: a depth-first walk of the prefix trie."""
    prefix = [np.eye(z.n, dtype=np.complex128)]  # prefix[k] = Z^{prev[:k]}
    prev = EMPTY_WORD
    for w in sorted(words):
        shared = 0
        while shared < min(len(prev), len(w)) and prev[shared] == w[shared]:
            shared += 1
        del prefix[shared + 1:]
        for letter in w[shared:]:
            prefix.append(prefix[-1] @ z.coords[letter - 1])
        yield w, prefix[-1]
        prev = w


def streamed(f: NcSeries, z: MatrixTuple) -> np.ndarray:
    """sum_w Z^w (x) f_w accumulated word by word along the depth-first walk."""
    n = z.n
    out = np.zeros((n, f.out_dim, n, f.in_dim), dtype=np.complex128)
    for w, power in prefix_powers(f.terms, z):
        out += power[:, None, :, None] * f.terms[w][None, :, None, :]
    return out.reshape(n * f.out_dim, n * f.in_dim)


def streamed_word_blocks(f: WordIndicator, z: MatrixTuple) -> np.ndarray:
    """The block row [Z^a (x) I_y]_a written word by word along the depth-first walk."""
    n, y = z.n, f.y_dim
    column = {w: i for i, w in enumerate(f.words)}
    blocks = np.empty((n, n, len(f.words)), dtype=np.complex128)
    for w, power in prefix_powers(f.words, z):
        blocks[:, :, column[w]] = power
    out = blocks[:, None, :, :, None] * np.eye(y)[None, :, None, None, :]
    return out.reshape(n * y, n * len(f.words) * y)


def random_point(rng, d, n):
    # spectral norms near one keep degree-8 products at the scale of the data
    return MatrixTuple(tuple(complex_gaussian(rng, n, n) / np.sqrt(2 * n) for _ in range(d)))


def series_on(rng, d, p, q, words):
    return NcSeries(d, p, q, {w: complex_gaussian(rng, p, q) for w in words})


def close(got, want):
    return np.linalg.norm(got - want) <= REL * np.linalg.norm(want)


MONOMIAL_20 = (2, 1, 1, 2, 1, 2, 2, 1, 2, 2, 2, 1, 1, 2, 1, 2, 2, 1, 1, 2)

# (d, p, q, support).  The empty word alone and the full supports are
# prefix-closed; no other support is, so the walk must form the powers of
# words it skips.
CASES = {
    "degree-8 monomial": (2, 1, 1, [(2, 1, 1, 2, 1, 2, 2, 1)]),
    "support with gaps": (2, 2, 2, [(), (1, 2, 1), (2, 2, 1, 1, 2, 1, 2), (1, 2, 2)]),
    "zero series": (2, 2, 3, []),
    "empty word only": (2, 3, 2, [()]),
    "rectangular p < q": (2, 2, 3, [(), (1,), (2, 1), (1, 1, 2)]),
    "rectangular p > q": (2, 3, 1, [(1,), (2,), (2, 2, 2), (1, 2, 1, 2)]),
    "d = 1 gaps": (1, 2, 1, [(1,), (1, 1, 1), (1,) * 6]),
    "d = 1 full": (1, 1, 2, words_up_to(1, 5)),
    "d = 2 full degree 4": (2, 2, 2, words_up_to(2, 4)),
    "d = 3": (3, 2, 2, [(), (3,), (1, 3), (3, 2, 1), (2, 2, 3, 1), (3, 3)]),
    "d = 3 full degree 3": (3, 1, 2, words_up_to(3, 3)),
    "d = 3 partial families": (3, 1, 1, [(), (1,), (2,), (1, 1), (1, 2), (1, 3), (2, 3), (2, 3, 1), (3, 1, 1)]),
    "length-20 monomial and short words": (2, 2, 1, [MONOMIAL_20] + words_up_to(2, 2) + [MONOMIAL_20[:7]]),
}


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_evaluation_matches_definition(case, n):
    d, p, q, words = CASES[case]
    rng = rng_from_seed([17, n, sorted(CASES).index(case)])
    f = series_on(rng, d, p, q, words)
    z = random_point(rng, d, n)
    got = evaluate(f, z)
    assert got.shape == (n * p, n * q)
    assert close(got, naive(f, z))
    assert close(got, streamed(f, z))


@pytest.mark.parametrize("nodes", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_blocks_of_one_or_two_nodes_match_the_references(monkeypatch, case, nodes):
    # the widest level's share of the bytes is `nodes` powers, so blocks
    # break inside levels and families
    d, p, q, words = CASES[case]
    n = 3
    rng = rng_from_seed([18, nodes, sorted(CASES).index(case)])
    f = series_on(rng, d, p, q, words)
    plan = series._Plan(d, list(f.terms))
    share = nodes * plan.size // max(plan.width, default=1)
    assert max(plan.caps(share), default=1) <= nodes
    monkeypatch.setattr(series, "_BLOCK_BYTES", 16 * n * n * share)
    z = random_point(rng, d, n)
    got = evaluate(f, z)
    assert close(got, naive(f, z))
    assert close(got, streamed(f, z))
    indicator = WordIndicator(d, 2, tuple(reversed(words)))
    assert close(evaluate(indicator, z), streamed_word_blocks(indicator, z))


@pytest.mark.parametrize("words", [words_up_to(2, 3), [(2, 1), (), (1, 1, 2), (2,)], [MONOMIAL_20, (1,)]],
                         ids=["complete", "unsorted", "monomial"])
@pytest.mark.parametrize("y", [1, 3])
def test_word_indicator_matches_the_streamed_blocks(words, y):
    rng = rng_from_seed([19, y, len(words)])
    indicator = WordIndicator(2, y, tuple(words))
    z = random_point(rng, 2, 4)
    got = evaluate(indicator, z)
    assert got.shape == (4 * y, 4 * len(words) * y)
    assert close(got, streamed_word_blocks(indicator, z))


def test_empty_point_and_empty_support():
    rng = rng_from_seed(20)
    empty = MatrixTuple((np.zeros((0, 0)),) * 2)
    f = series_on(rng, 2, 2, 3, [(), (1, 2), (2, 2, 1)])
    assert evaluate(f, empty).shape == (0, 0)
    assert evaluate(WordIndicator(2, 2, ((), (1,), (2, 1))), empty).shape == (0, 0)
    zero = NcSeries.zero(2, 2, 3)
    assert evaluate(zero, empty).shape == (0, 0)
    value = evaluate(zero, random_point(rng, 2, 3))
    assert value.shape == (6, 9) and not value.any()


def test_a_series_builds_its_plan_once(monkeypatch):
    built = []
    plan = series._Plan

    def counted(d, words):
        built.append(tuple(words))
        return plan(d, words)

    monkeypatch.setattr(series, "_Plan", counted)
    rng = rng_from_seed(21)
    f = series_on(rng, 2, 1, 2, words_up_to(2, 3))
    indicator = WordIndicator(2, 1, tuple(words_up_to(2, 2)))
    for n in (1, 2, 3, 3, 4):
        z = random_point(rng, 2, n)
        evaluate(f, z)
        evaluate(indicator, z)
    assert built == [tuple(f.terms), tuple(indicator.words)]


def test_nilpotent_evaluation_truncates_once_per_order(monkeypatch):
    built = []
    plan = series._Plan

    def counted(d, words):
        built.append(len(words[-1]))
        return plan(d, words)

    monkeypatch.setattr(series, "_Plan", counted)
    f = series_on(rng_from_seed(23), 2, 1, 2, words_up_to(2, 5))
    z = truncated_shift_tuple(2, 2)  # nilpotent of order 3
    values = [evaluate_on_nilpotent(f, z) for _ in range(3)]
    assert values[0] is values[1] is values[2] and len(z._values) == 1
    assert close(values[0], naive(truncate(f, 2), z))
    for point in (truncated_shift_tuple(2, 2), truncated_shift_tuple(2, 1), truncated_shift_tuple(2, 1)):
        evaluate_on_nilpotent(f, point)
    # one truncation, with its plan, per order met
    assert built == [2, 1]


@pytest.mark.parametrize("bound", [1 << 18, 1 << 20])
def test_powers_held_stay_within_the_block_bytes(monkeypatch, bound):
    # degree 12 in two letters: 8,191 trie nodes, 32 MiB of 16 x 16 powers; the
    # words in graded order, listed here since words_up_to stops at 2,048
    monkeypatch.setattr(series, "_BLOCK_BYTES", bound)
    rng = rng_from_seed(22)
    f = series_on(rng, 2, 1, 1, [w for k in range(13) for w in product((1, 2), repeat=k)])
    evaluate(f, random_point(rng, 2, 1))  # builds the plan
    z = random_point(rng, 2, 16)
    tracemalloc.start()
    try:
        value = evaluate(f, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beside the bound: the value, its accumulator and their temporaries, and
    # a few powers on the levels whose share is below one node
    assert peak <= bound + 4 * value.nbytes + 4 * 13 * 16 * 16 * 16


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
    """Record every series value the memo has to compute: one (series, point) per point of a batched walk."""
    misses = []
    values = series._values

    def counted(f, points):
        misses.extend((f, z) for z in points)
        return values(f, points)

    monkeypatch.setattr(series, "_values", counted)
    return misses


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# mixed sizes in an order that interleaves them, with empty and 1 x 1 points
BATCH_SIZES = (3, 0, 1, 3, 2, 1, 1, 3, 0, 2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_values_equal_per_point_evaluation(case):
    d, p, q, words = CASES[case]
    rng = rng_from_seed([24, sorted(CASES).index(case)])
    f = series_on(rng, d, p, q, words)
    points = [random_point(rng, d, n) for n in BATCH_SIZES]
    for z, value in zip(points, factor_values(f, points)):
        # a fresh copy of the point is walked alone
        assert same_bits(value, evaluate(f, MatrixTuple(z.coords)))
        assert close(value, naive(f, z))
    # the action of each point, X with 1 to 3 columns, is bitwise the same alone and in a batch of its size
    for n, r in product(sorted(set(BATCH_SIZES)), (1, 2, 3)):
        coords = np.array([z.stacked for z in points if z.n == n])
        x = np.array([complex_gaussian(rng, n, r) for _ in coords])
        batch = series._series_action(f, coords, x)
        for i in range(len(coords)):
            assert same_bits(batch[i], series._series_action(f, coords[i:i + 1], x[i:i + 1])[0])


@pytest.mark.parametrize("words", [words_up_to(2, 3), [(2, 1), (), (1, 1, 2), (2,)], [MONOMIAL_20, (1,)]],
                         ids=["complete", "unsorted", "monomial"])
@pytest.mark.parametrize("y", [1, 2])
def test_batched_word_blocks_equal_per_point_values(words, y):
    rng = rng_from_seed([25, y, len(words)])
    indicator = WordIndicator(2, y, tuple(words))
    points = [random_point(rng, 2, n) for n in BATCH_SIZES]
    for z, value in zip(points, factor_values(indicator, points)):
        assert same_bits(value, evaluate(indicator, MatrixTuple(z.coords)))
        assert close(value, naive(indicator.as_series(), z))


def count_walks(monkeypatch) -> list:
    """Record the batch shape (points, d, n, n) of every walk of a trie."""
    walks = []
    blocks = series._power_blocks

    def counted(plan, coords):
        walks.append(coords.shape)
        return blocks(plan, coords)

    monkeypatch.setattr(series, "_power_blocks", counted)
    return walks


def test_a_batch_holds_the_points_whose_powers_fit_the_block_bytes(monkeypatch):
    rng = rng_from_seed(26)
    f = series_on(rng, 2, 1, 2, words_up_to(2, 3))
    # the whole trie of two points of size 3
    monkeypatch.setattr(series, "_BLOCK_BYTES", 2 * 16 * 9 * f._plan.size)
    points = [random_point(rng, 2, n) for n in (3, 3, 3, 3, 3, 2)]
    walks = count_walks(monkeypatch)
    values = factor_values(f, points)
    assert walks == [(2, 2, 3, 3), (2, 2, 3, 3), (1, 2, 3, 3), (1, 2, 2, 2)]
    for z, value in zip(points, values):
        assert same_bits(value, evaluate(f, MatrixTuple(z.coords)))


CERTIFIED = {
    "kolmogorov": lambda: cp_certificate(kolmogorov_kernel(13), n_points=9, sizes=(1, 2, 3), seed=14,
                                         sampler="gaussian"),
    "difference": lambda: contractive_containment(
        KolmogorovKernel(AlgebraSpec(), series.scale(kolmogorov_kernel(13).h, 0.5), s=2), kolmogorov_kernel(13),
        n_points=9, sizes=(1, 2, 3), seed=14, sampler="gaussian")[0],
    "moment": lambda: cp_certificate(szego_kernel(2, 3), n_points=9, sizes=(1, 2, 3), seed=14),
}


@pytest.mark.parametrize("kernel", sorted(CERTIFIED))
def test_a_certificate_makes_one_walk_per_size_and_factor(monkeypatch, kernel):
    walks = count_walks(monkeypatch)
    cert = CERTIFIED[kernel]()
    assert cert.passed
    assert [z.n for z in cert.points] == [1, 2, 3] * 3
    factors = 2 if kernel == "difference" else 1
    assert sorted(walks) == sorted([(3, 2, n, n) for n in (1, 2, 3)] * factors)


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


def test_kernel_evaluate_forms_two_fresh_points_of_one_size_in_one_walk(monkeypatch):
    kernel = kolmogorov_kernel(16)
    rng = rng_from_seed(17)
    z, w, v = (random_point(rng, 2, n) for n in (3, 3, 2))
    p = complex_gaussian(rng, 3, 3)
    calls = []
    values = series._values
    monkeypatch.setattr(series, "_values", lambda f, points: calls.append([id(q) for q in points]) or values(f, points))
    got = kernel.evaluate(z, w, p)
    kernel.evaluate(z, v, complex_gaussian(rng, 3, 2))
    assert calls == [[id(z), id(w)], [id(v)]]
    # the same bits as from values formed one point at a time
    zc, wc = MatrixTuple(z.coords), MatrixTuple(w.coords)
    evaluate(kernel.h, zc)
    evaluate(kernel.h, wc)
    assert same_bits(got, kernel.evaluate(zc, wc, p))


def test_each_point_keeps_one_read_only_entry_per_key():
    kernel = kolmogorov_kernel(18)
    h = kernel.h
    rng = rng_from_seed(19)
    z, w, zt = (random_point(rng, 2, n) for n in (2, 2, 3))
    for _ in range(2):
        evaluate(h, z)
        factor_values(h, [w, z, w])
        kernel.evaluate(z, w, np.eye(2))
        total = kernels._direct_sum(z, zt)
    assert kernels._direct_sum(z, zt) is total
    assert evaluate(h, z) is factor_values(h, [w, z])[1]
    for point, keys in ((z, [h, zt]), (w, [h]), (zt, [])):
        assert [key for key, _ in point._values.values()] == keys
    for point in (z, w):
        assert not point._values[id(h)][1].flags.writeable


def test_difference_kernel_computes_each_factor_once_per_point(monkeypatch):
    kernel = kolmogorov_kernel(11)
    half = KolmogorovKernel(AlgebraSpec(), series.scale(kernel.h, 0.5), s=2)
    misses = count_misses(monkeypatch)
    cert, _ = contractive_containment(half, kernel, n_points=5, sizes=(1, 2), seed=12, sampler="gaussian")
    assert cert.passed
    assert len(misses) == 2 * 5

