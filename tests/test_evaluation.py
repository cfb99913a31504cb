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
from hypothesis import given, settings, strategies as st

from ncrkhs import kernels, series
from ncrkhs.core import EMPTY_WORD, MatrixTuple, direct_sum, direct_sum_matrices, kron, word_eval, words_up_to
from ncrkhs.kernels import AlgebraSpec, KolmogorovKernel, cp_certificate, kolmogorov_at_sample, szego_kernel
from ncrkhs.multipliers import contractive_containment
from ncrkhs.sampling import complex_gaussian, random_similarity, rng_from_seed
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


def one_hot(f: WordIndicator) -> NcSeries:
    """The word indicator as a series: coefficient e_a^T (x) I_y on its a-th word."""
    eye = np.eye(len(f.words) * f.y_dim, dtype=np.complex128)
    return NcSeries(f.d, f.y_dim, len(eye), {w: eye[i * f.y_dim:(i + 1) * f.y_dim] for i, w in enumerate(f.words)})


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
        assert close(value, naive(one_hot(indicator), z))


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



# ---------------------------------------------------------------------------
# the split w = u.v at suffix length s (Paterson-Stockmeyer)
# ---------------------------------------------------------------------------

def walked(f: NcSeries, z: MatrixTuple) -> np.ndarray:
    """A copy of the value before the split: the walk over f's whole plan, each power summed against f_w."""
    n, p, q = z.n, f.out_dim, f.in_dim
    blocks = series._power_blocks(series._Plan(f.d, list(f.terms)), z.stacked[None])
    acc = series._summed(blocks, f._coeffs.reshape(len(f.terms), p * q), 1, n * n)
    return acc.reshape(n, n, p, q).transpose(0, 2, 1, 3).reshape(n * p, n * q)


def split_value(f: NcSeries, z: MatrixTuple, s: int) -> np.ndarray:
    """f's value at z split at suffix length s, whatever the cost model would choose."""
    key = (z.n, series._BLOCK_BYTES)
    f._splits[key] = series._Split(f, s)
    try:
        return series._series_values(f, z.stacked[None])[0]
    finally:
        del f._splits[key]


def graded(d: int, low: int, high: int) -> list:
    """Every word of length low..high over d letters, in graded order."""
    return [w for k in range(low, high + 1) for w in product(range(1, d + 1), repeat=k)]


# (d, p, q, support): full, sparse and monomial supports, supports without
# short words, and p != q
SPLIT_CASES = {
    "d = 1 full degree 8": (1, 2, 1, graded(1, 0, 8)),
    "d = 1 long words only": (1, 1, 3, graded(1, 5, 9)),
    "d = 2 full degree 6": (2, 2, 2, graded(2, 0, 6)),
    "d = 2 sparse": (2, 2, 3, [(), (2,), (1, 2, 1), (2, 2, 1, 1, 2), (1, 1, 1, 1, 2, 2), (2, 1, 2, 1, 2, 1, 1)]),
    "d = 2 monomial": (2, 1, 1, [(2, 1, 1, 2, 1, 2, 2, 1)]),
    "d = 2 long words only": (2, 1, 2, graded(2, 4, 6)),
    "d = 3 full degree 4": (3, 3, 2, graded(3, 0, 4)),
    "d = 3 sparse": (3, 1, 2, [(3,), (1, 3), (2, 2, 3, 1), (3, 1, 2, 2, 1), (1, 1, 3), (3, 3, 3, 3, 3)]),
    "d = 3 long words only": (3, 2, 1, graded(3, 3, 4)),
}


@pytest.mark.parametrize("n", [16, 24, 32])
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_every_split_matches_the_definition_and_the_walk(case, n):
    d, p, q, words = SPLIT_CASES[case]
    rng = rng_from_seed([41, n, sorted(SPLIT_CASES).index(case)])
    f = series_on(rng, d, p, q, words)
    z = random_point(rng, d, n)
    want, walk = naive(f, z), walked(f, z)
    assert close(walk, want)
    for s in range(1, f.degree + 1):
        got = split_value(f, z, s)
        assert got.shape == (n * p, n * q)
        assert close(got, want) and close(got, walk), s
    assert same_bits(split_value(f, z, f.degree), walk)  # s = deg f is the walk
    assert close(evaluate(f, z), want)


# the cost model at the sizes the benchmark runs: degree-8 values split at
# n = 32 (eval-n32) and walk at n = 8 (eval-n8), where a one-shot split's
# build costs what it saves; nilp-eval's degree-6 and degree-4 values and
# desk-scale certificate factors (degree <= 5, n <= 4) walk
@pytest.mark.parametrize("d, degree, p, q, n, splits", [
    (2, 8, 2, 2, 32, True), (2, 8, 2, 2, 16, True), (3, 8, 1, 1, 16, True), (2, 8, 2, 2, 8, False),
    (2, 6, 2, 2, 12, False), (3, 4, 2, 2, 10, False), (2, 4, 1, 2, 4, False), (2, 5, 1, 3, 4, False),
    (2, 3, 1, 1, 32, False), (1, 8, 2, 2, 32, False), (2, 8, 2, 2, 2, False), (2, 8, 2, 2, 1, False),
    (2, 8, 2, 2, 0, False),
])
def test_the_cost_model_splits_where_it_saves_products(d, degree, p, q, n, splits):
    f = series_on(rng_from_seed(42), d, p, q, graded(d, 0, degree))
    s = series._cheapest(f, n)
    assert (s < degree) == splits
    assert 1 <= s <= degree


def test_split_values_are_bitwise_the_same_alone_and_in_a_batch():
    rng = rng_from_seed(43)
    f = series_on(rng, 2, 2, 3, graded(2, 0, 7))
    points = [random_point(rng, 2, n) for n in (24, 32, 24, 32, 24, 8)]
    values = factor_values(f, points)
    assert all(series._split(f, n).prefixes is not None for n in (24, 32))
    for z, value in zip(points, values):
        assert same_bits(value, evaluate(f, MatrixTuple(z.coords)))
        assert close(value, naive(f, z))


def test_each_split_is_built_once_per_series_and_suffix_length(monkeypatch):
    built = []
    split = series._Split

    def counted(f, s):
        built.append((id(f), s))
        return split(f, s)

    monkeypatch.setattr(series, "_Split", counted)
    rng = rng_from_seed(44)
    f, g = (series_on(rng, 2, 2, 2, graded(2, 0, 8)) for _ in range(2))
    sizes = (32, 8, 32, 1, 16, 8, 1)
    for n in sizes:
        for h in (f, g):
            evaluate(h, random_point(rng, 2, n))
    want = list(dict.fromkeys(series._cheapest(f, n) for n in sizes))
    assert len(want) > 1  # the walk and a split
    assert built == [(id(h), s) for s in want for h in (f, g)]


@pytest.mark.parametrize("n, bound, splits", [(32, 1 << 20, True), (32, 1 << 19, True), (16, 1 << 18, False)])
def test_split_powers_held_stay_within_the_block_bytes(monkeypatch, n, bound, splits):
    # d = 3, degree 8: 9,841 terms; the walk would form 9,841 powers.  At the
    # smallest bound the split's tables and build indices leave no room.
    monkeypatch.setattr(series, "_BLOCK_BYTES", bound)
    rng = rng_from_seed(45)
    f = series_on(rng, 3, 1, 1, graded(3, 0, 8))
    evaluate(f, random_point(rng, 3, 1))  # builds f's plan
    z = random_point(rng, 3, n)
    z.stacked  # noqa: B018 - the point's stacked coordinates, built outside the trace
    tracemalloc.start()
    try:
        value = evaluate(f, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (series._split(f, n).prefixes is not None) == splits
    # beside the bound: the value, its accumulator and one product's
    # temporary, and the batch's copy of the point
    assert peak <= bound + 3 * value.nbytes + z.stacked.nbytes
    assert close(value, walked(f, z))


def random_words(rng, d: int, degree: int) -> list:
    """Up to 40 distinct random words of length <= degree."""
    lengths = rng.integers(0, degree + 1, size=int(rng.integers(1, 41)))
    return list(dict.fromkeys(tuple(int(a) for a in rng.integers(1, d + 1, size=k)) for k in lengths))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3), degree=st.integers(0, 8), full=st.booleans(),
       n=st.integers(1, 16), m=st.integers(1, 16), p=st.integers(1, 2), q=st.integers(1, 3), data=st.data())
def test_values_respect_direct_sums_and_similarities(seed, d, degree, full, n, m, p, q, data):
    # F(Z (+) W) = F(Z) (+) F(W) and F(S Z S^-1) = (S (x) I_p) F(Z) (S^-1 (x) I_q), at the chosen
    # split and forced to the walk and to a split: both sides of the crossover, at sizes up to 32.
    # A wrong split is still an nc polynomial, so the routes are also held to each other.
    rng = rng_from_seed(seed)
    f = series_on(rng, d, p, q, graded(d, 0, degree) if full and d ** degree <= 512 else random_words(rng, d, degree))
    s = data.draw(st.integers(1, max(f.degree, 1)), label="s")
    routes = [lambda x: evaluate(f, x)]
    if f.degree >= 1:
        routes += [lambda x: split_value(f, x, f.degree), lambda x: split_value(f, x, s)]
    z, w = random_point(rng, d, n), random_point(rng, d, m)
    zw = direct_sum([z, w])
    sim = random_similarity(rng, n + m)
    inv = np.linalg.inv(sim)
    zt = MatrixTuple(tuple(sim @ c @ inv for c in zw.coords))
    bound = 1e-12 * np.linalg.cond(sim) ** 2
    for value in routes:
        whole = value(zw)
        assert close(whole, routes[-1](zw))  # the routes agree
        assert np.linalg.norm(whole - direct_sum_matrices([value(z), value(w)])) <= REL * np.linalg.norm(whole)
        moved = kron(sim, np.eye(p)) @ whole @ kron(inv, np.eye(q))
        assert np.linalg.norm(value(zt) - moved) <= bound * max(np.linalg.norm(moved), 1e-300)
