import re

import numpy as np
import pytest

from ncrkhs.core import (
    DEFAULT_TOL,
    BadIntertwiner,
    InconsistentEvaluator,
    InputError,
    MatrixTuple,
    NotNilpotent,
    as_cmatrix,
    direct_sum,
    kron,
    validate_word,
    word_key,
    words_up_to,
    zero_tuple,
)
from ncrkhs.sampling import complex_gaussian, nilpotent_tuple, random_similarity, rng_from_seed
from ncrkhs.series import (
    AxiomReport,
    NcSeries,
    add,
    check_respects_direct_sums,
    check_respects_intertwinings,
    evaluate,
    evaluate_on_nilpotent,
    extract_taylor_coefficients,
    functional_evaluator,
    nilpotency_order,
    scale,
    truncate,
    truncated_shift_tuple,
)

J2 = np.array([[0.0, 1.0], [0.0, 0.0]])


def random_series(rng, d, out_dim, in_dim, max_len=2, n_terms=4):
    words = [()] + [
        tuple(int(l) for l in rng.integers(1, d + 1, size=rng.integers(1, max_len + 1)))
        for _ in range(n_terms - 1)
    ]
    terms = {}
    for w in words:
        terms[w] = terms.get(w, 0) + complex_gaussian(rng, out_dim, in_dim)
    return NcSeries(d, out_dim, in_dim, terms)


def test_evaluate_constant():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = NcSeries.constant(3, c)
    z = zero_tuple(3, 2)
    np.testing.assert_allclose(evaluate(f, z), kron(np.eye(2), c))


def test_evaluate_single_variable():
    f = NcSeries.monomial(1, (1,), [[1.0]])
    z = MatrixTuple((J2,))
    np.testing.assert_allclose(evaluate(f, z), J2)


def test_evaluate_product_word():
    # f = z_1 z_2 with scalar coefficient: stored word (1, 2), value Z_1 @ Z_2
    f = NcSeries.monomial(2, (1, 2), [[1.0]])
    z1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    z2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    value = evaluate(f, MatrixTuple((z1, z2)))
    np.testing.assert_allclose(value, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


def test_empty_series_evaluates_to_zero():
    f = NcSeries.zero(2, 3, 2)
    z = zero_tuple(2, 2)
    assert evaluate(f, z).shape == (6, 4)
    assert np.all(evaluate(f, z) == 0)


def test_direct_sum_axiom_passes():
    rng = rng_from_seed(1)
    f = random_series(rng, 2, 2, 3)
    samples = [
        (
            MatrixTuple(tuple(complex_gaussian(rng, 3, 3) for _ in range(2))),
            MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(2))),
        )
        for _ in range(5)
    ]
    report = check_respects_direct_sums(f, samples)
    assert report.passed
    assert report.max_violation <= 1e-12


def test_direct_sum_axiom_negative_control():
    rng = rng_from_seed(2)
    f = random_series(rng, 2, 1, 1)

    def corrupted(point):
        value = evaluate(f, point)
        if point.n >= 3:
            value = value.copy()
            value[-1, -1] = 0.0  # break one block
        return value

    z = MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(2)))
    w = MatrixTuple(tuple(complex_gaussian(rng, 1, 1) + 2 * np.eye(1) for _ in range(2)))
    report = check_respects_direct_sums(f, [(z, w)], evaluator=corrupted)
    assert not report.passed
    assert report.witness is not None


def test_intertwining_identity_and_similarity():
    rng = rng_from_seed(3)
    f = random_series(rng, 2, 2, 2)
    z = MatrixTuple(tuple(complex_gaussian(rng, 3, 3) for _ in range(2)))

    # alpha = identity
    report = check_respects_intertwinings(f, [(z, z, np.eye(3))])
    assert report.passed

    # similarity intertwiner
    s = random_similarity(rng, 3)
    zt = MatrixTuple(tuple(s @ c @ np.linalg.inv(s) for c in z.coords))
    report = check_respects_intertwinings(f, [(z, zt, s)])
    assert report.passed


def test_intertwining_column_embedding():
    rng = rng_from_seed(4)
    f = random_series(rng, 2, 2, 1)
    z = MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(2)))
    w = MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(2)))
    big = direct_sum([z, w])
    alpha = np.vstack([np.eye(2), np.zeros((2, 2))])
    report = check_respects_intertwinings(f, [(z, big, alpha)])
    assert report.passed


def test_non_intertwining_alpha_is_rejected():
    rng = rng_from_seed(4)
    f = random_series(rng, 2, 2, 1)
    z = MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(2)))
    alpha = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(BadIntertwiner, match="alpha Z_1"):
        check_respects_intertwinings(f, [(z, z, alpha)])


def test_similarity_covariance():
    rng = rng_from_seed(5)
    f = random_series(rng, 2, 2, 3)
    z = MatrixTuple(tuple(complex_gaussian(rng, 3, 3) for _ in range(2)))
    s = random_similarity(rng, 3)
    sinv = np.linalg.inv(s)
    zt = MatrixTuple(tuple(s @ c @ sinv for c in z.coords))
    lhs = evaluate(f, zt)
    rhs = kron(s, np.eye(2)) @ evaluate(f, z) @ kron(sinv, np.eye(3))
    cond = np.linalg.cond(s)
    assert np.linalg.norm(lhs - rhs) <= DEFAULT_TOL.eq_rel * cond * max(1.0, np.linalg.norm(lhs))


def test_nilpotency_order_cases():
    assert nilpotency_order(zero_tuple(2, 3)) == 1
    jordan3 = np.diag(np.ones(2), 1)
    assert nilpotency_order(MatrixTuple((jordan3,))) == 3

    rng = rng_from_seed(6)
    z = nilpotent_tuple(rng, 2, 3)
    order = nilpotency_order(z)
    assert order <= 3
    # brute force: all words of that length vanish
    from ncrkhs.core import word_eval, words_up_to

    for w in words_up_to(2, order):
        if len(w) == order:
            assert np.linalg.norm(word_eval(w, z)) <= 1e-9


def test_nilpotency_order_rejects_invertible():
    with pytest.raises(NotNilpotent):
        nilpotency_order(MatrixTuple((np.eye(2),)))


def test_evaluate_on_nilpotent_cases():
    rng = rng_from_seed(7)
    f = random_series(rng, 2, 2, 2, max_len=3)
    z = zero_tuple(2, 3)
    np.testing.assert_allclose(evaluate_on_nilpotent(f, z), kron(np.eye(3), f.coefficient(())))

    # geometric-type series: truncation at length >= order agrees exactly
    z = nilpotent_tuple(rng, 2, 3)
    order = nilpotency_order(z)
    np.testing.assert_allclose(evaluate_on_nilpotent(f, z), evaluate(truncate(f, order - 1), z))


def test_szego_type_series_on_jordan_block():
    # sum_k z^k truncated: at the 2x2 Jordan cell only 1 + Z survives
    f = NcSeries(1, 1, 1, {(): [[1.0]], (1,): [[1.0]], (1, 1): [[1.0]], (1, 1, 1): [[1.0]]})
    z = MatrixTuple((J2,))
    np.testing.assert_allclose(evaluate_on_nilpotent(f, z), np.eye(2) + J2)


def test_shift_tuple_monomial_blocks():
    s = truncated_shift_tuple(2, 2)
    assert s.n == 7
    assert nilpotency_order(s) == 3


def test_extract_constant_evaluator():
    c = np.array([[2.0, 0.5]])
    f = NcSeries.constant(2, c)
    got = extract_taylor_coefficients(functional_evaluator(f), 2, 2, 1, 2)
    assert got.support == [()]
    np.testing.assert_allclose(got.coefficient(()), c)


def test_extract_round_trip_single_term():
    f = NcSeries.monomial(2, (1, 2), [[3.0]])
    got = extract_taylor_coefficients(functional_evaluator(f), 2, 3, 1, 1)
    np.testing.assert_allclose(got.coefficient((1, 2)), [[3.0]])
    for w in got.support:
        if w != (1, 2):
            assert np.linalg.norm(got.coefficient(w)) <= 1e-12


def test_extract_round_trip_random():
    rng = rng_from_seed(8)
    for d in (1, 2, 3):
        f = random_series(rng, d, 2, 2, max_len=3, n_terms=5)
        got = extract_taylor_coefficients(functional_evaluator(f), d, 3, 2, 2)
        for w in set(f.support) | set(got.support):
            assert np.linalg.norm(got.coefficient(w) - f.coefficient(w)) <= 1e-10


def test_extract_inconsistent_evaluator_rejected():
    calls = {"n": 0}

    def flaky(point):
        calls["n"] += 1
        value = np.zeros((point.n, point.n), dtype=complex)
        value[0, 0] = calls["n"]  # constant coefficient changes between probes
        return value

    with pytest.raises(InconsistentEvaluator):
        extract_taylor_coefficients(flaky, 2, 2, 1, 1)

    # a drift only at a later word, or at two words, names the first in graded order
    for drift, first in [([(2,)], "(2,)"), ([(2,), (1,)], "(1,)"), ([(2,), ()], "()")]:
        calls["n"] = 0

        def drifting(point):
            calls["n"] += 1
            words = words_up_to(2, 2 if point.n == 7 else 1)
            value = np.ones((point.n, point.n), dtype=complex)
            for w in drift:
                value[words.index(w), 0] = calls["n"]
            return value

        with pytest.raises(InconsistentEvaluator, match=re.escape(f"coefficient of {first} disagrees")):
            extract_taylor_coefficients(drifting, 2, 2, 1, 1)


def test_series_algebra_helpers():
    rng = rng_from_seed(9)
    f = random_series(rng, 2, 2, 2)
    g = random_series(rng, 2, 2, 2)
    z = nilpotent_tuple(rng, 2, 3)
    np.testing.assert_allclose(
        evaluate(add(f, scale(g, 2.0)), z), evaluate(f, z) + 2.0 * evaluate(g, z)
    )


def _reference_terms(d, p, q, terms):
    """The per-coefficient check: each word, then its coefficient, in the order given."""
    clean = {}
    for w, c in terms.items():
        word = validate_word(w, d)
        if word in clean:
            raise InputError(f"duplicate word {word}")
        clean[word] = as_cmatrix(c, p, q)
    return dict(sorted(clean.items(), key=lambda kv: word_key(kv[0])))


_NAN_COLUMN = np.array([[np.nan], [0.0]])

_TERMS = {
    "sorted": {(): [[1.0], [2.0]], (1,): [[0.5j], [-1]], (2, 1): np.array([[3], [4]])},
    "unsorted": {(2, 1): [[1.0], [2.0]], (): [[0.5j], [-1]], (1,): np.array([[3], [4]])},
    "empty": {},
    "wrong-shape": {(): [[1.0], [2.0]], (1,): [[1.0, 2.0]]},
    "one-dimensional": {(): [1.0, 2.0]},
    "non-finite": {(1,): [[1.0], [np.inf]], (): [[1.0], [2.0]]},
    # the first bad coefficient in the order given decides the error, not the first in word order
    "non-finite-before-wrong-shape": {(2,): _NAN_COLUMN, (): [[1.0]], (1,): [[1.0], [2.0]]},
    "wrong-shape-before-non-finite": {(2,): [[1.0]], (): _NAN_COLUMN},
    "non-numeric": {(): [["x"], [1.0]]},
}


@pytest.mark.parametrize("terms", _TERMS.values(), ids=_TERMS.keys())
def test_series_terms_match_per_coefficient_reference(terms):
    try:
        want = _reference_terms(2, 2, 1, terms)
    except Exception as exc:  # the series must raise the same type and message
        with pytest.raises(type(exc)) as got:
            NcSeries(2, 2, 1, terms)
        assert str(got.value) == str(exc)
        return
    got = NcSeries(2, 2, 1, terms).terms
    assert list(got) == list(want)
    for w, c in want.items():
        assert got[w].dtype == c.dtype and got[w].shape == c.shape and got[w].tobytes() == c.tobytes()
        assert not got[w].flags.writeable


def test_series_coefficients_do_not_alias_their_input():
    coeff = np.array([[1.0], [2.0]])
    f = NcSeries(1, 2, 1, {(): coeff})
    coeff[0, 0] = 5.0
    assert f.terms[()][0, 0] == 1.0


def test_axiom_report_worst_keeps_the_first_largest_violation():
    report = AxiomReport.worst([(0.5, "a"), (2.0, "b"), (2.0, "c"), (1.0, "d")], 1.0)
    assert (report.passed, report.max_violation, report.threshold, report.witness) == (False, 2.0, 1.0, "b")


def test_axiom_report_worst_pass_carries_no_witness():
    report = AxiomReport.worst([(0.5, "a"), (1.0, "b")], 1.0)
    assert (report.passed, report.max_violation, report.witness) == (True, 1.0, None)
    empty = AxiomReport.worst([], 1.0)
    assert (empty.passed, empty.max_violation, empty.witness) == (True, 0.0, None)
