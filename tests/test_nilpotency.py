"""Joint nilpotency order: nc-invariance properties, agreement with two references, cost.

The reference :func:`enumerated_order` is the definition: it enumerates all
d^L coordinate products of length L, so its time and memory grow
exponentially.  The library reaches the same order through one factor per
length, extended by one product with the stacked adjoint coordinates and
recompressed to n rows by a Householder QR.  The reference
:func:`svd_order` walks the same flag with an n x (d n) factor that a thin
SVD recompresses; it is checked against the library on a sweep of points
and tolerances up to the benchmark's sizes.
"""

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncrkhs.core import DEFAULT_TOL, MatrixTuple, NotNilpotent, Tolerances, direct_sum, frobenius, spec_norm
from ncrkhs.sampling import gaussian_tuple, nilpotent_tuple, random_similarity, rng_from_seed
from ncrkhs.series import nilpotency_order, nilpotency_orders, truncated_shift_tuple


def enumerated_order(z: MatrixTuple, tol=DEFAULT_TOL) -> int:
    """Smallest L with every length-L word product at most eq_rel * scale^L in norm."""
    scale = max(1.0, max(spec_norm(c) for c in z.coords))
    products = [np.eye(z.n, dtype=np.complex128)]
    for length in range(1, z.n + 1):
        floor = tol.eq_rel * scale ** length
        products = [c @ p for c in z.coords for p in products]
        if all(frobenius(p) <= floor for p in products):
            return length
        products = [p for p in products if frobenius(p) > floor]
    if all(frobenius(c) <= tol.eq_rel * scale for c in z.coords):
        return 1
    raise NotNilpotent(f"tuple of size {z.n} has nonvanishing products of length {z.n}")


def svd_order(z: MatrixTuple, tol=DEFAULT_TOL) -> int:
    """The flag walk with b b* = sum_{|w|=L} Z^w Z^w*, b -> [Z_1 b, ..., Z_d b] and a thin SVD per length."""
    scale = max(1.0, max(spec_norm(c) for c in z.coords))
    coords = [c / scale for c in z.coords]
    b = np.eye(z.n, dtype=np.complex128)
    for length in range(1, max(z.n, 1) + 1):
        b = np.hstack([c @ b for c in coords])
        if frobenius(b) <= tol.eq_rel:
            return length
        u, s, _ = np.linalg.svd(b, full_matrices=False)
        b = u * s
    raise NotNilpotent(f"tuple of size {z.n} has nonvanishing products of length {z.n}")


def order_or_none(order, z):
    try:
        return order(z)
    except NotNilpotent:
        return None


def conjugated(z: MatrixTuple, s: np.ndarray) -> MatrixTuple:
    s_inv = np.linalg.inv(s)
    return MatrixTuple(tuple(s @ c @ s_inv for c in z.coords))


@st.composite
def points(draw, nilpotent_share=0.8):
    """Seeded points of d <= 3 variables and size <= 5, mostly jointly nilpotent."""
    rng = rng_from_seed(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    if draw(st.floats(0.0, 1.0)) < nilpotent_share:
        return nilpotent_tuple(rng, d, n)
    return gaussian_tuple(rng, d, n)


@given(points(), st.integers(0, 2**32 - 1), st.sampled_from([2.0, 10.0]))
def test_order_is_similarity_invariant(z, seed, cond):
    s = random_similarity(rng_from_seed(seed), z.n, cond=cond)
    assert order_or_none(nilpotency_order, conjugated(z, s)) == order_or_none(nilpotency_order, z)


@given(points(), points())
def test_order_of_direct_sum_is_max_over_summands(z, w):
    if z.d != w.d:
        w = MatrixTuple((w.coords * z.d)[:z.d])
    orders = [order_or_none(nilpotency_order, p) for p in (z, w)]
    want = None if None in orders else max(orders)
    assert order_or_none(nilpotency_order, direct_sum([z, w])) == want


@given(points())
def test_order_of_adjoint_tuple(z):
    adjoint = MatrixTuple(tuple(c.conj().T for c in z.coords))
    assert order_or_none(nilpotency_order, adjoint) == order_or_none(nilpotency_order, z)


@given(points(), st.integers(1, 3))
def test_order_of_ampliation(z, k):
    ampliated = MatrixTuple(tuple(np.kron(c, np.eye(k)) for c in z.coords))
    assert order_or_none(nilpotency_order, ampliated) == order_or_none(nilpotency_order, z)


@given(st.integers(1, 3), st.integers(0, 3))
def test_order_of_truncated_shift(d, max_len):
    assert nilpotency_order(truncated_shift_tuple(d, max_len)) == max_len + 1


def agreement_cases():
    """Nilpotent, conjugated, scaled, direct-sum, shift and Gaussian points with d <= 3, n <= 6."""
    rng = rng_from_seed(2024)
    for d in (1, 2, 3):
        for n in range(1, 7):
            z = nilpotent_tuple(rng, d, n)
            yield z
            yield conjugated(z, random_similarity(rng, n, cond=100.0))
            yield z.scaled(1e3)
            yield z.scaled(1e-3)
            yield direct_sum([z, nilpotent_tuple(rng, d, max(1, n - 2))])
            yield gaussian_tuple(rng, d, n)
            yield direct_sum([z, gaussian_tuple(rng, d, 1)])
        for max_len in range(3 if d < 3 else 2):
            yield truncated_shift_tuple(d, max_len)


def test_order_agrees_with_word_enumeration():
    cases = list(agreement_cases())
    assert len(cases) > 100
    for z in cases:
        assert order_or_none(nilpotency_order, z) == order_or_none(enumerated_order, z)


def test_empty_point_has_order_one():
    empty = MatrixTuple((np.zeros((0, 0)), np.zeros((0, 0))))
    assert nilpotency_order(empty) == enumerated_order(empty) == 1


def test_large_gaussian_point_is_refused_quickly():
    # the enumeration would build 3**32 products here
    z = gaussian_tuple(rng_from_seed(32), 3, 32)
    start = time.perf_counter()
    with pytest.raises(NotNilpotent):
        nilpotency_order(z)
    assert time.perf_counter() - start < 1.0


def test_large_nilpotent_point_is_ordered_quickly():
    z = nilpotent_tuple(rng_from_seed(32), 3, 32)
    start = time.perf_counter()
    order = nilpotency_order(z)
    assert time.perf_counter() - start < 1.0
    assert order == svd_order(z)


def jordan_tuple(rng, d: int, n: int) -> MatrixTuple:
    """Combinations of J and J^2 for J a sum of Jordan blocks of sizes ceil(n/2) and floor(n/2): order ceil(n/2)."""
    top = (n + 1) // 2
    j = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        if i != top - 1:
            j[i, i + 1] = 1.0
    a, b = rng.standard_normal((2, d)) + 1.0
    return MatrixTuple(tuple(a[i] * j + b[i] * j @ j for i in range(d)))


def sweep_points():
    """Triangular, scaled and conjugated, lower-order Jordan, Gaussian and shift points, d <= 3, n <= 12."""
    rng = rng_from_seed(1414)
    for d in (1, 2, 3):
        yield MatrixTuple(tuple(np.zeros((0, 0)) for _ in range(d)))
        for n in range(1, 13):
            z = nilpotent_tuple(rng, d, n)
            yield z
            for t in (1e-3, 1.0, 1e3):
                yield conjugated(z.scaled(t), random_similarity(rng, n, cond=10.0))
            yield conjugated(jordan_tuple(rng, d, n), random_similarity(rng, n, cond=10.0))
            yield gaussian_tuple(rng, d, n)
        for max_len in range({1: 12, 2: 3, 3: 2}[d]):
            yield truncated_shift_tuple(d, max_len)
    # the benchmark's sizes: nilp-eval points and the extraction shifts N = 31 and 63
    yield nilpotent_tuple(rng, 3, 10)
    yield nilpotent_tuple(rng, 2, 14)
    yield truncated_shift_tuple(2, 4)
    yield truncated_shift_tuple(2, 5)


@pytest.mark.parametrize("eq_rel", [1e-6, 1e-10, 1e-13])
def test_order_agrees_with_svd_recompression(eq_rel):
    tol = Tolerances(eq_rel=eq_rel)
    points = list(sweep_points())
    assert len(points) == 240
    orders = [order_or_none(lambda z: svd_order(z, tol), z) for z in points]
    assert orders == [order_or_none(lambda z: nilpotency_order(z, tol), z) for z in points]
    assert None in orders and len(set(orders)) > 10


@pytest.mark.parametrize("eq_rel", [1e-6, 1e-10, 1e-13])
def test_batched_orders_equal_per_point_orders(eq_rel):
    # the sweep, shuffled so that sizes, nilpotent and non-nilpotent points interleave
    tol = Tolerances(eq_rel=eq_rel)
    points = list(sweep_points())
    points = [points[i] for i in np.random.default_rng(17).permutation(len(points))]
    orders = nilpotency_orders(points, tol)
    assert orders == [order_or_none(lambda z: nilpotency_order(z, tol), z) for z in points]
    assert None in orders


@pytest.fixture
def linalg_calls(monkeypatch):
    """The names of the numpy.linalg.svd and numpy.linalg.qr calls made, in order."""
    calls = []
    for name in ("svd", "qr"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_one_svd_and_at_most_one_qr_per_length(linalg_calls):
    rng = rng_from_seed(77)
    cases = [nilpotent_tuple(rng, d, n) for d in (1, 2, 3) for n in (1, 4, 9)]
    cases += [gaussian_tuple(rng, d, 6) for d in (1, 2, 3)]
    cases += [truncated_shift_tuple(1, 5), truncated_shift_tuple(2, 3), MatrixTuple((np.zeros((0, 0)),) * 2)]
    for z in cases:
        linalg_calls.clear()
        order = order_or_none(nilpotency_order, z)
        assert linalg_calls.count("svd") <= 1 and "svd" not in linalg_calls[1:]
        qrs = linalg_calls.count("qr")
        assert qrs <= (z.n if order is None else order - 1)
        if z.d == 1:
            assert qrs == 0
