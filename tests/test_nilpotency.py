"""Joint nilpotency order: nc-invariance properties, agreement with word enumeration, cost.

The reference :func:`enumerated_order` is the definition: it enumerates all
d^L coordinate products of length L, so its time and memory grow
exponentially.  The library reaches the same order through one n x (d n)
factor per length.
"""

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncrkhs.core import DEFAULT_TOL, MatrixTuple, NotNilpotent, direct_sum, frobenius, spec_norm
from ncrkhs.sampling import gaussian_tuple, nilpotent_tuple, random_similarity, rng_from_seed
from ncrkhs.series import nilpotency_order, truncated_shift_tuple


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
