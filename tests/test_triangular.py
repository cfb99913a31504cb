"""The strictly triangular certificate, domain verdicts and evaluation on nilpotent points.

A point whose coordinates are all exactly strictly upper triangular, or all
exactly strictly lower, is jointly nilpotent of order <= max(n, 1).  A
truncated kernel judges such a point by its structural order, without a
numerical test, and :func:`evaluate_on_nilpotent` drops there only the words
at least that long, which vanish exactly; it takes every other point it
accepts whole.  The references are the domain verdict
``order is not None and order <= max_len + 1`` from the full numerical
order, and :func:`full_order_value`, that evaluation on a fresh point.
"""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncrkhs.core import (
    DEFAULT_TOL,
    MatrixTuple,
    NotNilpotent,
    Tolerances,
    TruncationRefused,
    frobenius,
    rel_err,
    words_up_to,
    zero_tuple,
)
from ncrkhs.kernels import szego_kernel
from ncrkhs.sampling import complex_gaussian, gaussian_tuple, nilpotent_tuple, random_similarity, rng_from_seed
from ncrkhs.series import (
    NcSeries,
    evaluate,
    evaluate_on_nilpotent,
    nilpotency_order,
    nilpotency_orders,
    truncate,
    truncated_shift_tuple,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E21 = E12.T


def fresh(z: MatrixTuple) -> MatrixTuple:
    """The same coordinates in a new point, which holds no memo."""
    return MatrixTuple(tuple(np.array(c) for c in z.coords))


def triangular(rng, d: int, n: int, lower: bool, density: float, scale: float = 1.0) -> MatrixTuple:
    """Strictly upper (or lower) triangular Gaussian coordinates, each entry kept with probability ``density``."""
    coords = complex_gaussian(rng, d * n, n).reshape(d, n, n) * (rng.random((d, n, n)) < density) * scale
    return MatrixTuple(tuple(np.tril(coords, -1) if lower else np.triu(coords, 1)))


def conjugated(z: MatrixTuple, s: np.ndarray) -> MatrixTuple:
    inverse = np.linalg.inv(s)
    return MatrixTuple(tuple(s @ c @ inverse for c in z.coords))


def jordan(n: int, weight: float = 1.0) -> MatrixTuple:
    """One n x n Jordan block with superdiagonal ``weight``: order n."""
    return MatrixTuple((weight * np.eye(n, k=1),))


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n=st.integers(0, 8), lower=st.booleans(),
       density=st.sampled_from([0.0, 0.2, 0.5, 1.0]), scale=st.sampled_from([1e-3, 1.0, 1e3, 1e150]),
       eq_rel=st.sampled_from([1e-300, 1e-13, 1e-10, 1e-6]))
def test_a_certified_tuple_has_an_order_at_most_its_size(seed, d, n, lower, density, scale, eq_rel):
    z = triangular(rng_from_seed(seed), d, n, lower, density, scale)
    assert z.strictly_triangular
    order = nilpotency_orders([z], Tolerances(eq_rel=eq_rel))[0]
    assert order is not None and order <= max(n, 1)


def test_the_certificate_is_made_once_per_point(monkeypatch):
    z = nilpotent_tuple(rng_from_seed(60), 2, 4)
    calls = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda *args: calls.append(1) or array_equal(*args))
    assert z.strictly_triangular and z.strictly_triangular
    assert len(calls) == 1


MIXED = {
    "upper and lower": MatrixTuple((E12, E21)),
    "upper with a diagonal entry": MatrixTuple((E12 + np.diag([0.0, 0.5]),)),
    "lower with a diagonal entry": MatrixTuple((np.zeros((2, 2)), E21 + np.diag([0.5, 0.0]))),
    "upper and lower, size 3": MatrixTuple((np.triu(np.ones((3, 3)), 1), np.tril(np.ones((3, 3)), -1))),
}


@pytest.mark.parametrize("name", MIXED)
def test_a_mixed_tuple_is_not_certified_and_is_refused(name):
    z = MIXED[name]
    assert not z.strictly_triangular
    assert nilpotency_orders([fresh(z)])[0] is None
    kernel = szego_kernel(z.d, max_len=3)
    with pytest.raises(TruncationRefused, match="exact only at jointly nilpotent points of order <= 4"):
        kernel.evaluate(z, z, np.eye(z.n))
    f = NcSeries.monomial(z.d, (1,), [[1.0]])
    with pytest.raises(NotNilpotent) as refused:
        evaluate_on_nilpotent(f, z)
    with pytest.raises(NotNilpotent) as reference:
        nilpotency_order(fresh(z))
    assert str(refused.value) == str(reference.value)


def test_a_nilpotent_tuple_of_mixed_pattern_is_tested_and_accepted():
    # Z1 = E13, Z2 = E21: every product of length 3 vanishes, but Z2 is lower and Z1 upper
    e13, e21 = np.zeros((3, 3)), np.zeros((3, 3))
    e13[0, 2], e21[1, 0] = 1.0, 1.0
    z = MatrixTuple((e13, e21))
    assert not z.strictly_triangular
    kernel = szego_kernel(2, max_len=2)
    assert kernel._orders([z]) == [nilpotency_order(fresh(z))] == [3]
    kernel.evaluate(z, z, np.eye(3))


# ---------------------------------------------------------------------------
# domain verdicts
# ---------------------------------------------------------------------------

def domain_points():
    """Certified points inside and beyond max_len + 1, dense nilpotent, Gaussian and mixed points, d = 2."""
    rng = rng_from_seed(61)
    for n in range(0, 11):
        yield zero_tuple(2, n)
        yield nilpotent_tuple(rng, 2, n)
        yield triangular(rng, 2, n, True, 0.5)
        yield MatrixTuple((np.eye(n, k=1), np.zeros((n, n))))  # order n
        yield MatrixTuple((np.zeros((n, n)), np.eye(n, k=-1)))  # lower, order n
        if n:
            yield conjugated(nilpotent_tuple(rng, 2, n), random_similarity(rng, n))
            yield gaussian_tuple(rng, 2, n)
    yield from (MIXED[name] for name in MIXED if MIXED[name].d == 2)
    yield truncated_shift_tuple(2, 1)
    yield truncated_shift_tuple(2, 2)


def reference_inside(z: MatrixTuple, max_len: int, tol=DEFAULT_TOL) -> bool:
    order = nilpotency_orders([fresh(z)], tol)[0]
    return order is not None and order <= max_len + 1


@pytest.mark.parametrize("max_len", [0, 1, 2, 3, 4])
def test_domain_verdicts_follow_the_order_rule(max_len):
    points = list(domain_points())
    assert sum(z.strictly_triangular and z.n > max_len + 1 for z in points) >= 12
    kernel = szego_kernel(2, max_len)
    kernel.precompute(points[::2])
    verdicts = []
    for z in points:
        try:
            kernel.evaluate(z, z, np.eye(z.n))
            verdicts.append(True)
        except TruncationRefused:
            verdicts.append(False)
    assert verdicts == [reference_inside(z, max_len) for z in points]
    assert True in verdicts and False in verdicts
    # the zero tuple of size 10 is certified, beyond max_len + 1, and still accepted
    big_zero = zero_tuple(2, 10)
    assert big_zero.strictly_triangular and kernel._orders([big_zero]) == [1]
    kernel.evaluate(big_zero, big_zero, np.eye(10))


def test_a_certified_point_beyond_the_truncation_is_tested_and_refused():
    kernel = szego_kernel(1, max_len=3)
    z = jordan(5)  # order 5 > max_len + 1
    assert z.strictly_triangular
    with pytest.raises(TruncationRefused):
        kernel.evaluate(z, z, np.eye(5))
    assert kernel._orders([z]) == [5]


@pytest.mark.parametrize("eq_rel", [1e-13, 1e-10, 1e-6])
def test_batched_domain_verdicts_follow_the_order_rule(eq_rel):
    tol = Tolerances(eq_rel=eq_rel)
    points = list(domain_points())
    for max_len in range(5):
        kernel = szego_kernel(2, max_len)
        kernel.tol = tol
        inside = [z for z in points if reference_inside(z, max_len, tol)]
        kernel._check_domain(inside)
        for z in points:
            if not any(z is w for w in inside):
                with pytest.raises(TruncationRefused):
                    kernel._check_domain(inside + [z])


# ---------------------------------------------------------------------------
# evaluation on nilpotent points
# ---------------------------------------------------------------------------

def full_order_value(f: NcSeries, z: MatrixTuple, tol=DEFAULT_TOL) -> np.ndarray:
    """f at a fresh copy of z: truncated below the structural order at a strictly triangular point,
    whole at any other point the walk accepts; the walk's refusal elsewhere."""
    z = fresh(z)
    order = z.structural_order
    if order is None:
        nilpotency_order(z, tol)
        return evaluate(f, z)
    return evaluate(truncate(f, order - 1) if f.degree >= order else f, z)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_series(rng, d: int, degree: int, p: int = 1, q: int = 2) -> NcSeries:
    return NcSeries(d, p, q, {w: complex_gaussian(rng, p, q) for w in words_up_to(d, degree)})


def point_of(kind: str, rng, d: int, n: int) -> MatrixTuple:
    if kind == "upper":
        return triangular(rng, d, n, False, 0.7)
    if kind == "lower":
        return triangular(rng, d, n, True, 0.7)
    if kind == "jordan":
        return MatrixTuple(tuple((1.0 + j) * np.eye(n, k=1) for j in range(d)))
    if kind == "tiny":
        # exact order n, numerical order n - 1: the last superdiagonal entry is below eq_rel
        block = np.eye(n, k=1)
        block[n - 2:n - 1, n - 1:] *= 1e-20
        return MatrixTuple(tuple(block for _ in range(d)))
    z = nilpotent_tuple(rng, d, n)
    if kind == "dense" and n:
        return conjugated(z, random_similarity(rng, n))
    return gaussian_tuple(rng, d, n) if n else z


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n=st.integers(0, 6),
       kind=st.sampled_from(["upper", "lower", "jordan", "tiny", "dense", "gaussian"]),
       extra=st.integers(-2, 2))
def test_nilpotent_evaluation_matches_the_full_order_path(seed, d, n, kind, extra):
    rng = rng_from_seed(seed)
    z = point_of(kind, rng, d, n)
    # degrees around the point's order: below, at and above it
    degree = max(-1, min(max(n, 1) + extra, 4 if d < 3 else 3))
    f = random_series(rng, d, degree) if degree >= 0 else NcSeries.zero(d, 1, 2)
    try:
        want = full_order_value(f, z)
    except NotNilpotent as refusal:
        with pytest.raises(NotNilpotent, match=f"^{re.escape(str(refusal))}$"):
            evaluate_on_nilpotent(f, z)
        return
    got = evaluate_on_nilpotent(f, z)
    assert same_bits(got, want)
    whole = evaluate(f, fresh(z))
    assert rel_err(frobenius(got - whole), frobenius(whole)) <= DEFAULT_TOL.eq_rel


CASES = {
    "order below the degree": (jordan(3), 4),
    "order at the degree": (jordan(3), 3),
    "order above the degree": (jordan(3), 2),
    # numerical order 2, exact order 3: the walk's order truncates nothing
    "numerical order at the degree": (MatrixTuple((np.diag([1.0, 1e-20], 1),)), 2),
    "lower, order at the degree": (MatrixTuple((np.diag([1.0, 1.0, 1.0], -1),)), 4),
    "shift": (truncated_shift_tuple(1, 3), 4),
    "empty point": (MatrixTuple((np.zeros((0, 0)),)), 2),
    "dense": (conjugated(jordan(3), random_similarity(rng_from_seed(62), 3)), 3),
}


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("form", ["random", "zero", "constant"])
def test_nilpotent_evaluation_matches_the_full_order_path_on_cases(name, form):
    z, degree = CASES[name]
    rng = rng_from_seed(63)
    f = {"random": lambda: random_series(rng, 1, degree), "zero": lambda: NcSeries.zero(1, 1, 2),
         "constant": lambda: NcSeries.constant(1, complex_gaussian(rng, 1, 2))}[form]()
    assert same_bits(evaluate_on_nilpotent(f, fresh(z)), full_order_value(f, z))


def test_a_numerical_order_at_the_degree_drops_no_word():
    z, degree = CASES["numerical order at the degree"]
    f = random_series(rng_from_seed(64), 1, degree)
    assert nilpotency_order(fresh(z)) == degree
    assert same_bits(evaluate(f, fresh(z)), evaluate_on_nilpotent(f, fresh(z)))


def test_a_non_nilpotent_point_is_refused_with_the_same_text():
    f = random_series(rng_from_seed(65), 2, 2)
    for z in (gaussian_tuple(rng_from_seed(66), 2, 4), MIXED["upper and lower"]):
        with pytest.raises(NotNilpotent) as refused:
            evaluate_on_nilpotent(f, z)
        assert str(refused.value) == f"tuple of size {z.n} has nonvanishing products of length {z.n}"
