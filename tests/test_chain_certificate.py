"""The chain bound that lets nilpotent evaluation skip the flag walk, and the truncated shift's indices.

At a strictly triangular point of size n > deg f, :func:`evaluate_on_nilpotent`
first bounds every flag norm of length <= deg f from below by a product of
superdiagonal (or subdiagonal) entries (:func:`ncrkhs.series._chain_clears`).
Where the bound clears twice eq_rel at every length, the walk would find no
order within deg f, so it is not run and nothing is truncated.  The
reference is the bounded walk itself, :func:`_flag_orders`.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncrkhs import series
from ncrkhs.cli import main
from ncrkhs.core import MatrixTuple, Tolerances, words_up_to
from ncrkhs.sampling import complex_gaussian, rng_from_seed
from ncrkhs.serialize import decode_matrix, encode_series, encode_tuple
from ncrkhs.series import (
    NcSeries,
    _chain_clears,
    _flag_orders,
    evaluate,
    evaluate_on_nilpotent,
    truncated_shift_tuple,
)


def triangular_point(rng, d: int, n: int, lower: bool, scale: float, shrink: float) -> MatrixTuple:
    """Strictly upper (or lower) Gaussian coordinates of size ``scale``, each superdiagonal entry
    (subdiagonal, for a lower point) shrunk by a factor between ``shrink`` and 1."""
    coords = np.triu(complex_gaussian(rng, d * n, n).reshape(d, n, n) * scale, 1)
    i = np.arange(n - 1)
    coords[:, i, i + 1] *= shrink ** rng.random((d, n - 1))
    return MatrixTuple(tuple(coords.transpose(0, 2, 1) if lower else coords))


def smallest_chain(z: MatrixTuple, length: int) -> float:
    """min over L <= length of the chain bound P_L / S^L, computed here without the library's helper."""
    s, n = z.stacked, z.n
    scale = max(1.0, max(np.linalg.norm(c) for c in s))
    i = np.arange(n - 1)
    rho = np.sqrt(np.sum(np.abs(s[:, i, i + 1]) ** 2, axis=0))[::-1] + np.sqrt(np.sum(np.abs(s[:, i + 1, i]) ** 2, axis=0))
    return float(np.min(np.cumprod(rho[:length] / scale)))


@settings(max_examples=600)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n=st.integers(2, 16), lower=st.booleans(),
       scale=st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8]), shrink=st.sampled_from([1.0, 1e-3, 1e-12]),
       eq_rel=st.sampled_from([1e-16, 1e-13, 1e-10, 1e-6, 1e-3, 1e-1, "edge"]), data=st.data())
def test_where_the_chain_bound_clears_the_walk_finds_no_order(seed, d, n, lower, scale, shrink, eq_rel, data):
    rng = rng_from_seed(seed)
    z = triangular_point(rng, d, n, lower, scale, shrink)
    degree = data.draw(st.integers(1, n - 1))
    if eq_rel == "edge":
        # just under half the smallest bound: the walk's norm is then about 2 eq_rel
        bound = smallest_chain(z, degree)
        if not bound > 1e-300:
            return
        eq_rel = bound / 2 * (1 - 1e-12)
        assert _chain_clears(z, Tolerances(eq_rel=eq_rel), degree)
    tol = Tolerances(eq_rel=eq_rel)
    if _chain_clears(z, tol, degree):
        assert _flag_orders([z], tol, degree) == [None]


def test_the_bound_clears_only_below_its_own_length_and_margin():
    z = MatrixTuple((np.eye(5, k=1), 2 * np.eye(5, k=1)))
    tol = Tolerances()
    assert _chain_clears(z, tol, 4) and not _chain_clears(z, tol, 5)
    assert _chain_clears(MatrixTuple((np.eye(5, k=-1),)), tol, 4)
    # a chain that meets an exact zero does not clear, though the walk finds no order within the length
    gap = np.eye(5, k=1)
    gap[3, 4] = 0.0
    assert not _chain_clears(MatrixTuple((gap,)), tol, 3) and _flag_orders([MatrixTuple((gap,))], tol, 3) == [None]
    # the chain at length 1 is 1 / ||Z||_F = 1 / 2: it clears eq_rel = 0.2, not 0.25
    assert _chain_clears(MatrixTuple((np.eye(5, k=1),)), Tolerances(eq_rel=0.2), 1)
    assert not _chain_clears(MatrixTuple((np.eye(5, k=1),)), Tolerances(eq_rel=0.25), 1)
    assert not _chain_clears(z, Tolerances(eq_rel=1e-320), 4)


@pytest.fixture
def linalg_calls(monkeypatch):
    """The names of the numpy.linalg.svd and numpy.linalg.qr calls made."""
    calls = []
    for name in ("svd", "qr"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def unit_superdiagonal_point(rng, d: int, n: int) -> MatrixTuple:
    """Strictly upper triangular, unit-modulus superdiagonal entries, small Gaussians above them."""
    coords = []
    for _ in range(d):
        m = np.triu(complex_gaussian(rng, n, n), 2) * 0.3
        m[np.arange(n - 1), np.arange(1, n)] = np.exp(2j * np.pi * rng.random(n - 1))
        coords.append(m)
    return MatrixTuple(tuple(coords))


@pytest.mark.parametrize("d, n, degree", [(2, 10, 6), (3, 10, 4), (2, 14, 6), (1, 3, 2)])
def test_nilp_eval_at_a_unit_superdiagonal_point_walks_no_flag(tmp_path, linalg_calls, d, n, degree):
    rng = rng_from_seed(91)
    f = NcSeries(d, 1, 1, {w: complex_gaussian(rng, 1, 1) for w in words_up_to(d, degree)})
    z = unit_superdiagonal_point(rng, d, n)
    paths = {name: tmp_path / f"{name}.json" for name in ("series", "point", "out")}
    paths["series"].write_text(json.dumps(encode_series(f)))
    paths["point"].write_text(json.dumps(encode_tuple(z)))
    linalg_calls.clear()
    assert main(["nilp-eval", "--series", str(paths["series"]), "--point", str(paths["point"]),
                 "--out", str(paths["out"])]) == 0
    assert linalg_calls == []
    # nothing truncated, as the walk decides
    assert _flag_orders([z], Tolerances(), degree) == [None]
    value = decode_matrix(json.loads(paths["out"].read_text())["value"])
    assert np.array_equal(value, evaluate(f, MatrixTuple(z.coords)))


def test_a_point_whose_bound_does_not_clear_still_walks(linalg_calls):
    # numerical order 2 below the degree: the chain meets the 1e-20 entry
    z = MatrixTuple((np.diag([1.0, 1e-20, 1.0], 1),))
    f = NcSeries(1, 1, 1, {w: np.ones((1, 1)) for w in words_up_to(1, 3)})
    value = evaluate_on_nilpotent(f, z)
    assert "svd" in linalg_calls
    assert np.array_equal(value, evaluate(series.truncate(f, 1), MatrixTuple(z.coords)))


# ---------------------------------------------------------------------------
# the truncated shift by index arithmetic
# ---------------------------------------------------------------------------

def shift_by_words(d: int, max_len: int) -> list[np.ndarray]:
    """The truncated free shift as the word loop builds it: coordinate j maps e_w to e_{j.w}."""
    words = words_up_to(d, max_len)
    index = {w: i for i, w in enumerate(words)}
    m = len(words)
    coords = []
    for j in range(1, d + 1):
        s = np.zeros((m, m), dtype=np.complex128)
        for w, i in index.items():
            if len(w) < max_len:
                s[index[(j,) + w], i] = 1.0
        coords.append(s)
    return coords


@pytest.mark.parametrize("d, max_len", [(1, L) for L in range(12)] + [(2, L) for L in range(7)]
                         + [(3, L) for L in range(6)])
def test_the_shift_by_index_arithmetic_is_the_word_loop(d, max_len):
    shift = truncated_shift_tuple(d, max_len)
    want = shift_by_words(d, max_len)
    assert shift.d == d and shift.order == max_len + 1
    assert all(got.dtype == np.complex128 and got.tobytes() == ref.tobytes() for got, ref in zip(shift.coords, want))
