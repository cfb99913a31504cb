"""The action walk: a series' value applied to a block, and extraction through it.

``functional_evaluator(f).action(z, x)`` is ``f(Z)(X (x) I_q)`` over the
truncation :func:`evaluate_on_nilpotent` uses, formed without a power: the
value's trie walk over the reversed words, at the transposed point and
from ``X^T``, carries the rows ``(Z^w X)^T``.  The reference is the full
value times ``kron(X, I_q)``; the walk sums the same terms in another order,
so they agree to rounding (1e-12 relative in the Frobenius norm).  At the
truncated free shift each read coefficient is one exact product, so
extraction through the action has the bits of extraction through the full
value.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncrkhs
from ncrkhs import series
from ncrkhs.core import DimMismatch, InconsistentEvaluator, MatrixTuple, NotNilpotent, Tolerances, kron, words_up_to
from ncrkhs.sampling import complex_gaussian, nilpotent_tuple, rng_from_seed
from ncrkhs.serialize import decode_series, encode_series
from ncrkhs.series import (
    NcSeries,
    evaluate,
    evaluate_on_nilpotent,
    extract_taylor_coefficients,
    functional_evaluator,
    nilpotency_orders,
    truncated_shift_tuple,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ncrkhs.__file__)))
REL = 1e-12


def random_series(rng, d: int, degree: int, p: int, q: int, full: bool) -> NcSeries:
    """A series on every word of length <= degree, or on about half of them."""
    words = [w for w in words_up_to(d, degree) if full or rng.random() < 0.5]
    return NcSeries(d, p, q, {w: complex_gaussian(rng, p, q) for w in words})


def gaussian_point(rng, d: int, n: int) -> MatrixTuple:
    # spectral norms near one keep the products at the scale of the data
    return MatrixTuple(tuple(complex_gaussian(rng, n, n) / np.sqrt(2 * n) for _ in range(d)))


def fresh(z: MatrixTuple) -> MatrixTuple:
    """The same coordinates in a plain point, which carries no order and holds no memo."""
    return MatrixTuple(tuple(np.array(c) for c in z.coords))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), p=st.integers(1, 2), q=st.integers(1, 2),
       r=st.integers(1, 3), n=st.integers(1, 5), extra=st.integers(-2, 2), full=st.booleans(),
       kind=st.sampled_from(["nilpotent", "gaussian"]))
def test_the_action_is_the_value_applied_to_the_block(seed, d, p, q, r, n, extra, full, kind):
    rng = rng_from_seed(seed)
    # degrees around the point's order, which is at most n: below, at and above it
    f = random_series(rng, d, max(0, min(n + extra, 4 if d < 3 else 3)), p, q, full)
    x = complex_gaussian(rng, n, r)
    ev = functional_evaluator(f)
    if kind == "gaussian":
        z = gaussian_point(rng, d, n)
        got = series._series_action(f, z.stacked[None], x[None])[0]
        want = evaluate(f, z) @ kron(x, np.eye(q))
        # the evaluator refuses the point, as its value does
        with pytest.raises(NotNilpotent):
            ev.action(z, x)
    else:
        z = nilpotent_tuple(rng, d, n)
        got = ev.action(z, x)
        want = evaluate_on_nilpotent(f, fresh(z)) @ kron(x, np.eye(q))
    assert got.shape == (n * p, r * q)
    assert np.linalg.norm(got - want) <= REL * max(1.0, np.linalg.norm(want))


def test_the_action_checks_its_point_and_block():
    f = NcSeries(2, 1, 1, {(1,): [[1.0]]})
    action = functional_evaluator(f).action
    with pytest.raises(DimMismatch, match="series over 2 variables evaluated at a 1-tuple"):
        action(truncated_shift_tuple(1, 2), np.ones((3, 1)))
    with pytest.raises(DimMismatch, match="expected 7 rows, got 3"):
        action(truncated_shift_tuple(2, 2), np.ones((3, 1)))


def outcome(run):
    """The extracted terms as (word, bytes) pairs, or the type and text of the error raised."""
    try:
        got = run()
    except Exception as exc:  # both reads must fail alike
        return type(exc), str(exc)
    return [(w, c.shape, c.tobytes()) for w, c in got.terms.items()]


@pytest.mark.parametrize("eq_rel", [1e-10, 0.5, 1.0, 2.0])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), max_len=st.integers(0, 4), extra=st.integers(-1, 2),
       p=st.integers(1, 2), q=st.integers(1, 3), full=st.booleans())
def test_extraction_through_the_action_has_the_bits_of_the_full_value(eq_rel, seed, d, max_len, extra, p, q, full):
    rng = rng_from_seed(seed)
    max_len = min(max_len, 3 if d == 3 else 4)
    f = random_series(rng, d, max(0, max_len + extra), p, q, full)
    tol = Tolerances(eq_rel=eq_rel)
    ev = functional_evaluator(f, tol)
    got = outcome(lambda: extract_taylor_coefficients(ev, d, max_len, p, q, tol))
    # a plain callable offers no action, so it is asked for the whole value
    assert got == outcome(lambda: extract_taylor_coefficients(lambda z: ev(z), d, max_len, p, q, tol))


def test_extraction_asks_only_for_the_action_and_compares_both_probes():
    class Flaky:
        """An evaluator whose constant coefficient changes between probes."""

        calls = 0

        def __call__(self, z):
            raise AssertionError("the whole value was asked for")

        def action(self, z, x):
            self.calls += 1
            value = np.zeros((z.n, x.shape[1]), dtype=complex)
            value[0, 0] = self.calls
            return value

    with pytest.raises(InconsistentEvaluator, match=r"coefficient of \(\) disagrees across probe sizes"):
        extract_taylor_coefficients(Flaky(), 2, 2, 1, 1)

    # a drift only at a later word, or at two words, names the first in graded order
    for drift, first in [([(2,)], r"\(2,\)"), ([(2,), (1,)], r"\(1,\)"), ([(1, 1), (2,), ()], r"\(\)")]:

        class Drifting(Flaky):
            def action(self, z, x):
                self.calls += 1
                words = words_up_to(2, 2 if z.n == 7 else 1)
                value = np.ones((z.n, x.shape[1]), dtype=complex)
                for w in drift:
                    if w in words:
                        value[words.index(w), 0] = self.calls
                return value

        with pytest.raises(InconsistentEvaluator, match=rf"coefficient of {first} disagrees across probe sizes"):
            extract_taylor_coefficients(Drifting(), 2, 2, 1, 1)

    class Wide(Flaky):
        def action(self, z, x):
            return np.zeros((z.n, 2))

    with pytest.raises(DimMismatch, match=r"evaluator returned shape \(7, 2\), expected \(7, 1\)"):
        extract_taylor_coefficients(Wide(), 2, 2, 1, 1)


@pytest.mark.parametrize("eq_rel", [1e-14, 1e-10, 0.5, 1 - 2**-52])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("max_len", range(6))
def test_the_shift_carries_the_order_the_flag_walk_finds(d, max_len, eq_rel):
    shift = truncated_shift_tuple(d, max_len)
    assert shift.structural_order == max_len + 1 == fresh(shift).structural_order
    assert nilpotency_orders([shift], Tolerances(eq_rel=eq_rel)) == [shift.structural_order]


# d = 1, max_len = 5: the walk's order at each tolerance
ORDERS = {1e-10: 6, 1 - 2**-52: 6, 1.0: 5, 2.0: 2}


@pytest.mark.parametrize("eq_rel", ORDERS)
def test_the_shift_walks_no_flag_at_any_eq_rel(monkeypatch, eq_rel):
    calls = []
    walk = series.nilpotency_orders
    monkeypatch.setattr(series, "nilpotency_orders", lambda *args: calls.append(args) or walk(*args))
    tol = Tolerances(eq_rel=eq_rel)
    f = random_series(rng_from_seed(71), 1, 5, 1, 2, True)
    shift = truncated_shift_tuple(1, 5)
    ev = functional_evaluator(f, tol)
    value, applied = ev(shift), ev.action(shift, np.eye(shift.n, 2))
    assert calls == []
    # at eq_rel >= 1 the walk's order falls below the shift's; no word is dropped on it
    assert walk([fresh(shift)], tol) == [ORDERS[eq_rel]]
    want = evaluate(f, fresh(shift))
    assert same_bits(value, want)
    assert np.linalg.norm(applied - want[:, :4]) <= REL * np.linalg.norm(want[:, :4])


def test_the_action_walk_holds_its_blocks_within_the_block_bytes(monkeypatch):
    # degree 12 in two letters: 8,191 suffix-trie nodes, 2 MiB of 16 x 1 blocks
    bound = 1 << 18
    monkeypatch.setattr(series, "_BLOCK_BYTES", bound)
    rng = rng_from_seed(72)
    words = [w for k in range(13) for w in product((1, 2), repeat=k)]
    f = NcSeries(2, 1, 1, {w: complex_gaussian(rng, 1, 1) for w in words})
    z, x = gaussian_point(rng, 2, 16), complex_gaussian(rng, 16, 1)
    series._series_action(f, z.stacked[None], x[None])  # builds the plan
    tracemalloc.start()
    try:
        value = series._series_action(f, z.stacked[None], x[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.linalg.norm(value[0] - evaluate(f, z) @ x) <= REL * np.linalg.norm(value)
    # beside the bound: the coefficients in the plan's order, their index and
    # temporaries, and one node on each level whose share is below one node
    assert peak <= bound + 4 * len(words) * 16 + 13 * 16 * 16


_EXTRACT = [sys.executable, "-m", "ncrkhs.cli", "extract-coeffs", "--series", "f.json", "--max-len", "6"]


def test_extraction_at_the_north_star_degree_runs_in_seconds(tmp_path):
    # d = 3, L = 6: 1,093 terms, on a shift of size 1,093; forming the value there took minutes
    rng = rng_from_seed(73)
    f = random_series(rng, 3, 6, 1, 1, True)
    (tmp_path / "f.json").write_text(json.dumps(encode_series(f)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(_EXTRACT, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = decode_series(json.loads(proc.stdout)["series"])
    assert list(got.terms) == list(f.terms) and len(got.terms) == 1093
    for w, c in f.terms.items():
        assert np.array_equal(got.terms[w], c), w
