"""The structural order of a strictly triangular point, exact values on the nilpotent domain, and the shift's indices.

At a strictly triangular point every product longer than the longest chain of
nonzero entries of the coordinates' union support is exactly zero, in floating
point too, so :func:`evaluate_on_nilpotent` drops those words and no others,
and a moment table's domain verdict there is exact.  Any other point it
accepts takes the series whole.  The references are :func:`longest_chain`, a
plain depth-first search, and :func:`evaluate` itself.
"""

import json
import os
import subprocess
import sys
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ncrkhs
from ncrkhs.cli import main
from ncrkhs.core import (
    DEFAULT_TOL,
    MatrixTuple,
    NotNilpotent,
    Tolerances,
    TruncationRefused,
    frobenius,
    rel_err,
    words_up_to,
)
from ncrkhs.kernels import szego_kernel
from ncrkhs.sampling import (
    complex_gaussian,
    gaussian_tuple,
    nilpotent_tuple,
    random_similarity,
    rng_from_seed,
)
from ncrkhs.serialize import decode_matrix, encode_series, encode_tuple
from ncrkhs.series import (
    NcSeries,
    evaluate,
    evaluate_on_nilpotent,
    nilpotency_orders,
    truncated_shift_tuple,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ncrkhs.__file__)))

# an accepted value and eval's differ only by the order of their sums, so
# they agree to eq_rel itself
AGREEMENT_SLACK = 1


def longest_chain(z: MatrixTuple) -> int:
    """One more than the longest chain of nonzero entries of the union support (at least 1), by depth-first search."""
    support = np.any(z.stacked != 0, axis=0)
    steps: dict[int, int] = {}

    def from_row(i: int) -> int:
        if i not in steps:
            steps[i] = max((1 + from_row(j) for j in np.flatnonzero(support[i])), default=0)
        return steps[i]

    return 1 + max((from_row(i) for i in range(z.n)), default=0)


def fresh(z: MatrixTuple) -> MatrixTuple:
    """The same coordinates in a new point, which holds no memo."""
    return MatrixTuple(tuple(np.array(c) for c in z.coords))


def triangular_point(rng, d: int, n: int, lower: bool, scale: float, shrink: float) -> MatrixTuple:
    """Strictly upper (or lower) Gaussian coordinates of size ``scale``, each superdiagonal entry
    (subdiagonal, for a lower point) shrunk by a factor between ``shrink`` and 1."""
    coords = np.triu(complex_gaussian(rng, d * n, n).reshape(d, n, n) * scale, 1)
    i = np.arange(n - 1)
    coords[:, i, i + 1] *= shrink ** rng.random((d, n - 1))
    return MatrixTuple(tuple(coords.transpose(0, 2, 1) if lower else coords))


# ---------------------------------------------------------------------------
# the structural order
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n=st.integers(1, 16), lower=st.booleans(),
       scale=st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8]), shrink=st.sampled_from([1.0, 1e-3, 1e-12]),
       density=st.sampled_from([0.1, 0.3, 1.0]),
       eq_rel=st.sampled_from([1e-16, 1e-13, 1e-10, 1e-6, 1e-3, 1e-1]))
def test_the_walk_finds_no_order_beyond_the_structural_order(seed, d, n, lower, scale, shrink, density, eq_rel):
    rng = rng_from_seed(seed)
    z = triangular_point(rng, d, n, lower, scale, shrink)
    z = MatrixTuple(tuple(c * (rng.random(c.shape) < density) for c in z.coords))
    order = z.structural_order
    assert order == longest_chain(z)
    walked = nilpotency_orders([z], Tolerances(eq_rel=eq_rel))[0]
    assert walked is not None and walked <= order
    # every product of that length is exact zeros, whatever the scale
    for w in islice(product(range(d), repeat=order), 64):
        p = np.eye(n, dtype=np.complex128)
        for letter in w:
            p = p @ z.coords[letter]
        assert not p.any()


def test_the_structural_order_of_fixed_points():
    shift = np.eye(5, k=1)
    for tol in (Tolerances(), Tolerances(eq_rel=0.5), Tolerances(eq_rel=1e-300)):
        assert MatrixTuple((shift, 2 * shift)).structural_order == 5
        assert nilpotency_orders([MatrixTuple((shift,))], tol)[0] <= 5
    assert MatrixTuple((shift.T,)).structural_order == 5
    assert MatrixTuple((1e-300 * shift,)).structural_order == 5
    # a chain that meets an exact zero ends there
    gap = np.eye(5, k=1)
    gap[3, 4] = 0.0
    assert MatrixTuple((gap,)).structural_order == 4
    # the union support: 0 -> 1 in the first coordinate, 1 -> 2 in the second
    e01, e12 = np.zeros((3, 3)), np.zeros((3, 3))
    e01[0, 1], e12[1, 2] = 1.0, 1.0
    assert MatrixTuple((e01, e12)).structural_order == 3
    # Z1 = E01 + E02, Z2 = E13 - E23: the chains of length 2 cancel, so the order is 2, the bound 3
    z1, z2 = np.zeros((4, 4)), np.zeros((4, 4))
    z1[0, 1] = z1[0, 2] = 1.0
    z2[1, 3], z2[2, 3] = 1.0, -1.0
    cancelling = MatrixTuple((z1, z2))
    assert cancelling.structural_order == 3 and nilpotency_orders([cancelling])[0] == 2
    assert MatrixTuple((np.zeros((4, 4)),)).structural_order == 1
    assert MatrixTuple((np.zeros((0, 0)),)).structural_order == 1
    assert MatrixTuple((shift + shift.T,)).structural_order is None
    assert MatrixTuple((shift + np.eye(5),)).structural_order is None


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
    # nothing truncated: the order is beyond the degree
    assert z.structural_order == n > degree
    value = decode_matrix(json.loads(paths["out"].read_text())["value"])
    assert np.array_equal(value, evaluate(f, MatrixTuple(z.coords)))


def test_a_tiny_chain_entry_drops_no_word_and_walks_no_flag(linalg_calls):
    # the walk's order is 2, below the degree, since the chain meets the 1e-20 entry; the point's is 4
    z = MatrixTuple((np.diag([1.0, 1e-20, 1.0], 1),))
    f = NcSeries(1, 1, 1, {w: np.ones((1, 1)) for w in words_up_to(1, 3)})
    value = evaluate_on_nilpotent(f, z)
    assert linalg_calls == []
    assert np.array_equal(value, evaluate(f, fresh(z)))
    assert value[0, 3] == 1e-20
    assert nilpotency_orders([fresh(z)]) == [2]


# ---------------------------------------------------------------------------
# exact values: what evaluate_on_nilpotent accepts, it gives eval's value for
# ---------------------------------------------------------------------------

NOT_NILPOTENT = "tuple of size {n} has nonvanishing products of length {n}"

# 1 + 1e8 x^40 at 0.5 I_36 (dense, accepted by the walk at order 36) and
# 1 + 1e12 x^5 at 1e-3 N for the 10 x 10 shift N (triangular, order 10)
REPRODUCTIONS = {
    "dense-decaying": ({(): [[1.0]], (1,) * 40: [[1e8]]}, 0.5 * np.eye(36)),
    "small-chain": ({(): [[1.0]], (1,) * 5: [[1e12]]}, 1e-3 * np.eye(10, k=1)),
}


@pytest.mark.parametrize("name", REPRODUCTIONS)
def test_nilp_eval_prints_evals_payload(tmp_path, name):
    terms, coord = REPRODUCTIONS[name]
    (tmp_path / "f.json").write_text(json.dumps(encode_series(NcSeries(1, 1, 1, terms))))
    (tmp_path / "z.json").write_text(json.dumps(encode_tuple(MatrixTuple((coord,)))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = {}
    for command in ("eval", "nilp-eval"):
        proc = subprocess.run([sys.executable, "-m", "ncrkhs.cli", command, "--series", "f.json", "--point", "z.json"],
                              env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        out[command] = proc.stdout
    assert out["nilp-eval"] == out["eval"]
    value = decode_matrix(json.loads(out["nilp-eval"])["value"])
    if name == "dense-decaying":
        assert value[0, 0] == 1.0000909494701773
    else:
        assert value[0, 5] == pytest.approx(1e-3, rel=1e-15)


def test_a_sampler_point_accepted_at_a_numerical_order_takes_the_whole_series():
    # the walk gives this Gaussian point order 35, below the series' degree
    z = gaussian_tuple(rng_from_seed(5), 1, 64)
    f = NcSeries(1, 1, 1, {(): [[1.0]], (1,) * 40: [[1e8]]})
    assert nilpotency_orders([fresh(z)]) == [35]
    assert np.array_equal(evaluate_on_nilpotent(f, z), evaluate(f, fresh(z)))


def property_point(kind: str, rng, d: int, n: int, c: float) -> MatrixTuple:
    if kind == "cI":
        return MatrixTuple(tuple(c * np.eye(n) for _ in range(d)))
    if kind == "cN":
        return MatrixTuple(tuple(c * np.eye(n, k=j + 1) for j in range(d)))
    if kind == "rotated":
        s = random_similarity(rng, n)
        inverse = np.linalg.inv(s)
        return MatrixTuple(tuple(c * s @ np.eye(n, k=j + 1) @ inverse for j in range(d)))
    return (nilpotent_tuple if kind == "nilpotent" else gaussian_tuple)(rng, d, n)


def property_series(rng, d: int, words: int) -> NcSeries:
    """1 plus ``words`` random words, up to length 48 (d = 1) or 8, with coefficients up to 1e12."""
    longest = 48 if d == 1 else 8
    terms = {(): np.ones((1, 1))}
    for _ in range(words):
        w = tuple(int(j) for j in rng.integers(1, d + 1, size=int(rng.integers(1, longest + 1))))
        terms[w] = complex_gaussian(rng, 1, 1) * 10.0 ** rng.uniform(0, 12)
    return NcSeries(d, 1, 1, terms)


def check_value_and_domain(seed, d, n, kind, log_c, words, max_len):
    """evaluate_on_nilpotent gives eval's value or today's refusal; a triangular point's verdict is its chain's."""
    rng = rng_from_seed(seed)
    if kind in ("rotated", "gaussian"):
        n = max(n, 1)
    z = property_point(kind, rng, d, n, 10.0 ** log_c)
    f = property_series(rng, d, words)
    try:
        got = evaluate_on_nilpotent(f, z)
    except NotNilpotent as refused:
        assert z.structural_order is None
        assert str(refused) == NOT_NILPOTENT.format(n=n)
    else:
        want = evaluate(f, fresh(z))
        assert rel_err(frobenius(got - want), frobenius(want)) <= DEFAULT_TOL.eq_rel * AGREEMENT_SLACK
    if z.strictly_triangular:
        kernel = szego_kernel(d, max_len)
        inside = longest_chain(z) <= max_len + 1
        try:
            kernel._check_domain([z])
            assert inside
        except TruncationRefused:
            assert not inside


KINDS = st.sampled_from(["cI", "cN", "rotated", "nilpotent", "gaussian"])


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2), n=st.integers(0, 16), kind=KINDS,
       log_c=st.floats(-6, 0), words=st.integers(0, 4), max_len=st.integers(0, 6))
def test_every_accepted_value_is_evals_and_every_triangular_domain_verdict_is_the_chains(
        seed, d, n, kind, log_c, words, max_len):
    check_value_and_domain(seed, d, n, kind, log_c, words, max_len)


@settings(max_examples=12)
@example(seed=5, d=2, n=128, kind="gaussian", log_c=0.0, words=4, max_len=6)
@example(seed=5, d=2, n=128, kind="nilpotent", log_c=0.0, words=4, max_len=6)
@example(seed=5, d=1, n=128, kind="rotated", log_c=-3.0, words=4, max_len=6)
@example(seed=5, d=1, n=128, kind="cN", log_c=-6.0, words=4, max_len=6)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2), n=st.sampled_from([32, 64, 128]), kind=KINDS,
       log_c=st.floats(-6, 0), words=st.integers(0, 4), max_len=st.integers(0, 6))
def test_the_same_holds_at_sizes_up_to_128(seed, d, n, kind, log_c, words, max_len):
    check_value_and_domain(seed, d, n, kind, log_c, words, max_len)


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
    assert shift.d == d and shift.structural_order == max_len + 1 == longest_chain(shift)
    assert all(got.dtype == np.complex128 and got.tobytes() == ref.tobytes() for got, ref in zip(shift.coords, want))
